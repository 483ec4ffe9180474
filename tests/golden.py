#!/usr/bin/env python3
"""Build the CLI's deterministic corpus and print its manifest.

    PYTHONPATH=<tree>/src python tests/golden.py OUT > manifest.txt

Runs the ``adastream`` package that ``PYTHONPATH`` names, so one copy of this
script can build the corpus of two trees, each in its own process. It writes
the corpus under OUT and prints one ``sha256  path`` line for every output
file and for each subcommand's stdout, sorted by path. Paths are relative to
OUT, and OUT in a subcommand's stdout reads as a fixed token, so the
manifests of two trees are equal exactly when their outputs are. The corpus:

- ``gen-synthetic --count 150 --seed 7 --scenarios 3``;
- ``label`` on its grids;
- ``train --seed 7`` and ``evaluate`` on its training rows;
- ``simulate`` and ``compare --seed 7`` on the three generated scenarios and
  on the benchmark's patch scenarios (``adabench.inputs.patch_scenario_json``)
  at seeds 5 and 901.

The patch scenario files are inputs, so they stay out of the manifest. The
script uses no CLI flag that is newer than the corpus itself. Pytest does not
collect it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
PATCH_SEEDS = (5, 901)
TOKEN = "OUT"


def _cli(out: Path, step: str, *argv) -> None:
    """Run one subcommand with its outputs in ``out / step``, and keep its
    stdout as ``out / step / stdout``."""
    from adastream.cli import main

    step_dir = out / step
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main([str(a) for a in (*argv, "--out", step_dir)])
    if code != 0:
        sys.exit(f"golden: {step} exited {code}")
    (step_dir / "stdout").write_text(stdout.getvalue().replace(str(out), TOKEN),
                                     encoding="utf-8")


def build(out: Path) -> None:
    sys.path.append(str(BENCHMARKS))  # after PYTHONPATH: adastream comes from there
    from adabench.inputs import patch_scenario_json

    corpus, inputs = out / "corpus", out / "inputs"
    inputs.mkdir(parents=True)
    gen = corpus / "gen-synthetic"
    _cli(corpus, "gen-synthetic", "gen-synthetic", "--count", 150, "--seed", 7,
         "--scenarios", 3)
    _cli(corpus, "label", "label", "--grids", gen / "grids.csv")
    _cli(corpus, "train", "train", "--data", gen / "training.csv", "--seed", 7)
    model = corpus / "train" / "model.json"
    _cli(corpus, "evaluate", "evaluate", "--model", model,
         "--data", gen / "training.csv")

    scenarios = sorted(gen.glob("scenario_*.json"))
    for seed in PATCH_SEEDS:
        scenarios.append(inputs / f"patches_{seed}.json")
        scenarios[-1].write_bytes(patch_scenario_json(seed))
    for scenario in scenarios:
        _cli(corpus, f"simulate_{scenario.stem}", "simulate", "--scenario", scenario,
             "--model", model, "--seed", 7)
        _cli(corpus, f"compare_{scenario.stem}", "compare", "--scenario", scenario,
             "--seed", 7)


def manifest(corpus: Path) -> list[str]:
    return sorted(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  "
                  f"{path.relative_to(corpus).as_posix()}"
                  for path in corpus.rglob("*") if path.is_file())


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    out = Path(args[0]).resolve()
    if out.exists():
        print(f"golden: {out} exists; give a new directory", file=sys.stderr)
        return 2
    import adastream

    print(f"golden: adastream from {Path(adastream.__file__).parent}", file=sys.stderr)
    build(out)
    print("\n".join(manifest(out / "corpus")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
