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
- ``label`` on its grids, and on a respelled copy of them
  (``respelled_grid_file`` with seed 7: padded clip ids, respelled
  numbers, shuffled rows, blank lines and CRLF line ends);
- ``gen-synthetic --count 150 --seed 7`` and ``label`` on its grids under
  ``CONFIG``: a four-by-two ladder, two bitrates and other synthetic
  constants;
- ``train --seed 7`` and ``evaluate`` on its training rows, and on a
  respelled copy of them (``respelled_training_file`` with seed 7: padded
  and respelled numbers such as ``+5e-1``, blank lines and CRLF line ends,
  the rows in their order), whose model must equal the plain one;
- ``train --seed 7`` on the same rows with odd minibatch shapes: one row
  per step for 2 epochs, one step of every row for 3 epochs (a batch
  size above the row count), and no held-out rows;
- ``train --seed 7`` and ``evaluate`` under ``CONFIG``, whose heads have 4
  and 2 classes;
- ``simulate`` and ``compare --seed 7`` on the three generated scenarios and
  on the benchmark's patch scenarios (``adabench.inputs.patch_scenario_json``)
  at seeds 1, 2, 3, 5 and 901;
- ``simulate --seed 7`` on two stepped scenarios, ``make_scenario(duration_s=8,
  velocity_degps=30, bitrate_schedule=((0, 3e6), (4.0, X)), seed=1)`` for X
  = 1 Mbps and 6 Mbps: each steps at a window boundary, where the
  predictor's bandwidth column lags the rate by one window;
- ``compare_baselines`` on the same eight scenarios with a
  ``GridQualitySource`` of the generated grids, at jitter 0 and at 5% with
  seed 3: each policy's window CSV and the summaries as JSON. The CLI's
  ``compare`` runs only the synthetic source. On the patch scenarios the
  full-adaptive policy leaves the baseline's frame rate.

The patch and stepped scenario files, the respelled grids and training
rows and the config are inputs, so they stay out of the manifest. The script uses no
CLI flag and no library name that is newer than the corpus itself. Pytest
does not collect it; the reader fuzz tests import its two respelling
functions.

CI compares the base tree's manifest with this tree's through
``identity_problems``: an output may change only if
``tests/identity_exceptions.txt`` lists its path with a reason, and a
listed output must change. The next change empties the file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
PATCH_SEEDS = (1, 2, 3, 5, 901)
STEP_RATES_BPS = (1e6, 6e6)  # the rates after a step down and a step up from 3 Mbps
GRID_JITTERS_PCT = (0.0, 5.0)
TOKEN = "OUT"
CONFIG = {"frame_rates": [24, 25, 50, 144], "resolutions": [480, 1080],
          "bitrates": [1500000.0, 5000000.0],
          "synthetic": {"alpha_temporal": 1.3, "alpha_spatial": 2.0,
                        "alpha_coding": 1.8, "bpp_ref": 0.07,
                        "spatial_exponent": 1.1, "content_detail": 0.4}}


def respellings(text: str, integral: bool) -> list[str]:
    """Other spellings of a number field that Python reads as the same
    number: ``+30``, `` 1080``, ``3e6``, ``7.50``."""
    spellings = [f"+{text}", f" {text}", f"{text} "]
    if integral:
        return spellings + [f"0{text}"]
    mantissa, exponent = f"{float(text):.16e}".split("e")
    spellings.append(f"{mantissa.rstrip('0').rstrip('.')}e{int(exponent)}")
    if "." in text and "e" not in text:
        spellings.append(f"{text}0")
    return spellings


def respelled_grid_file(data: bytes, rnd: random.Random, share: float,
                        shuffle: bool, blank_lines: int, end: str) -> bytes:
    """A grid file written by ``write_grids_csv``, with the same grids in
    other text: each row's clip id padded with spaces and each of its
    number fields respelled with chance ``share``, the rows shuffled or
    not, ``blank_lines`` blank lines inserted after the header, and ``end``
    ending every line."""
    header, *rows = (line.split(",") for line in data.decode("utf-8").splitlines())
    for row in rows:
        if rnd.random() < share:
            row[0] = f" {row[0]} "
        for j in range(1, 6):
            if rnd.random() < share:
                row[j] = rnd.choice(respellings(row[j], integral=j in (3, 4)))
    if shuffle:
        rnd.shuffle(rows)
    lines = [",".join(row) for row in [header, *rows]]
    for _ in range(blank_lines):
        lines.insert(rnd.randint(1, len(lines)), "")
    return "".join(line + end for line in lines).encode("utf-8")


def respelled_training_file(data: bytes, rnd: random.Random, share: float,
                            blank_lines: int, end: str) -> bytes:
    """A training file written by ``write_training_csv``, with the same rows
    in the same order in other text: each field, with chance ``share``,
    spelled another way (``respellings``), then given a ``+`` sign or a
    space on either side, so ``0.5`` may read ``+5e-1`` or `` 0.50 ``;
    ``blank_lines`` blank lines inserted after the header, and ``end``
    ending every line. Every field must be a number >= 0."""
    header, *rows = (line.split(",") for line in data.decode("utf-8").splitlines())
    width = len(header)
    for row in rows:
        for j, text in enumerate(row):
            if rnd.random() < share:
                text = rnd.choice([text, *(s for s in respellings(text, j >= width - 2)
                                           if s == s.strip(" +"))])
                sign = rnd.choice(["", "+"])
                row[j] = f"{rnd.choice(['', ' '])}{sign}{text}{rnd.choice(['', ' '])}"
    lines = [",".join(row) for row in [header, *rows]]
    for _ in range(blank_lines):
        lines.insert(rnd.randint(1, len(lines)), "")
    return "".join(line + end for line in lines).encode("utf-8")


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
    respelled = inputs / "grids_respelled.csv"
    respelled.write_bytes(respelled_grid_file((gen / "grids.csv").read_bytes(),
                                              random.Random(7), 0.5, True, 5, "\r\n"))
    _cli(corpus, "label_respelled", "label", "--grids", respelled)
    config = inputs / "config.json"
    config.write_text(json.dumps(CONFIG), encoding="utf-8")
    _cli(corpus, "gen-synthetic_config", "gen-synthetic", "--config", config,
         "--count", 150, "--seed", 7)
    _cli(corpus, "label_config", "label", "--config", config,
         "--grids", corpus / "gen-synthetic_config" / "grids.csv")
    _cli(corpus, "train", "train", "--data", gen / "training.csv", "--seed", 7)
    model = corpus / "train" / "model.json"
    _cli(corpus, "evaluate", "evaluate", "--model", model,
         "--data", gen / "training.csv")
    respelled = inputs / "training_respelled.csv"
    respelled.write_bytes(respelled_training_file((gen / "training.csv").read_bytes(),
                                                  random.Random(7), 0.5, 5, "\r\n"))
    _cli(corpus, "train_respelled", "train", "--data", respelled, "--seed", 7)
    _cli(corpus, "evaluate_respelled", "evaluate", "--model",
         corpus / "train_respelled" / "model.json", "--data", respelled)
    for step, *argv in (("train_batch1", "--batch-size", 1, "--epochs", 2),
                        ("train_batch1000", "--batch-size", 1000, "--epochs", 3),
                        ("train_holdout0", "--holdout", 0)):
        _cli(corpus, step, "train", "--data", gen / "training.csv", "--seed", 7, *argv)
    _cli(corpus, "train_config", "train", "--config", config, "--seed", 7,
         "--data", corpus / "gen-synthetic_config" / "training.csv")
    _cli(corpus, "evaluate_config", "evaluate", "--config", config,
         "--model", corpus / "train_config" / "model.json",
         "--data", corpus / "gen-synthetic_config" / "training.csv")

    scenarios = sorted(gen.glob("scenario_*.json"))
    for seed in PATCH_SEEDS:
        scenarios.append(inputs / f"patches_{seed}.json")
        scenarios[-1].write_bytes(patch_scenario_json(seed))
    for scenario in scenarios:
        _cli(corpus, f"simulate_{scenario.stem}", "simulate", "--scenario", scenario,
             "--model", model, "--seed", 7)
        _cli(corpus, f"compare_{scenario.stem}", "compare", "--scenario", scenario,
             "--seed", 7)
    _grid_compare(corpus, gen / "grids.csv", scenarios)
    _stepped_simulate(corpus, inputs, model)


def _stepped_simulate(corpus: Path, inputs: Path, model: Path) -> None:
    """``simulate`` on a scenario whose rate steps from 3 Mbps to each of
    ``STEP_RATES_BPS`` at 4 s."""
    from adastream.simulator import scenario_to_json
    from adastream.synth import make_scenario

    for rate in STEP_RATES_BPS:
        scenario = inputs / f"stepped_{rate / 1e6:g}mbps.json"
        scenario_to_json(make_scenario(duration_s=8, velocity_degps=30, seed=1,
                                       bitrate_schedule=((0, 3e6), (4.0, rate))),
                         scenario)
        _cli(corpus, f"simulate_{scenario.stem}", "simulate", "--scenario", scenario,
             "--model", model, "--seed", 7)


def _grid_compare(corpus: Path, grids: Path, scenarios) -> None:
    """``compare_baselines`` on each scenario with the grids as the quality
    source."""
    from adastream.quality import load_grids
    from adastream.simulator import (GridQualitySource, compare_baselines,
                                     scenario_from_json, summary_dict,
                                     write_window_csv)

    source = GridQualitySource(load_grids(grids))
    for path in scenarios:
        scenario = scenario_from_json(path)
        for jitter in GRID_JITTERS_PCT:
            step_dir = corpus / f"grid_compare_{path.stem}_jitter{jitter:g}"
            step_dir.mkdir()
            traces = compare_baselines(scenario, source, jitter_pct=jitter, seed=3)
            for name, trace in traces.items():
                write_window_csv(trace, step_dir / f"{name}_windows.csv")
            summaries = {name: summary_dict(trace) for name, trace in traces.items()}
            (step_dir / "summary.json").write_text(
                json.dumps(summaries, sort_keys=True, indent=1) + "\n", encoding="utf-8")


def manifest(corpus: Path) -> list[str]:
    return sorted(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  "
                  f"{path.relative_to(corpus).as_posix()}"
                  for path in corpus.rglob("*") if path.is_file())


def identity_problems(base: str, head: str, exceptions: str) -> list[str]:
    """Why a head manifest may not replace its base's, given the text of
    ``identity_exceptions.txt``: one ``path<TAB>reason`` line per output
    that is meant to change, blank lines aside. A path whose entry changed,
    appeared or went away must be listed; a listed path must have changed."""
    def entries(text):
        return dict(line.split("  ", 1)[::-1] for line in text.splitlines() if line)

    base_entries, head_entries = entries(base), entries(head)
    changed = {path for path in base_entries.keys() | head_entries.keys()
               if base_entries.get(path) != head_entries.get(path)}
    listed, problems = set(), []
    for number, line in enumerate(exceptions.splitlines(), 1):
        path, _, reason = line.partition("\t")
        if path.strip() and reason.strip():
            listed.add(path)
        elif line.strip():
            problems.append(f"exceptions line {number}: expected path<TAB>reason")
    problems += [f"{path}: changed, but not listed" for path in sorted(changed - listed)]
    problems += [f"{path}: listed, but unchanged" for path in sorted(listed - changed)]
    return problems


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
