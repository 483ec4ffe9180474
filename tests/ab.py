#!/usr/bin/env python3
"""Alternating pairs of benchmark runs: a base tree against this one.

    python tests/ab.py --base PATH --workload W --seeds A-B --seconds S [--tag T]

For each seed, each tree's own ``benchmarks/run.py`` runs ``--workload W
--seed N --seconds S --trace 0`` on that tree's ``src/``, in a process of
its own. Which tree runs first alternates from seed to seed. The script
stops, with exit status 2, if the two trees' ``benchmarks/`` differ: their
runs would not measure the same thing. It writes ``BENCH_ab_<tag>.json`` at
the root of this tree (the tag defaults to the workload), which holds:

- each tree's git sha, whether its ``src/`` or ``benchmarks/`` has
  uncommitted changes, a sha256 over its ``src/`` files, its ``src/`` line
  count and ``len(adastream.__all__)``;
- each pair: its seed, the tree that ran first, both sides' end-to-end
  metrics, ``correct`` and ``failed``, and its flags;
- per end-to-end metric: each side's median and quartiles, the number of
  pairs the change won, and whether the change's median beats the base's
  by more than the base's interquartile range.

A pair is flagged ``failed`` if either side failed an operation or a check,
and ``behaviour_changed`` if its sides differ in ``mean_jod`` or
``mpix_per_s``, which repeat exactly for a seed. A flagged pair is kept, so
a change that alters decisions on purpose still reports its speed. For
those two metrics, each pair and the medians record how much worse the
change is, as a share of the base, against the metric's bound in
``BENCHMARK.json``. The exit status is 1 if any pair is flagged, else 0.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DETERMINISTIC = ("mean_jod", "mpix_per_s")


def _seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    if not seeds:
        raise argparse.ArgumentTypeError(f"no seeds in {text!r}")
    return seeds


def _digest(tree: Path, part: str) -> dict:
    """sha256 of every file under the tree's ``part`` directory, by
    relative path, leaving out caches and hidden files."""
    top = tree / part
    files = (path.relative_to(top) for path in top.rglob("*") if path.is_file())
    return {rel.as_posix(): hashlib.sha256((top / rel).read_bytes()).hexdigest()
            for rel in sorted(files)
            if not any(p.startswith(".") or p == "__pycache__" for p in rel.parts)}


def _git(tree: Path, *args) -> str | None:
    done = subprocess.run(["git", "-C", str(tree), *args], capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def _tree(tree: Path) -> dict:
    init = tree / "src" / "adastream" / "__init__.py"
    names = next(node.value for node in ast.parse(init.read_text(encoding="utf-8")).body
                 if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "__all__" for t in node.targets))
    status = _git(tree, "status", "--porcelain", "--", "src", "benchmarks")
    return {
        "git_sha": _git(tree, "rev-parse", "HEAD"),
        "uncommitted_changes": None if status is None else bool(status),
        "src_sha256": hashlib.sha256(json.dumps(_digest(tree, "src"), sort_keys=True)
                                     .encode()).hexdigest(),
        "src_lines": sum(len(path.read_bytes().splitlines())
                         for path in (tree / "src").rglob("*.py")),
        "all_names": len(ast.literal_eval(names)),
    }


def _run(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """The result line of one run, or a failed one if the run gave none."""
    done = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True)
    try:
        result = json.loads(done.stdout.strip().splitlines()[-1])
        return {"correct": result["correct"], "failed": result["failed"],
                "metrics": {name: m["value"] for name, m in result["metrics"].items()}}
    except (IndexError, ValueError, KeyError, TypeError):
        return {"correct": False, "failed": None, "metrics": {},
                "error": f"exit {done.returncode}: {done.stderr.strip()[-500:]}"}


def _worse_share(base: float, change: float, better: str) -> float | None:
    """How much worse the change is than the base, as a share of the base."""
    if not base:
        return None
    return (change - base) / base * (1 if better == "lower" else -1)


def _against_bound(base: float, change: float, metric: dict) -> dict:
    share = _worse_share(base, change, metric["better"])
    return {"base": base, "change": change, "worse_share": share, "bound": metric["bound"],
            "within_bound": share is not None and share <= metric["bound"]}


def _spread(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarize(pairs: list, metrics: list) -> dict:
    """Per metric, over the pairs in which both sides report it."""
    summary = {}
    for metric in metrics:
        name, better = metric["name"], metric["better"]
        sides = [(p["base"]["metrics"][name], p["change"]["metrics"][name]) for p in pairs
                 if name in p["base"]["metrics"] and name in p["change"]["metrics"]]
        if not sides:
            continue
        base, change = (_spread([s[i] for s in sides]) for i in (0, 1))
        sign = 1 if better == "higher" else -1
        gain = sign * (change["median"] - base["median"])
        summary[name] = {
            "better": better, "pairs": len(sides), "base": base, "change": change,
            "change_wins": sum(sign * (c - b) > 0 for b, c in sides),
            "median_beats_base_iqr": gain > base["q3"] - base["q1"],
        }
        if name in DETERMINISTIC:
            summary[name]["medians_against_bound"] = _against_bound(
                base["median"], change["median"], metric)
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seed_range, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--tag")
    args = parser.parse_args(argv)
    base_tree = args.base.resolve()
    if _digest(base_tree, "benchmarks") != _digest(ROOT, "benchmarks"):
        print(f"ab: {base_tree}/benchmarks differs from {ROOT}/benchmarks; "
              "the two trees would not run the same benchmark", file=sys.stderr)
        return 2
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    bounds = {m["name"]: m for m in metrics}

    pairs = []
    for i, seed in enumerate(args.seeds):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = _run(base_tree if side == "base" else ROOT, args.workload,
                              seed, args.seconds)
        flags = []
        if not all(pair[s]["correct"] is True and pair[s]["failed"] == 0 for s in order):
            flags.append("failed")
        elif any(pair["base"]["metrics"].get(m) != pair["change"]["metrics"].get(m)
                 for m in DETERMINISTIC):
            flags.append("behaviour_changed")
            pair["against_bound"] = {m: _against_bound(pair["base"]["metrics"][m],
                                                       pair["change"]["metrics"][m],
                                                       bounds[m]) for m in DETERMINISTIC}
        pair["flags"] = flags
        pairs.append(pair)
        print(f"seed {seed}: " + ", ".join(
            f"{s} setup_s {pair[s]['metrics'].get('setup_s', float('nan')):.3f}"
            for s in ("base", "change")) + (f" [{', '.join(flags)}]" if flags else ""),
            flush=True)

    flagged = sum(bool(p["flags"]) for p in pairs)
    report = {
        "workload": args.workload, "seconds": args.seconds,
        "seeds": [args.seeds.start, args.seeds.stop - 1],
        "trees": {"base": _tree(base_tree), "change": _tree(ROOT)},
        "flagged_pairs": flagged, "pairs": pairs,
        "summary": summarize(pairs, metrics),
    }
    out = ROOT / f"BENCH_ab_{args.tag or args.workload}.json"
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    for name, s in report["summary"].items():
        print(f"{name}: base {s['base']['median']:.6g} [{s['base']['q1']:.6g}, "
              f"{s['base']['q3']:.6g}], change {s['change']['median']:.6g}; change won "
              f"{s['change_wins']} of {s['pairs']}")
    print(f"{flagged} of {len(pairs)} pairs flagged; wrote {out.name}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
