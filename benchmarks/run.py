"""adastream benchmark: one workload, one seed, one run.

Run from the repository root:

    python3 benchmarks/run.py --workload stream_session --seed 1 --seconds 20 --trace 0

The last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
See benchmarks/README.md.
"""

import argparse
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("stream_session", "policy_compare", "cli_pipeline")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    package = ROOT / "src" / "adastream" / "__init__.py"
    if not package.is_file():
        print(f"error: {package} not found; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2

    # A closed loop of one operation at a time: no BLAS worker threads, and
    # the package's labeling runs serially.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("ADASTREAM_THREADS", None)
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

    from adabench.runner import run
    return run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)


if __name__ == "__main__":
    sys.exit(main())
