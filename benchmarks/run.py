"""threshdet benchmark: checked CLI workloads, end to end and per layer.

Run from the root of a threshdet checkout:

    python3 benchmarks/run.py --workload chsh --seed 20140731 \
        --seconds 28 --trace 0

``--trace 0`` prints the end-to-end metrics (wall_s, realizations_per_s,
setup_s, peak_rss_mb); ``--trace 1`` prints the per-layer metrics of a
separate traced run.  Lines before the last are the environment and
human-readable detail; the last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

The program is imported from ``src/`` of the checkout; without it the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED,
                        help="passed to every operation's --seed")
    parser.add_argument("--seconds", type=float, default=28.0,
                        help="how long the repeated passes run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be in [0, 2^64)")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "threshdet" / "cli.py").is_file():
        sys.stderr.write(f"benchmarks/run.py: no threshdet sources under "
                         f"{SRC}; run it from a threshdet checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    import harness

    workload = workloads.build(args.workload)
    print(json.dumps({"environment": harness.environment(),
                      "workload": workload.name, "seed": args.seed,
                      "workers": workload.workers,
                      "realizations": workload.realizations}), flush=True)
    tally = harness.Tally()
    workdir = Path(tempfile.mkdtemp(prefix=".bench-", dir=ROOT))
    try:
        if args.trace:
            metrics, detail = harness.per_layer(workload, args.seed,
                                                args.seconds, workdir, SRC,
                                                tally)
        else:
            metrics, samples = harness.end_to_end(workload, args.seed,
                                                  args.seconds, workdir, SRC,
                                                  tally)
            detail = [f"{name}: {how}" for name, how in samples.items()]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in detail:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(f"ops_failed_frac = {tally.failed}/{tally.attempted}")
    for note in tally.notes:
        sys.stderr.write(f"FAILED: {note}\n")
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
