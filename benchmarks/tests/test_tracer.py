"""Tests of the benchmark's tracer and of its two kinds of run, at tiny sizes.

Run from the repository root:  python3 -m pytest benchmarks/tests
"""

import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path[:0] = [str(BENCH), str(SRC)]

import harness  # noqa: E402
import workloads  # noqa: E402
from tracer import DEEP, Tracer  # noqa: E402

SEED = workloads.DEFAULT_SEED
# Large enough that the oracle check holds in its gamma = 4 cell.
TINY = {
    "chsh": {"trials": 1 << 16},
    "magic-square": {"states": 2, "trials": 1 << 14},
    "qubit": {"mc_trials": 1 << 18, "trials": 1 << 16},
}
LISTED = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name):
    return workloads.build(name, TINY[name])


def wrapped_targets():
    return [getattr(module, name) for module, name, _ in DEEP]


def test_wrapped_functions_are_restored(tmp_path):
    originals = wrapped_targets()
    with Tracer() as tracer:
        assert all(now is not before
                   for now, before in zip(wrapped_targets(), originals))
        harness.run_pass(tiny("qubit"), SEED, 1, tmp_path, tracer)
    assert all(now is before
               for now, before in zip(wrapped_targets(), originals))
    with pytest.raises(RuntimeError), Tracer():
        raise RuntimeError("traced code failed")
    assert all(now is before
               for now, before in zip(wrapped_targets(), originals))


@pytest.mark.parametrize("name", workloads.NAMES)
def test_self_times_add_up_to_root_spans(name, tmp_path):
    workload = tiny(name)
    with Tracer() as tracer:
        run = harness.run_pass(workload, SEED, 1, tmp_path, tracer)
    assert not any(run.errors), run.errors
    summary = tracer.summary()
    assert summary["cli.main"]["calls"] == len(workload.ops)
    root = tracer.root_ns()
    total_self = sum(entry["self_ns"] for entry in summary.values())
    # Stated tolerance: one part per million of the root spans' duration.
    assert root > 0
    assert abs(total_self - root) <= 1e-6 * root


@pytest.mark.parametrize("name", workloads.NAMES)
def test_traced_run_reports_every_listed_metric(name, tmp_path):
    workload = tiny(name)
    tally = harness.Tally()
    metrics, _ = harness.per_layer(workload, SEED, 0.01, tmp_path, SRC, tally)
    # Digests agree across worker counts and exact counts repeat.
    assert tally.correct, tally.notes
    assert tally.attempted >= 4 * len(workload.ops)
    assert sorted(metrics) == sorted(m["name"] for m in LISTED["per_layer"])
    assert metrics["noise.draw_noise_block.rows"][0] == workload.realizations
    assert all(math.isfinite(value) for value, _ in metrics.values())


def test_tracing_overhead_is_reported_on_qubit(tmp_path):
    workload = tiny("qubit")
    assert workload.workers == 1
    tally = harness.Tally()
    metrics, detail = harness.per_layer(workload, SEED, 0.01, tmp_path, SRC,
                                        tally)
    # One worker: the pass at the workload's worker count is the serial one.
    assert metrics["probability.map_chunks.parallel_efficiency"][0] == 1.0
    assert -1.0 < metrics["trace.overhead_frac"][0] < 10.0
    assert detail[0].startswith("rounds: ")


def test_end_to_end_reports_every_listed_metric(tmp_path):
    tally = harness.Tally()
    metrics, samples = harness.end_to_end(tiny("qubit"), SEED, 0.01,
                                          tmp_path, SRC, tally)
    assert tally.correct, tally.notes
    assert samples["wall_s"].startswith("median of ")
    for spec in LISTED["end_to_end"]:
        value, unit = metrics[spec["name"]]
        assert unit == spec["unit"]
        assert value > 0


def test_importtime_breakdown_charges_scipy_stats_subtrees():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       200 |        200 |         scipy.ndimage",
        "import time:       100 |        300 |       scipy.stats._mgc",
        "import time:        40 |         40 |       scipy.special",
        "import time:        30 |         30 |         scipy.stats._sub",
        "import time:        20 |         50 |       scipy.stats._stats",
        "import time:        60 |        450 |     threshdet.probability",
        "import time:        15 |        465 |   threshdet.experiments",
        "import time:         5 |        470 | threshdet",
    ])
    assert harness.parse_importtime(log) == {
        "setup.import.scipy.stats_s": 350e-6,
        "setup.import.threshdet_s": 470e-6,
        "setup.import.threshdet.experiments.self_s": 15e-6,
    }
