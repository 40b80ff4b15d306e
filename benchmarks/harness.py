"""Runs a workload's checked CLI operations and turns the runs into metrics.

Load is closed-loop from this one process: one client runs the operations
of a workload back to back, in-process, through ``threshdet.cli.main``.
Every operation's output file is hashed; a pass whose digest for an
operation differs from the first pass's counts that operation as failed.
"""

from __future__ import annotations

import hashlib
import io
import os
import platform
import statistics
import subprocess
import sys
import threading
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

from threshdet import cli
from tracer import DEEP, SHALLOW, Tracer
from workloads import Workload, available_cpus, cli_argv

SETUP_REPEATS = 3
IMPORTTIME_REPEATS = 3
MIN_SEQUENCES = 3
MIN_ROUNDS = 2
RSS_POLL_S = 0.01

IMPORT_CODE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
               "t = time.perf_counter(); import threshdet.cli; "
               "print(time.perf_counter() - t)")

# Layers whose self time the traced run reports, by span label.
SELF_TIMED = (
    "noise.draw_noise_block", "noise.realize_block",
    "detection.detect_observable_block", "detection.detect_projective_block",
    "detection.group_magnitudes", "detection.detect_standard_block",
    "detection.crossing_codes",
    "probability.map_chunks", "probability.single_detection_probs",
    "experiments.run_chsh_joint", "experiments.run_chsh_local",
    "experiments.run_magic_square", "experiments.run_two_dim_examples",
    "tomography.infer_state",
    "output.render", "output.render_text", "cli.main",
)

# Counts that must repeat bit for bit across traced passes at one seed.
EXACT = (
    "noise.draw_noise_block.rows", "noise.realize_block.calls",
    "detection.crossing_codes.calls", "detection.crossing_codes.rows",
    "detection.single_fraction", "detection.multiple_fraction",
    "probability.estimate.calls", "probability.map_chunks.calls",
    "probability.map_chunks.jobs", "output.bytes",
)

# ROADMAP baseline for one 65 536-row sphere d=4 chunk of chsh-joint, in ms.
CHUNK_BASELINE_MS = {"noise": 24.7, "crossing_codes": 2.9, "chunk_total": 34.1}


@dataclass
class Pass:
    """One run of every operation of a workload."""

    wall_s: float
    digests: list
    errors: list


@dataclass
class Tally:
    """Operations attempted and failed, plus correctness failures that are
    not tied to one operation (exact counts that moved)."""

    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def add(self, run: Pass, reference: list, ops) -> None:
        for op, digest, expected, error in zip(ops, run.digests, reference,
                                               run.errors):
            self.attempted += 1
            if error:
                self.failed += 1
                self.notes.append(f"{op.label}: {error}")
            elif digest != expected:
                self.failed += 1
                self.notes.append(f"{op.label}: output digest differs from "
                                  "the first pass")

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.notes


def run_pass(workload: Workload, seed: int, workers: int, workdir: Path,
             tracer: Tracer | None = None) -> Pass:
    """Run each operation once; wall time sums the cli.main calls."""
    wall, digests, errors = 0.0, [], []
    for i, op in enumerate(workload.ops):
        path = workdir / f"op{i}.out"
        path.unlink(missing_ok=True)
        argv = cli_argv(op, seed, workers, path)
        if tracer is not None:
            tracer.op = op.label
        sink = io.StringIO()
        start = perf_counter()
        try:
            with redirect_stdout(sink), redirect_stderr(sink):
                code = cli.main(argv)
        except Exception:
            code = traceback.format_exc()
        wall += perf_counter() - start
        if code == 0 and path.is_file():
            digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
            errors.append(None)
        else:
            digests.append(None)
            errors.append(f"exit {code}: {sink.getvalue()[-400:]}")
    return Pass(wall, digests, errors)


# --- set-up ----------------------------------------------------------------

def import_seconds(src: Path) -> float:
    """Time for a fresh interpreter to import threshdet.cli."""
    done = subprocess.run([sys.executable, "-c", IMPORT_CODE, str(src)],
                          capture_output=True, text=True, check=True,
                          timeout=120)
    return float(done.stdout.strip().splitlines()[-1])


def parse_importtime(log: str) -> dict[str, float]:
    """setup.import.* seconds from one ``python -X importtime`` log.

    The log lists each module after the modules it imported, indented one
    step deeper, so a line's parent is the next line that is less indented.
    scipy.stats is charged with every subtree rooted at a scipy.stats module
    whose parent is not one; its own line may be missing when scipy loads it
    lazily.
    """
    rows = []  # (depth, name, self_us, cumulative_us)
    for line in log.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        self_part, cumulative, raw = line.split("|")
        rows.append((len(raw) - len(raw.lstrip()), raw.strip(),
                     int(self_part.split(":")[1]), int(cumulative)))

    def is_stats(name):
        return name == "scipy.stats" or name.startswith("scipy.stats.")

    stats_us = 0
    for i, (depth, name, _, cumulative) in enumerate(rows):
        parent = next((r[1] for r in rows[i + 1:] if r[0] < depth), "")
        if is_stats(name) and not is_stats(parent):
            stats_us += cumulative
    by_name = {name: (self_us, cumulative)
               for _, name, self_us, cumulative in rows}
    return {
        "setup.import.scipy.stats_s": stats_us / 1e6,
        "setup.import.threshdet_s": by_name["threshdet"][1] / 1e6,
        "setup.import.threshdet.experiments.self_s":
            by_name["threshdet.experiments"][0] / 1e6,
    }


def import_breakdown(src: Path) -> dict[str, float]:
    logs = [subprocess.run([sys.executable, "-X", "importtime", "-c",
                            IMPORT_CODE, str(src)], capture_output=True,
                           text=True, check=True, timeout=120).stderr
            for _ in range(IMPORTTIME_REPEATS)]
    parsed = [parse_importtime(log) for log in logs]
    return {key: statistics.median(p[key] for p in parsed)
            for key in parsed[0]}


# --- memory ----------------------------------------------------------------

def _status_kb(pid, key: str) -> int:
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except (FileNotFoundError, ProcessLookupError):
        return 0
    for line in text.splitlines():
        if line.startswith(key + ":"):
            return int(line.split()[1])
    return 0


def _child_pids() -> list[int]:
    me, pids = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except (FileNotFoundError, ProcessLookupError):
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            pids.append(int(entry))
    return pids


class PeakRss:
    """Peak resident memory (VmHWM) of this process plus the largest sum of
    the peaks of its child processes alive at one time, polled from /proc."""

    def __init__(self):
        self.children_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._poll, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        return False

    def _poll(self):
        while not self._stop.wait(RSS_POLL_S):
            total = sum(_status_kb(pid, "VmHWM") for pid in _child_pids())
            self.children_kb = max(self.children_kb, total)

    @property
    def peak_mb(self) -> float:
        return (_status_kb("self", "VmHWM") + self.children_kb) / 1024


# --- the two kinds of run --------------------------------------------------

def end_to_end(workload: Workload, seed: int, seconds: float, workdir: Path,
               src: Path, tally: Tally) -> tuple[dict, dict]:
    """Untraced: set-up time, then one warm-up pass, then passes for
    ``seconds``.  Returns metrics and how each was sampled."""
    setup = [import_seconds(src) for _ in range(SETUP_REPEATS)]
    with PeakRss() as rss:
        warm = run_pass(workload, seed, workload.workers, workdir)
    tally.add(warm, warm.digests, workload.ops)
    walls = []
    start = perf_counter()
    while len(walls) < MIN_SEQUENCES or perf_counter() - start < seconds:
        run = run_pass(workload, seed, workload.workers, workdir)
        tally.add(run, warm.digests, workload.ops)
        walls.append(run.wall_s)
    wall = statistics.median(walls)
    metrics = {
        "wall_s": (wall, "s"),
        "realizations_per_s": (workload.realizations / wall, "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss.peak_mb, "MB"),
    }
    quartiles = ", ".join(f"{q:.4f}" for q in statistics.quantiles(walls, n=4))
    samples = {"wall_s": f"median of {len(walls)} passes (quartiles "
                         f"{quartiles} s, range {min(walls):.4f}-"
                         f"{max(walls):.4f} s)",
               "realizations_per_s": "realizations over wall_s",
               "setup_s": f"median of {len(setup)} interpreters",
               "peak_rss_mb": "peak over the warm-up pass"}
    return metrics, samples


def pool_counts(tracer: Tracer) -> dict[str, int]:
    """Calls into the pool layer, which every tracer in this module sees."""
    summary = tracer.summary()
    return {
        "probability.estimate.calls":
            summary.get("probability.estimate", {}).get("calls", 0),
        "probability.map_chunks.calls":
            summary.get("probability.map_chunks", {}).get("calls", 0),
        "probability.map_chunks.jobs":
            tracer.counts["probability.map_chunks.jobs"],
    }


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one deep traced pass."""
    summary = tracer.summary()

    def get(label, key):
        return summary.get(label, {}).get(key, 0)

    counts = tracer.counts
    rows = counts["noise.draw_noise_block.rows"]
    classified = counts["detection.crossing_codes.rows"]
    out = {f"{label}.self_s": (get(label, "self_ns") / 1e9, "s")
           for label in SELF_TIMED}
    out.update({
        "noise.draw_noise_block.rows": (rows, "count"),
        "noise.draw_noise_block.ns_per_row":
            (get("noise.draw_noise_block", "self_ns") / rows, "ns"),
        "noise.realize_block.calls": (get("noise.realize_block", "calls"),
                                      "count"),
        "detection.crossing_codes.calls":
            (get("detection.crossing_codes", "calls"), "count"),
        "detection.crossing_codes.rows": (classified, "count"),
        "detection.single_fraction":
            (counts["detection.single"] / classified, "ratio"),
        "detection.multiple_fraction":
            (counts["detection.multiple"] / classified, "ratio"),
        "output.bytes": (counts["output.bytes"], "bytes"),
    })
    out.update({name: (n, "count")
                for name, n in pool_counts(tracer).items()})
    return out


def chunk_stages_ms(tracer: Tracer, op: str) -> dict[str, float] | None:
    """Per-chunk stage times of one operation's traced spans, in ms."""
    summary = tracer.summary(op)
    if "noise.draw_noise_block" not in summary:
        return None
    chunks = summary["noise.draw_noise_block"]["calls"]  # one draw per chunk

    def per_chunk_ms(label, key="self_ns"):
        return summary[label][key] / chunks / 1e6

    return {"noise": per_chunk_ms("noise.draw_noise_block"),
            "crossing_codes": per_chunk_ms("detection.crossing_codes"),
            "chunk_total": per_chunk_ms("probability.map_chunks", "total_ns")}


def per_layer(workload: Workload, seed: int, seconds: float, workdir: Path,
              src: Path, tally: Tally) -> tuple[dict, list[str]]:
    """Traced: after a warm-up pass, rounds for ``seconds`` (at least two).
    A round is an untraced pass at the workload's worker count, an untraced
    serial pass, and a deep traced serial pass; the untraced passes wrap
    only the pool boundary.  Returns metrics and lines of detail."""
    ops, workers = workload.ops, workload.workers
    metrics = {k: (v, "s") for k, v in import_breakdown(src).items()}

    def shallow(n_workers):
        with Tracer(SHALLOW) as tracer:
            run = run_pass(workload, seed, n_workers, workdir, tracer)
        return run, tracer

    warm, _ = shallow(workers)
    tally.add(warm, warm.digests, ops)
    passes, deep_walls, stages, untraced_pool = [], [], [], []
    walls = {workers: [], 1: []}    # one key when the workload is serial
    map_ns = {workers: [], 1: []}
    start = perf_counter()
    while len(passes) < MIN_ROUNDS or perf_counter() - start < seconds:
        for n_workers in walls:
            run, tracer = shallow(n_workers)
            tally.add(run, warm.digests, ops)
            walls[n_workers].append(run.wall_s)
            map_ns[n_workers].append(
                tracer.summary()["probability.map_chunks"]["total_ns"])
            untraced_pool.append(pool_counts(tracer))
        with Tracer(DEEP) as tracer:
            run = run_pass(workload, seed, 1, workdir, tracer)
        tally.add(run, warm.digests, ops)
        passes.append(layer_metrics(tracer))
        deep_walls.append(run.wall_s)
        stages.append(chunk_stages_ms(tracer, "chsh-joint"))

    for name in EXACT:
        values = {p[name][0] for p in passes}
        if len(values) > 1:
            tally.notes.append(f"{name} moved across traced passes: "
                               f"{sorted(values)}")
    first = passes[0]
    traced_pool = {name: first[name][0] for name in untraced_pool[0]}
    for counts in untraced_pool:
        if counts != traced_pool:
            tally.notes.append(f"pool counts {counts} untraced vs "
                               f"{traced_pool} traced")
    if first["noise.draw_noise_block.rows"][0] != workload.realizations:
        tally.notes.append(
            f"drew {first['noise.draw_noise_block.rows'][0]} rows for "
            f"{workload.realizations} realizations")

    for name, (_, unit) in first.items():
        value = (first[name][0] if name in EXACT else
                 statistics.median(p[name][0] for p in passes))
        metrics[name] = (value, unit)
    median = statistics.median
    metrics["probability.map_chunks.parallel_efficiency"] = (
        median(map_ns[1]) / (workers * median(map_ns[workers])), "ratio")
    metrics["trace.overhead_frac"] = (
        median(deep_walls) / median(walls[1]) - 1.0, "ratio")

    detail = [f"rounds: {len(passes)}; median untraced pass "
              f"{median(walls[workers]):.4f} s at {workers} worker(s), "
              f"{median(walls[1]):.4f} s serial; median traced pass "
              f"{median(deep_walls):.4f} s"]
    if stages[0] is not None:
        line = ", ".join(
            f"{k} {median(s[k] for s in stages):.2f} ms "
            f"(baseline {v} ms)" for k, v in CHUNK_BASELINE_MS.items())
        detail.append(f"chsh-joint per 65536-row chunk, traced: {line}")
    return metrics, detail


def environment() -> dict:
    cpu = platform.processor()
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "cpus_available": available_cpus(),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}
