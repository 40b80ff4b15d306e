"""Empirical detection-probability estimators and the analytic Gaussian oracle.

The Monte Carlo estimator tallies single-detection frequencies over noise
chunks addressed by (seed, stream, chunk), so results are independent of
worker count.  The analytic side takes per-component crossing
probabilities under independent Gaussian noise from the Marcum Q-function,
summed as positive Poisson series with ``math``'s exp and log, so that it
prints the same bits on any CPU.
"""

from __future__ import annotations

import functools
import itertools
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import detection, noise
from .linalg import Measurement
from .noise import CHUNK, NoiseModel


@dataclass(frozen=True, eq=False)
class DetectionStats:
    """Shifted-code histogram of one measurement (see ``detection``): cell 0
    counts multiple detections, cell 1 none, cell 2 + n single detections of
    group n.  ``values``, a ``Measurement.values``, weights ``mean``."""

    hist: np.ndarray
    values: np.ndarray | None = None

    @property
    def counts(self) -> np.ndarray:
        return self.hist[2:]

    @property
    def no_detection(self) -> int:
        return int(self.hist[1])

    @property
    def multiple_detections(self) -> int:
        return int(self.hist[0])

    @property
    def trials(self) -> int:
        return int(self.hist.sum())

    @property
    def n_detected(self) -> int:
        return int(self.counts.sum())

    @property
    def p_hat(self) -> np.ndarray:
        """Frequencies conditioned on a single detection; NaN without one."""
        return self.counts / (self.n_detected or np.nan)

    @property
    def stderr(self) -> np.ndarray:
        return np.sqrt(self.p_hat * (1.0 - self.p_hat) / self.n_detected)

    @property
    def detection_fraction(self) -> float:
        return self.n_detected / self.trials

    @property
    def P_hat(self) -> np.ndarray:
        """Unconditional single-detection frequencies P_n."""
        return self.counts / self.trials

    @property
    def P0_hat(self) -> float:
        return self.no_detection / self.trials

    @property
    def Pinf_hat(self) -> float:
        return self.multiple_detections / self.trials

    @property
    def mean(self) -> float:
        """Value-weighted conditional mean (requires values)."""
        if self.values is None:
            raise ValueError("no values attached to these statistics")
        return float(np.dot(self.values, self.p_hat))

    @property
    def mean_stderr(self) -> float:
        """Upper bound 1/sqrt(n), not the standard error, of a +-1 mean."""
        return 1.0 / np.sqrt(self.n_detected) if self.n_detected else np.inf


# One thread pool per worker count, created on first use and kept for the
# life of the process, so repeated runs do not start threads again.  A pool
# per run instead added 3.5 MB to the chsh and magic-square benchmarks' peak
# RSS, as each run's new threads took new malloc arenas.  Since threads are
# kept, ``tally_chunks`` caps the worker count.
MAX_WORKERS = 64
_POOLS: dict[int, ThreadPoolExecutor] = {}
_POOLS_LOCK = threading.Lock()

# Amplitudes a chunk job realizes at once: 512 KiB of complex values, so a
# d=4 chunk is two blocks and a d=1 or d=2 chunk one.  Half of it saved chsh
# 4 MB more of peak RSS but cost 18% of its wall time: every block makes its
# own numpy calls, and the pool threads contend for the GIL between them.
BLOCK = 1 << 15


def _pool(workers: int) -> ThreadPoolExecutor:
    with _POOLS_LOCK:
        pool = _POOLS.get(workers)
        if pool is None:
            pool = _POOLS[workers] = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="threshdet-chunk")
        return pool


# Thread-count setters of OpenBLAS builds, tried in this order.
_OPENBLAS_SETTERS = ("scipy_openblas_set_num_threads64_",
                     "scipy_openblas_set_num_threads",
                     "openblas_set_num_threads64_", "openblas_set_num_threads")
_BLAS_LOCK = threading.Lock()
_blas_single_threaded = False


def _loaded_openblas() -> list[str]:
    """Paths of the OpenBLAS shared objects mapped into this process."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split(maxsplit=5)[-1].strip() for line in maps}
    except OSError:  # no /proc: not Linux
        return []
    return sorted(p for p in paths if "openblas" in p.rsplit("/", 1)[-1])


def _single_thread_blas() -> None:
    """Run every loaded OpenBLAS on one thread, once per process.

    The chunk pool is threshdet's only parallelism.  Every BLAS call it makes
    has at most 4 columns, too little work for BLAS threads to pay for
    themselves, yet OpenBLAS starts them and they compete with the chunk
    threads for the cores.  Found through the memory maps, so it works however
    early numpy was imported; without OpenBLAS, or off Linux, it does nothing.
    """
    global _blas_single_threaded
    with _BLAS_LOCK:
        if _blas_single_threaded:
            return
        _blas_single_threaded = True
        import ctypes  # deferred: only Monte Carlo runs need it

        for path in _loaded_openblas():
            try:
                lib = ctypes.CDLL(path)
            except OSError:  # a mapping whose file is gone
                continue
            name = next((n for n in _OPENBLAS_SETTERS if hasattr(lib, n)), "")
            if name:
                setter = getattr(lib, name)
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)


# glibc mallopt parameters and the values set for them: the largest values
# glibc's own adaptive rule raises them to on 64-bit systems.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 2 * _MMAP_THRESHOLD


@functools.cache
def _reuse_freed_memory() -> None:
    """Keep freed chunk temporaries in the heap, once per process.

    Every chunk allocates and frees arrays of up to 1 MiB.  Under glibc's
    starting thresholds such an array is a fresh mmap, or the heap top it was
    freed into is returned to the kernel, so the next chunk faults in zeroed
    pages again.  A warm two-worker ``chsh-joint --trials 262144`` run took
    18 000 to 44 000 page faults, 300 to 700 per 16 384-row chunk and about
    a fifth of its time, against 16 with these settings.  Without
    ``mallopt`` (not glibc) nothing is set.
    """
    import ctypes  # deferred: only Monte Carlo runs need it

    try:
        libc = ctypes.CDLL(None)
    except (OSError, TypeError):  # no dlopen(NULL): not a POSIX system
        return
    mallopt = getattr(libc, "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def map_chunks(fn, jobs, workers: int = 1) -> list:
    """Apply a chunk worker to all jobs, optionally on a shared thread pool.

    The chunk kernel spends its time in numpy's random fills, ufuncs and
    BLAS calls, which release the GIL, so chunks run concurrently on threads;
    BLAS itself runs single-threaded (see ``_single_thread_blas``), and
    freed memory stays in the heap (see ``_reuse_freed_memory``).
    Results come back in job order.  ``tally_chunks`` maps every job of a
    run in one call; its jobs return nothing and add their integer histograms
    into their tally's total, so its result is the same for any worker count.
    Each job holds at most ``BLOCK`` amplitudes and their derived arrays at a
    time, so the pool's working set is about ``workers`` such blocks.
    """
    _single_thread_blas()
    _reuse_freed_memory()
    jobs = list(jobs)
    if workers <= 1 or len(jobs) <= 1:
        return [fn(job) for job in jobs]
    return list(_pool(workers).map(fn, jobs))


def tally_chunks(tallies, gamma: float, workers: int = 1) -> list[np.ndarray]:
    """Per tally ``(ensembles, measurements)``, in order, the joint histogram
    of the measurements' shifted codes (see ``detection``), from one pool map.

    An ensemble is ``(alpha, s, model, seed, stream, trials)``.  Its trials
    are cut into chunks of ``CHUNK``, one pool job each.  Every ensemble's
    signal, seed and dimension, and ``workers`` (at most ``MAX_WORKERS``),
    are checked once, before any job runs.  A job takes its chunk's
    generator, ``noise.chunk_rng``, and realizes the chunk from it in
    consecutive blocks of at most ``BLOCK`` amplitudes, which join into the
    chunk's one-block draw bit for bit.  It detects every measurement of its
    tally on each block, folds each row's cell into one array for the chunk
    and bincounts it once.  By tracemalloc, a job peaks at about 1 MB for a
    Gaussian d=2 chunk and under 2 MB for a magic-square chunk (six
    contexts).  Cell (x_1, ..., x_K) counts the trials of all the tally's
    ensembles where measurement k gave shifted code x_k, so the shape is
    (G_1 + 2, ..., G_K + 2) for measurements of G_k groups.
    """
    tallies = [(list(ensembles), tuple(measurements))
               for ensembles, measurements in tallies]
    detection.check_gamma(gamma)
    if workers > MAX_WORKERS:
        raise ValueError(f"workers must be <= {MAX_WORKERS}")
    if not tallies:
        raise ValueError("no tally to make")
    for ensembles, measurements in tallies:
        if not measurements:
            raise ValueError("every tally needs at least 1 measurement")
        if not ensembles or min(trials for *_, trials in ensembles) < 1:
            raise ValueError("every ensemble needs at least 1 trial")
        for i, (alpha, s, model, seed, *rest) in enumerate(ensembles):
            sa = noise.signal(alpha, s)
            if sa.shape[0] != model.dim:
                raise noise.InvalidModel("state dimension does not match "
                                         "noise model")
            for m in measurements:
                if m.dim != model.dim:
                    raise ValueError(f"measurement of dimension {m.dim} on a "
                                     f"noise model of dimension {model.dim}")
            # The copied list now holds the checked signal in place of alpha.
            ensembles[i] = (sa, model, noise.check_seed(seed), *rest)
    totals = [np.zeros([len(m.groups) + 2 for m in measurements], np.int64)
              for _, measurements in tallies]
    lock = threading.Lock()
    jobs = [(t, i, chunk, min(CHUNK, trials - chunk * CHUNK))
            for t, (ensembles, _) in enumerate(tallies)
            for i, (*_, trials) in enumerate(ensembles)
            for chunk in range(-(-trials // CHUNK))]

    def run(job):
        t, i, chunk, rows = job
        (ensembles, measurements), total = tallies[t], totals[t]
        sa, model, seed, stream, _ = ensembles[i]
        rng = noise.chunk_rng(seed, stream, chunk)
        step = max(1, BLOCK // model.dim)
        cells = []
        for start in range(0, rows, step):
            a = noise.realize_block(sa, model, rng, min(step, rows - start))
            # Each row's row-major cell by Horner's rule, in place, so only
            # the block's cells and one measurement's codes are alive.
            cell = detection.detect_observable_block(a, measurements[0], gamma)
            for m, n in zip(measurements[1:], total.shape[1:]):
                cell *= n
                cell += detection.detect_observable_block(a, m, gamma)
            cells.append(cell)
            del a  # before the next block is drawn
        cell = cells[0] if len(cells) == 1 else np.concatenate(cells)
        # Adding the row-major place of cell (2, ..., 2) shifts each code by 2.
        cell += int(np.ravel_multi_index((2,) * total.ndim, total.shape))
        hist = np.bincount(cell, minlength=total.size).reshape(total.shape)
        with lock:  # integer sums: the same total in any order
            np.add(total, hist, out=total)

    map_chunks(run, jobs, workers)
    return totals


def estimate(alpha, s: float, model: NoiseModel, gamma: float, trials: int,
             seed: int, *, measurement: Measurement | None = None,
             stream: int = 0, workers: int = 1) -> DetectionStats:
    """Monte Carlo detection statistics of one measurement, by default the
    standard basis of ``model.dim``; its values, if any, weight the mean."""
    m = Measurement(np.eye(model.dim)) if measurement is None else measurement
    [hist] = tally_chunks([([(alpha, s, model, seed, stream, trials)], (m,))],
                          gamma, workers)
    return DetectionStats(hist, m.values)


# Poisson terms below e**_LOG_TINY underflow; Q1 refuses a or b past 1196.41.
_LOG_TINY = math.log(math.ulp(0.0))
_MAX_TERMS = 1 << 16


def _tail(ks, step) -> list[float]:
    """exp of the running sums of ``step(k)`` over ``ks``, up to the first
    that underflows to 0: the sums fall, so every later one would too."""
    terms, x = [], 0.0
    for k in ks:
        x += step(k)
        w = math.exp(x)
        if w == 0.0:
            break
        terms.append(w)
    return terms


def _poisson_weights(lam: float) -> tuple[int, np.ndarray]:
    """``(lo, w)``: P(X = k), X ~ Poisson(lam), for k = lo, lo + 1, ... up
    to a common factor, every term that does not underflow: sums of
    log(lam / k) out from the mode, so no log is a difference."""
    if lam < 1e-300:  # P(X > 0) < 1e-300, and lam / k could underflow
        return 0, np.ones(1)
    mode = int(lam)
    up = _tail(itertools.count(mode + 1), lambda k: math.log(lam / k))
    down = _tail(range(mode, 0, -1), lambda k: math.log(k / lam))
    return mode - len(down), np.array([*down[::-1], 1.0, *up])


def _marcum(a: float, b: float) -> tuple[float, float]:
    """``(Q, F)``: Q1(a, b) and 1 - Q1(a, b), each a sum of positive terms.

    For independent M ~ Poisson(a²/2) and N ~ Poisson(b²/2), Q1(a, b) =
    P(N <= M) (Shnidman, IEEE Trans. Inf. Theory 35(2), 1989; Gil, Segura &
    Temme, ACM TOMS 40(3), 2014): Q sums P(M = k) P(N <= k), F sums P(M = k)
    P(N > k), over the terms of M and N that do not underflow.  log P(X =
    lam + t) < -t²/(2(lam + t/3)) and log P(X = lam - t) < -t²/(2 lam) bound
    each window before any term is taken: disjoint ones give (1, 0) or
    (0, 1), and one past _MAX_TERMS terms is refused."""
    t, lams = -_LOG_TINY, (a * a / 2.0, b * b / 2.0)
    (lo_m, hi_m), (lo_n, hi_n) = spans = [
        (x - math.sqrt(2.0 * t * x),
         x + t / 3.0 + math.sqrt(t * t / 9.0 + 2.0 * t * x)) for x in lams]
    if not all(hi - lo < _MAX_TERMS for lo, hi in spans):  # nan at inf
        raise ValueError(f"Marcum Q1 is not computable at a={a}, b={b}: "
                         f"its Poisson sums pass {_MAX_TERMS} terms")
    if hi_n < lo_m or hi_m < lo_n:
        return (1.0, 0.0) if hi_n < lo_m else (0.0, 1.0)
    (lo_m, m), (lo_n, n) = map(_poisson_weights, lams)
    # N's weights at k = lo_m ... of M's window: P(N <= k) sums them up from
    # N's lowest term, P(N > k) down from its highest, so neither is a
    # difference.  Zeros pad N's window to cover M's.
    lo, hi = min(lo_m, lo_n), max(lo_m + len(m), lo_n + len(n))
    n = np.pad(n, (lo_n - lo, hi - lo_n - len(n)))
    at_most = np.cumsum(n)  # P(N <= k), up to the factor of the weights
    above = np.append(np.cumsum(n[::-1])[-2::-1], 0.0)  # P(N > k), likewise
    window = slice(lo_m - lo, lo_m - lo + len(m))
    q, f = (math.fsum((m * c[window]).tolist()) for c in (at_most, above))
    return q / (q + f), f / (q + f)


def marcum_q1(a, b):
    """Marcum Q-function Q1(a, b), the tail of a noncentral chi-squared
    distribution with 2 degrees of freedom and noncentrality a² at b²: the Q
    of ``_marcum``, within about 3e-13 relative in both tails until it
    underflows.  ``a`` and ``b`` broadcast; scalars give a float."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("arguments must be finite")
    if (a < 0).any() or (b < 0).any():
        raise ValueError("arguments must be non-negative")
    q = np.frompyfunc(lambda x, y: _marcum(float(x), float(y))[0], 2, 1)(a, b)
    return float(q) if np.ndim(q) == 0 else q.astype(float)


def detection_probs(alpha, s: float, sigma: float, gamma: float) -> np.ndarray:
    """Analytic standard-basis cells for independent Gaussian noise, in
    ``DetectionStats.hist`` order: P_inf, P_0, then P_1 ... P_N.

    Each real quadrature of a_i has variance sigma²/2, so component i
    crosses gamma with probability Q_i = Q1(sqrt(2)·|s·alpha_i|/sigma,
    sqrt(2)·gamma/sigma) and stays below with F_i, both from ``_marcum``.
    Then P_n = Q_n * prod_{i != n} F_i, and the Poisson-binomial recurrence
    gives P(exactly k cross): P_0 at k = 0, P_inf summed over k >= 2.  No
    cell is a difference.  Measuring through U is measuring U†alpha: U†w is
    again i.i.d. Gaussian.
    """
    sa = noise.signal(alpha, s)
    if not 0 < sigma < np.inf:
        raise ValueError("sigma must be positive")
    detection.check_gamma(gamma)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        x, y = sa.real / sigma, sa.imag / sigma
        a, b = np.sqrt(2.0 * (x * x + y * y)), np.sqrt(2.0) * gamma / sigma
    if not (np.isfinite(a).all() and np.isfinite(b)):
        raise ValueError(f"sigma={sigma} is too small for the analytic "
                         "oracle: s/sigma or gamma/sigma overflows")
    q, f = zip(*(_marcum(ai, float(b)) for ai in a.tolist()))
    exactly = np.ones(1)  # exactly[k]: k of the components so far cross
    for fi, qi in zip(f, q):
        exactly = np.append(exactly, 0.0) * fi + np.append(0.0, exactly) * qi
    single = [qn * math.prod(f[:n] + f[n + 1:]) for n, qn in enumerate(q)]
    return np.array([math.fsum(exactly[2:].tolist()), exactly[0], *single])


def single_detection_probs(alpha, s: float, sigma: float,
                           gamma: float) -> np.ndarray:
    """The single-detection cells P_1 ... P_N of ``detection_probs``."""
    return detection_probs(alpha, s, sigma, gamma)[2:]
