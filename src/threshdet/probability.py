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
import operator
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
    group n.  ``values``, a ``Measurement.values``, weights ``mean``.  The
    cells of an exact record are probabilities (see ``exact_hists``), so its
    counts are floats where a Monte Carlo record's are ints."""

    hist: np.ndarray
    values: np.ndarray | None = None

    @property
    def counts(self) -> np.ndarray:
        return self.hist[2:]

    @property
    def no_detection(self) -> int | float:
        return self.hist[1].item()

    @property
    def multiple_detections(self) -> int | float:
        return self.hist[0].item()

    @property
    def trials(self) -> int | float:
        return self.hist.sum().item()

    @property
    def n_detected(self) -> int | float:
        return self.counts.sum().item()

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


# Amplitudes a chunk job realizes at once: 512 KiB of complex values, so a
# d=4 chunk is two blocks and a d=1 or d=2 chunk one.  Half of it saved chsh
# 4 MB more of peak RSS but cost 18% of its wall time: every block makes its
# own numpy calls, and the pool threads contend for the GIL between them.
BLOCK = 1 << 15

# A map of W workers is the calling thread and W - 1 helpers from the one
# pool below.  The pool starts a thread only when a map submits more helpers
# than it has idle ones, and keeps it for the life of the process, so later
# maps of any worker count reuse it: a pool per run instead added 3.5 MB to
# the chsh and magic-square benchmarks' peak RSS, as each run's new threads
# took new malloc arenas.  So the pool holds about as many threads as maps
# ever used at once, and never more than MAX_WORKERS - 1.  (A helper counts
# as idle just after its result is in, so a map that starts in that moment
# can, rarely, start one more.)  Since threads are kept, ``map_chunks`` caps
# the worker count.
MAX_WORKERS = 64
_HELPERS = ThreadPoolExecutor(max_workers=MAX_WORKERS - 1,
                              thread_name_prefix="threshdet-chunk")


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
    """Apply a chunk worker to all jobs on ``workers`` threads, the calling
    thread and ``workers - 1`` helpers from the shared pool ``_HELPERS``.

    ``workers``, an integer from 1 to ``MAX_WORKERS``, is checked before
    anything runs.  The chunk kernel spends its time in numpy's random
    fills, ufuncs and BLAS calls, which release the GIL, so chunks run
    concurrently on threads; BLAS itself runs single-threaded (see
    ``_single_thread_blas``), and freed memory stays in the heap (see
    ``_reuse_freed_memory``).  Each worker takes the next job index from
    one counter until none is left, so the calling thread works instead of
    waiting, the map grows one malloc arena fewer, and a map of one worker
    or one job starts no thread.  Results come back in job order.  After a
    job raises, no job starts; the error is raised once every helper has
    stopped.  ``tally_chunks`` maps every job of a run in one call; its
    jobs return nothing and add their integer histograms into their tally's
    total, so its result is the same for any worker count.  Each job holds
    at most ``BLOCK`` amplitudes and their derived arrays at a time, so the
    working set is about ``workers`` such blocks.
    """
    workers = operator.index(workers)
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if workers > MAX_WORKERS:
        raise ValueError(f"workers must be <= {MAX_WORKERS}")
    _single_thread_blas()
    _reuse_freed_memory()
    jobs = list(jobs)
    results = [None] * len(jobs)
    errors = []
    lock = threading.Lock()
    taken = 0  # jobs handed out; all of them once a job raises

    def work():
        nonlocal taken
        while True:
            with lock:
                i = taken
                if i == len(jobs):
                    return
                taken += 1
            try:
                results[i] = fn(jobs[i])
            except BaseException as error:
                with lock:
                    errors.append(error)
                    taken = len(jobs)
                return

    helpers = min(workers, len(jobs)) - 1
    futures = [_HELPERS.submit(work) for _ in range(helpers)]
    work()
    # Even a helper that starts after the last job is waited for: one left
    # queued would not count as idle, and the next map would start a thread.
    for future in futures:
        future.result()
    if errors:
        raise errors[0]
    return results


def _checked_tallies(tallies, gamma: float) -> list:
    """Check gamma and a tally list in ``tally_chunks``'s format, as both it
    and ``exact_hists`` do first, and return the list copied as ``(list of
    ensembles, tuple of measurements)`` pairs, each ensemble ``(alpha, s,
    model, stream)`` with its checked signal s·alpha appended."""
    detection.check_gamma(gamma)
    tallies = [(list(ensembles), tuple(measurements))
               for ensembles, measurements in tallies]
    if not tallies:
        raise ValueError("no tally to make")
    for ensembles, measurements in tallies:
        if not measurements:
            raise ValueError("every tally needs at least 1 measurement")
        if not ensembles:
            raise ValueError("every tally needs at least 1 ensemble")
        for i, (alpha, s, model, stream) in enumerate(ensembles):
            sa = noise.signal(alpha, s)
            if sa.shape[0] != model.dim:
                raise noise.InvalidModel("state dimension does not match "
                                         "noise model")
            for m in measurements:
                if m.dim != model.dim:
                    raise ValueError(f"measurement of dimension {m.dim} on a "
                                     f"noise model of dimension {model.dim}")
            ensembles[i] = (alpha, s, model, stream, sa)
    return tallies


def tally_chunks(tallies, gamma: float, seed: int, trials: int,
                 workers: int = 1) -> list[np.ndarray]:
    """Per tally ``(ensembles, measurements)``, in order, the joint histogram
    of the measurements' shifted codes (see ``detection``), from one pool map.

    An ensemble is ``(alpha, s, model, stream)``, sampled at the call's
    ``seed`` for ``trials`` trials, cut into chunks of ``CHUNK``, one pool
    job each.  The tally list (as ``exact_hists`` checks it), the seed and
    the trial count are checked once, and ``workers`` by ``map_chunks``,
    before any job runs.  A job takes its chunk's generator,
    ``noise.chunk_rng``, and realizes the chunk from it in consecutive
    blocks of at most ``BLOCK`` amplitudes, which join into the chunk's
    one-block draw bit for bit.  It detects every measurement of its
    tally on each block, folds each row's cell into one array for the chunk
    and bincounts it once.  By tracemalloc, a job peaks at about 1 MB for a
    Gaussian d=2 chunk and under 2 MB for a magic-square chunk (six
    contexts).  Cell (x_1, ..., x_K) counts the trials of all the tally's
    ensembles where measurement k gave shifted code x_k, so the shape is
    (G_1 + 2, ..., G_K + 2) for measurements of G_k groups.
    """
    tallies = _checked_tallies(tallies, gamma)
    seed = noise.check_seed(seed)
    trials = operator.index(trials)
    if trials < 1:
        raise ValueError("trials must be at least 1")
    totals = [np.zeros([len(m.groups) + 2 for m in measurements], np.int64)
              for _, measurements in tallies]
    lock = threading.Lock()
    jobs = [(t, i, chunk, min(CHUNK, trials - chunk * CHUNK))
            for t, (ensembles, _) in enumerate(tallies)
            for i in range(len(ensembles))
            for chunk in range(-(-trials // CHUNK))]

    def run(job):
        t, i, chunk, rows = job
        (ensembles, measurements), total = tallies[t], totals[t]
        _, _, model, stream, sa = ensembles[i]
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
    return record(alpha, s, model, gamma, functools.partial(
        tally_chunks, seed=seed, trials=trials, workers=workers),
        measurement, stream)


def record(alpha, s: float, model: NoiseModel, gamma: float, hists_of,
           measurement: Measurement | None = None,
           stream: int = 0) -> DetectionStats:
    """``estimate``'s record over ``hists_of(tallies, gamma)``, either
    ``tally_chunks`` at a seed and trial count or ``exact_hists``."""
    m = Measurement(np.eye(model.dim)) if measurement is None else measurement
    [hist] = hists_of([([(alpha, s, model, stream)], (m,))], gamma)
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
    cell is a difference.
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


class NoExactLaw(ValueError):
    """No exact law is known for the cells of a tally."""


def exact_hists(tallies, gamma: float) -> list[np.ndarray]:
    """Per tally of ``tally_chunks``'s format, checked as it checks one, the
    probabilities of its histogram's cells in the same shape and order; the
    stream does not enter.  A law is known so far for one ensemble and one
    measurement of singleton groups: ``detection_probs`` of U†alpha under
    Gaussian noise, as U†w is again i.i.d. Gaussian, and, as bounded noise
    has no exact law yet, the Born values |U†alpha|² that the model is
    claimed to give, as single detections.  Other tallies raise NoExactLaw."""
    hists = []
    for ensembles, (m, *more) in _checked_tallies(tallies, gamma):
        if more or len(ensembles) > 1 or not m.singletons:
            raise NoExactLaw("an exact law is known only for one ensemble "
                             "and one measurement of singleton groups")
        [(alpha, s, model, _, _)] = ensembles
        beta = np.asarray(alpha) @ np.conj(m.unitary)
        hists.append(detection_probs(beta, s, model.sigma, gamma)
                     if model.kind == noise.GAUSSIAN
                     else np.r_[0.0, 0.0, np.abs(beta) ** 2])
    return hists
