"""Empirical detection-probability estimators and the analytic Gaussian oracle.

The Monte Carlo estimator tallies single-detection frequencies over noise
chunks addressed by (seed, stream, chunk), so results are independent of
worker count.  The analytic side expresses per-component crossing
probabilities for independent Gaussian noise through the Marcum Q-function
(equivalently the tail of a noncentral chi-squared distribution with two
degrees of freedom), evaluated by ``scipy.special``'s ``_ncx2_sf`` ufunc.
"""

from __future__ import annotations

import functools
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import detection, noise
from .linalg import Measurement
from .noise import CHUNK, NoiseModel


class DomainTooSmall(ValueError):
    """Closed-form Marcum Q bounds require b > a."""


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


def _chunk_ranges(trials: int):
    for ci in range((trials + CHUNK - 1) // CHUNK):
        start = ci * CHUNK
        yield start, min(CHUNK, trials - start)


# One thread pool per worker count, created on first use and kept for the
# life of the process, so repeated runs do not start threads again.
_POOLS: dict[int, ThreadPoolExecutor] = {}
_POOLS_LOCK = threading.Lock()


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
    are cut into chunks of ``CHUNK``, one pool job each.  A job realizes its
    chunk in one block, detects every measurement of its tally on it and
    bincounts each row's cell.  Cell (x_1, ..., x_K) counts the trials of
    all the tally's ensembles where measurement k gave shifted code x_k, so
    the shape is (G_1 + 2, ..., G_K + 2) for measurements of G_k groups.
    """
    tallies = [(list(ensembles), tuple(measurements))
               for ensembles, measurements in tallies]
    detection.check_gamma(gamma)
    if not tallies:
        raise ValueError("no tally to make")
    for ensembles, measurements in tallies:
        if not measurements:
            raise ValueError("every tally needs at least 1 measurement")
        if not ensembles or min(trials for *_, trials in ensembles) < 1:
            raise ValueError("every ensemble needs at least 1 trial")
        for _, _, model, *_ in ensembles:
            for m in measurements:
                if m.dim != model.dim:
                    raise ValueError(f"measurement of dimension {m.dim} on a "
                                     f"noise model of dimension {model.dim}")
    totals = [np.zeros([len(m.groups) + 2 for m in measurements], np.int64)
              for _, measurements in tallies]
    lock = threading.Lock()
    jobs = [(t, i, start, count) for t, (ensembles, _) in enumerate(tallies)
            for i, (*_, trials) in enumerate(ensembles)
            for start, count in _chunk_ranges(trials)]

    def run(job):
        t, i, start, count = job
        (ensembles, measurements), total = tallies[t], totals[t]
        alpha, s, model, seed, stream, _ = ensembles[i]
        a = noise.realize_block(alpha, s, model, seed, start, count, stream)
        # Each row's row-major cell by Horner's rule, in place, so only the
        # index and one measurement's codes are alive at a time.
        cell = detection.detect_observable_block(a, measurements[0], gamma)
        for m, n in zip(measurements[1:], total.shape[1:]):
            cell *= n
            cell += detection.detect_observable_block(a, m, gamma)
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


def marcum_q1(a, b):
    """Marcum Q-function Q1(a, b), the tail of a noncentral chi-squared
    distribution with 2 degrees of freedom and noncentrality a² at b².

    Evaluated by ``_ncx2_sf``, the private Boost ufunc of ``scipy.special``
    that scipy's ``ncx2.sf`` calls: the same bits, without importing scipy's
    statistics package, which costs most of a cold oracle run.  ``a`` and
    ``b`` broadcast against each other; scalars give a float.
    """
    # deferred: only the analytic oracle needs scipy
    from scipy.special._ufuncs import _ncx2_sf

    a, b = np.broadcast_arrays(np.asarray(a, dtype=float),
                               np.asarray(b, dtype=float))
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("arguments must be finite")
    if (a < 0).any() or (b < 0).any():
        raise ValueError("arguments must be non-negative")
    with np.errstate(over="ignore"):  # b² may overflow, as in ncx2._sf
        x = b * b
        q = _ncx2_sf(x, 2.0, a * a)
        # At b² = inf the ufunc gives nan, ncx2.sf 0.
        q = np.where(x == np.inf, 0.0, q)
        q = np.where(a == 0.0, np.exp(-0.5 * b * b), q)
    q = np.where(b == 0.0, 1.0, q)  # the ufunc gives -0.0
    bad = np.argwhere(np.isnan(q))
    if len(bad):  # the ufunc gives up, at a² past about 9.2e18
        i = tuple(bad[0])
        raise ValueError(f"Marcum Q1 is not computable at a={a[i]}, "
                         f"b={b[i]}")
    return float(q) if q.ndim == 0 else q


def detection_probs(alpha, s: float, sigma: float,
                    gamma: float) -> np.ndarray:
    """Analytic standard-basis cells for independent Gaussian noise, in
    ``DetectionStats.hist`` order: P_inf, P_0, then P_1 ... P_N.

    With E[z z†] = I each real quadrature of a_i has variance sigma²/2, so
    2|a_i/sigma|² is noncentral chi-squared with two degrees of freedom and
    noncentrality 2|s·alpha_i/sigma|².  Component i stays below gamma with
    probability F_i = 1 - Q1(sqrt(2)·|s·alpha_i|/sigma, sqrt(2)·gamma/sigma);
    the sqrt(2) rescaling makes the formula agree with the Monte Carlo
    estimator.  Independent components give P_0 = prod_i F_i and
    P_n = (1 - F_n) * prod_{i != n} F_i; P_inf is the rest, clipped at 0.
    Measuring through U is measuring U†alpha: U†w is again i.i.d. Gaussian.
    """
    sa = noise.signal(alpha, s)
    if not 0 < sigma < np.inf:
        raise ValueError("sigma must be positive")
    detection.check_gamma(gamma)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        lam = 2.0 * np.abs(sa / sigma) ** 2
        b = np.sqrt(2.0) * gamma / sigma
    if not (np.isfinite(lam).all() and np.isfinite(b)):
        raise ValueError(f"sigma={sigma} is too small for the analytic "
                         "oracle: s/sigma or gamma/sigma overflows")
    f = 1.0 - marcum_q1(np.sqrt(lam), b)
    cells = np.empty(f.shape[0] + 2)
    for n in range(f.shape[0]):
        cells[2 + n] = (1.0 - f[n]) * np.prod(np.delete(f, n))
    cells[1] = np.prod(f)
    cells[0] = max(1.0 - cells[1] - cells[2:].sum(), 0.0)
    return cells


def single_detection_probs(alpha, s: float, sigma: float,
                           gamma: float) -> np.ndarray:
    """The single-detection cells P_1 ... P_N of ``detection_probs``."""
    return detection_probs(alpha, s, sigma, gamma)[2:]


def q1_bounds(a: float, b: float) -> tuple[float, float]:
    """Closed-form lower/upper envelopes of Q1(a, b), valid for b > a."""
    from scipy import special

    if not (np.isfinite(a) and np.isfinite(b)):
        raise ValueError("arguments must be finite")
    if a <= 0:
        raise ValueError("a must be positive")
    if b <= a:
        raise DomainTooSmall(f"bounds require b > a (got a={a}, b={b})")
    erfc = special.erfc((b - a) / np.sqrt(2.0))
    lower = erfc / np.sqrt(4.0 * a)
    upper = (np.exp(-0.5 * (b - a) ** 2) / np.sqrt(2.0 * np.pi * a)
             + np.sqrt(a / 4.0) * erfc)
    return float(lower), float(upper)
