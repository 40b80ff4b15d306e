"""Write ``marcum_q1_table.csv``: Marcum Q1(a, b) and 1 - Q1(a, b) to 50
digits, the reference that ``test_probability.py`` holds ``marcum_q1`` to.

Run from the root of the repository (needs mpmath, which the tests do not):

    python tests/make_marcum_table.py

With M ~ Poisson(a²/2) and N ~ Poisson(b²/2) independent, Q1(a, b) =
P(N <= M) and 1 - Q1(a, b) = P(N > M).  Both are summed here as positive
series in 50-digit arithmetic over every k within 60 standard deviations
and 50 terms below the smaller mean and 60 deviations and 1200 terms above
the larger one, which leaves out less than 1e-700 of either.  Each value
is then rounded once to the nearest double.
"""

import math
from pathlib import Path

import mpmath as mp

mp.mp.dps = 50
TABLE = Path(__file__).with_name("marcum_q1_table.csv")


def q1_pair(a: float, b: float):
    """(Q1(a, b), 1 - Q1(a, b)) as 50-digit positive sums."""
    mu, nu = mp.mpf(a) ** 2 / 2, mp.mpf(b) ** 2 / 2
    small, big = min(mu, nu), max(mu, nu)
    lo = max(0, int(small - 60 * mp.sqrt(small) - 50))
    top = int(big + 60 * mp.sqrt(big) + 1200)

    def pmf(lam):
        if lam == 0:  # then lo = 0
            return [mp.mpf(1)] + [mp.mpf(0)] * (top - lo)
        p = [mp.exp(lo * mp.log(lam) - lam - mp.loggamma(lo + 1))]
        for k in range(lo + 1, top + 1):
            p.append(p[-1] * lam / k)
        return p

    pm, pn = pmf(mu), pmf(nu)
    at_most, above = [], [mp.mpf(0)] * len(pn)  # P(N <= k), P(N > k)
    total = mp.mpf(0)
    for x in pn:
        total += x
        at_most.append(total)
    total = mp.mpf(0)
    for k in range(len(pn) - 1, -1, -1):
        above[k] = total
        total += pn[k]
    return (mp.fsum(x * c for x, c in zip(pm, at_most)),
            mp.fsum(x * c for x, c in zip(pm, above)))


def points():
    # Criterion 10's cells, with a and b formed as detection_probs forms
    # them from alpha = (0.8, 0.6) and sigma = 1.
    for s in (0.5, 1.0, 2.0):
        for gamma in (2.0, 3.0, 4.0):
            for alpha in (0.8, 0.6):
                x = s * alpha
                yield math.sqrt(2.0 * (x * x)), math.sqrt(2.0) * gamma
    # The cells of `oracle --alpha 0.8,0.6 --s 10 --gamma 2`, whose
    # below-threshold probabilities are 5.3e-18 and 4.3e-9.
    for x in (10 * 0.8, 10 * 0.6):
        yield math.sqrt(2.0 * (x * x)), math.sqrt(2.0) * 2.0
    # a/b within 1e-9 of 1, where the integrand of Q1 is a narrow peak.
    for a in (0.01, 0.5, 1.0, 3.0, 7.0, 20.0, 40.0):
        for ratio in (1 - 1e-9, 1.0, 1 + 1e-9):
            yield a, a * ratio
    # The Q tail (b well above a) and the 1 - Q tail (a well above b), out
    # past underflow: the last b and a of each row give values below the
    # smallest normal double.
    for a in (0.0, 0.5, 8.0):
        for b in (6.0, 12.0, 20.0, 28.0, 35.0, a + 36.5, a + 37.5, a + 38.5,
                  a + 40.0):
            yield a, b
            yield b, a
    # No signal, no threshold, and a few large arguments.
    yield from [(0.0, 0.0), (3.0, 0.0), (0.0, 2.0), (100.0, 110.0),
                (300.0, 290.0), (1000.0, 1001.0)]
    # A fixed scatter over [0, 50]², from a linear congruential generator.
    state = 12345
    for _ in range(40):
        pair = []
        for _ in range(2):
            state = (6364136223846793005 * state + 1442695040888963407) % 2**64
            pair.append(round(50.0 * (state >> 11) / 2**53, 6))
        yield tuple(pair)


def main() -> None:
    lines = ["# Marcum Q1(a, b) and 1 - Q1(a, b), 50-digit sums rounded to "
             "double; written by make_marcum_table.py",
             "a,b,q,f"]
    for a, b in points():
        q, f = q1_pair(a, b)
        lines.append(f"{a!r},{b!r},{float(q)!r},{float(f)!r}")
    TABLE.write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
