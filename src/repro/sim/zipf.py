"""Deterministic rejection-free Zipf key sampling for skewed workloads.

Serving workloads are not uniform: a KV tier in front of a million
clients sees a hot head (a few keys take most of the traffic) and a cold
tail.  :class:`ZipfSampler` draws ranks ``0..n-1`` with
``P(rank i) ∝ 1/(i+1)**theta`` using the Gray et al. transform
popularised by YCSB: an O(1) closed form for the generalised harmonic
number ``zetan`` (cached per ``(n, theta)``), then **O(1) per draw with
no rejection loop** — every call consumes exactly one uniform variate,
which keeps the draw count (and therefore the DES event schedule) a pure
function of the seed.

``zetan`` is an exact ``math.fsum`` head (terms ``1..63``, or all of them
for ``n <= 128``) plus an Euler–Maclaurin tail: the integral, half of
each end term, and the B2–B8 corrections.  The truncated remainder is
about ``1e-20`` (absolute) for ``theta < 1``, so the result is within a
few ulp of the correctly rounded sum: relative error <= 1e-14 (tested),
1.2e-16 at ``n = 10**6, theta = 0.99``, and ``theta = 0`` gives ``n``
exactly.  Being ``fsum``-based, the bits do not depend on the Python
version.

Ranks 0 and 1 are exact (``P(0) = 1/zetan``, ``P(1) = 0.5**theta /
zetan``); the remaining ranks use the continuous approximation of the
discrete CDF, accurate to a few percent — the standard YCSB trade for
rejection-free draws.
"""

from __future__ import annotations

import math
import random
from functools import lru_cache
from typing import Optional

__all__ = ["ZipfSampler"]


#: First term of the Euler–Maclaurin tail; terms below it are summed exactly.
_TAIL_START = 64
#: ``B_2k / (2k)!`` for k = 1..4: the B2, B4, B6 and B8 correction weights.
_EM_WEIGHTS = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600)


@lru_cache(maxsize=32)
def _zetan(n: int, theta: float) -> float:
    """Generalised harmonic number ``sum_{i=1..n} i**-theta``, in O(1)."""
    if n <= 2 * _TAIL_START:
        return math.fsum(pow(i, -theta) for i in range(1, n + 1))
    a = _TAIL_START
    s = 1.0 - theta
    terms = [pow(i, -theta) for i in range(1, a)]
    # ∫_a^n x**-theta dx = (n**s - a**s) / s; expm1 avoids the
    # cancellation when n**s is close to a**s (theta near 1).
    x = s * math.log(n / a)
    terms.append((pow(a, s) * math.expm1(x) if x < 1.0
                  else pow(n, s) - pow(a, s)) / s)
    terms.append(0.5 * (pow(a, -theta) + pow(n, -theta)))
    # f^(m)(x) = c * x**(-theta - m) with
    # c = (-theta)(-theta - 1)...(-theta - m + 1).
    c = -theta
    for k, weight in enumerate(_EM_WEIGHTS):
        m = 2 * k + 1
        terms.append(weight * c * (pow(n, -theta - m) - pow(a, -theta - m)))
        c *= (-theta - m) * (-theta - m - 1)
    return math.fsum(terms)


class ZipfSampler:
    """Seeded Zipf(``theta``) rank sampler over ``n`` keys.

    ``theta`` in ``[0, 1)``: 0 is uniform, 0.99 is the YCSB default
    (heavily skewed).  Draws come from the sampler's own seeded
    ``random.Random`` unless an explicit ``rng`` is passed to
    :meth:`sample` — the form a driver ``make_request`` hook uses, so
    key choice rides on the driver's deterministic request RNG::

        zipf = ZipfSampler(1_000_000, theta=0.99)

        def make_request(rng, index):
            key = zipf.sample(rng)
            ...
    """

    def __init__(self, n: int, theta: float = 0.99, seed: int = 1):
        if n < 1:
            raise ValueError("need at least one key")
        if not 0.0 <= theta < 1.0:
            raise ValueError(
                f"theta {theta} outside [0, 1) (the rejection-free "
                "transform needs alpha = 1/(1-theta) finite)"
            )
        self.n = n
        self.theta = theta
        self.zetan = _zetan(n, theta)
        self._rng = random.Random(seed)
        if n > 2:
            self._alpha = 1.0 / (1.0 - theta)
            zeta2 = 1.0 + pow(0.5, theta)
            self._eta = ((1.0 - pow(2.0 / n, 1.0 - theta))
                         / (1.0 - zeta2 / self.zetan))
            self._half_pow = pow(0.5, theta)

    def probability(self, rank: int) -> float:
        """Analytic ``P(rank)`` — the reference the sampler approximates."""
        if not 0 <= rank < self.n:
            raise ValueError(f"rank {rank} outside [0, {self.n})")
        return pow(rank + 1, -self.theta) / self.zetan

    def sample(self, rng: Optional[random.Random] = None) -> int:
        """One rank draw; exactly one uniform variate, no rejection."""
        u = (rng or self._rng).random()
        if self.n == 1:
            return 0
        if self.n == 2:
            # The eta transform degenerates at n=2 (its denominator is
            # zero); the two-point distribution is drawn directly.
            return 0 if u * self.zetan < 1.0 else 1
        uz = u * self.zetan
        if uz < 1.0:
            return 0
        if uz < 1.0 + self._half_pow:
            return 1
        rank = int(self.n * pow(self._eta * u - self._eta + 1.0, self._alpha))
        # The clamp only absorbs float rounding as u approaches 1.0.
        return min(rank, self.n - 1)
