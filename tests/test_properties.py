"""Bounded, derandomized property tests: random widths, random coprime
bases and random odd p, through every backend and variant, each product
checked against the big-integer oracle by mont_mul(check=True)."""

import math
import random
from fractions import Fraction

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from rnsmul.basegen import split_bases
from rnsmul.baseext import KawamuraParams
from rnsmul.modmul import (
    VARIANTS,
    MontgomeryContext,
    mont_exp,
    mont_mul,
    mont_pair,
)
from rnsmul.wordmod import BACKEND_KINDS, make_backend

EXAMPLES = 40  # keeps the whole file under a second


def random_pool(rng, n, w, pm):
    """2n pairwise-coprime moduli 2^w - c, or None if the draw runs dry.

    pm: c odd and below 2^(w/2), the pseudo-Mersenne form; otherwise
    c >= 2^(w/2), a form only the modulo and inst kinds accept.  Either
    way c stays small enough that Kawamura's error bound
    eps = n/2^8 + n*c_max/2^w is at most alpha = 1/2.
    """
    c_hi = (128 - n) * (1 << w) // (256 * n)
    lo, hi = (1, (1 << (w // 2)) - 1) if pm else (1 << (w // 2), c_hi)
    hi = min(hi, c_hi)
    if lo > hi:
        return None
    pool, M = [], 1
    for _ in range(50 * n):
        c = rng.randint(lo, hi) | (1 if pm else 0)
        m = (1 << w) - c
        if c <= hi and math.gcd(m, M) == 1:
            pool.append(m)
            M *= m
            if len(pool) == 2 * n:
                return pool
    return None


@st.composite
def contexts(draw):
    """(w, pm, bases, p): a random base pair and an odd p inside the
    sizing rules M > (n+2)^2 p and M' > 2(n+2) p."""
    w = draw(st.sampled_from((8, 64)) | st.integers(8, 64), label="w")
    n = draw(st.integers(2, 5), label="n")
    pm = draw(st.booleans(), label="pseudo-Mersenne")
    pool = random_pool(random.Random(draw(st.integers(0, 2**32))), n, w, pm)
    assume(pool is not None)
    bm, bmp = split_bases(pool, w)
    p_max = min((bm.M - 1) // ((n + 2) ** 2), (bmp.M - 1) // (2 * (n + 2)))
    assume(p_max >= 3)
    # a bit length first, so that wide p are drawn as often as narrow ones;
    # or p at the top of the sizing range, where Kawamura's window is tightest
    bits = draw(st.integers(2, p_max.bit_length()), label="bits of p")
    p_lo, p_hi = max(3, 1 << (bits - 1)), min(p_max, (1 << bits) - 1)
    p = draw(st.integers(p_lo, p_hi) | st.just(p_max), label="p") | 1
    if p > p_max:
        p -= 2
    assume(math.gcd(p, bm.M * bmp.M) == 1)
    return w, pm, bm, bmp, p


@settings(
    max_examples=EXAMPLES,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much],
)
@given(contexts(), st.data())
def test_mont_mul_and_exp_on_random_bases(case, data):
    """Every variant with its default params, then Kawamura with any q and
    alpha: for_base or the context rejects them, or every product passes
    the oracle, its window included.  Sometimes alpha sits on q = w bits at
    the edge of the window that holds the bound (n+2)*p, which the context
    accepts, or one step past it, which the context rejects."""
    w, pm, bm, bmp, p = case
    kinds = BACKEND_KINDS if pm else ("modulo", "inst")
    for variant in VARIANTS:
        ctx = MontgomeryContext(p, bm, bmp, variant)
        x = mont_pair(ctx, data.draw(st.integers(0, ctx.bound - 1), label="x"))
        y = mont_pair(ctx, data.draw(st.integers(0, ctx.bound - 1), label="y"))
        a = data.draw(st.integers(0, p - 1), label="a")
        e = data.draw(st.integers(0, 40), label="e")
        for kind in kinds:
            be = make_backend(kind, w)
            z = mont_mul(ctx, x, y, be, check=True)
            mont_mul(ctx, z, x, be, check=True)
            assert mont_exp(ctx, a, e, be, check=True) == pow(a, e, p)
    step = data.draw(st.sampled_from((None, 0, 1)), label="steps past the edge")
    if step is None:
        q = data.draw(st.integers(1, w), label="q")
        alpha = Fraction(data.draw(st.integers(0, 1 << 10), label="alpha * 2^10"), 1 << 10)
    else:
        # the largest alpha with bound <= (1-alpha)*M', plus step
        q, edge = w, ((bmp.M - ctx.bound) << w) // bmp.M
        alpha = Fraction(edge + step, 1 << w)
    try:
        kparams = KawamuraParams.for_base(bmp, q, alpha)
    except ValueError as exc:
        assert "eps" in str(exc) or "alpha" in str(exc), exc
        return
    try:
        ctx = MontgomeryContext(p, bm, bmp, "k", kparams)
    except ValueError as exc:
        assert step != 0 and "exactness window" in str(exc), exc
        return
    assert step != 1, f"alpha={alpha} one step past the edge was accepted"
    for kind in kinds:
        be = make_backend(kind, w)
        mont_mul(ctx, mont_mul(ctx, x, y, be, check=True), x, be, check=True)
