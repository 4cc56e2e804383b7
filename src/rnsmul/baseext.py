"""Base extension: re-expressing a residue vector on a second coprime base.

Four algorithms with different cost/exactness trade-offs:

* Szabo-Tanaka       -- exact, via mixed-radix digits, Theta(n^2) word ops
                        with a sequential elimination chain;
* Shenoy-Kumaresan   -- exact, recovers the CRT quotient k through an extra
                        modulus, needs the value's residue there;
* Kawamura (rower)   -- estimates k by fixed-point accumulation of residue
                        high bits, O(n) extra work; exact below (1-alpha)*M;
* Bajard-Imbert      -- skips the k*M correction entirely, leaving an
                        excess of lambda*M with 0 <= lambda <= n-1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import List

from .basegen import RnsBase
from .rnscore import RnsInt, mrs_digits_vec
from .wordmod import WordModBackend


class ExtensionPair:
    """A checked pair of bases, src to dst: one width, no shared factor.

    Holds no table: Szabo-Tanaka reduces the value its mixed-radix chain
    ends with, the CRT-based extensions sum against src.Mi.
    """

    def __init__(self, src: RnsBase, dst: RnsBase):
        if src.w != dst.w:
            raise ValueError(f"mixed word sizes: src w={src.w}, dst w={dst.w}")
        g = math.gcd(src.M, dst.M)
        if g != 1:
            raise ValueError(
                f"source and destination bases are not coprime (gcd {g})"
            )
        self.src = src
        self.dst = dst


@dataclass(frozen=True)
class KawamuraParams:
    """Fixed-point accumulator configuration for the k estimate.

    alpha_fp is the initial offset alpha in q fractional bits.  The
    estimate is exact for inputs below (1-alpha)*M when the truncation
    error eps = n*(2^-q + c_max*2^-w) is at most alpha (Kawamura et al.,
    EUROCRYPT 2000).  Every instance checks 1 <= q <= w, 0 <= alpha_fp <
    2^q and eps <= alpha where it is made.
    """

    base: RnsBase
    q: int
    alpha_fp: int

    def __post_init__(self):
        q, w = self.q, self.base.w
        if not 1 <= q <= w:
            raise ValueError(f"accumulator bits q={q} must be in [1, w={w}]")
        if not 0 <= self.alpha_fp < 1 << q:
            raise ValueError(f"offset alpha={self.alpha} on q={q} bits must be in [0, 1)")
        if self.eps > self.alpha:
            raise ValueError(
                f"accumulator error bound eps={float(self.eps):.4f} exceeds "
                f"alpha={float(self.alpha):.4f}; k estimate would be unsound"
            )

    @property
    def alpha(self) -> Fraction:
        return Fraction(self.alpha_fp, 1 << self.q)

    @property
    def eps(self) -> Fraction:
        n, w = self.base.n, self.base.w
        c_max = (1 << w) - min(self.base.moduli)
        return Fraction(n, 1 << self.q) + Fraction(n * c_max, 1 << w)

    @classmethod
    def for_base(
        cls, base: RnsBase, q: int = 8, alpha: Fraction = Fraction(1, 2)
    ) -> "KawamuraParams":
        """The params for base with alpha rounded to q bits."""
        return cls(base, q, round(alpha * 2**q))

    def check(self, base: RnsBase) -> None:
        """That these params were built for base."""
        if self.base is not base:
            raise ValueError("params were built for a different base")


def _xi_vec(values, base: RnsBase, backend: WordModBackend) -> list:
    """xi_i = x_i * (M/m_i)^-1 mod m_i, the CRT summand coefficients;
    counted as one mulmod per channel."""
    mods = backend.check_base(base)
    backend.n_mul += len(mods)
    return [x * c % m for x, c, m in zip(values, base.inv_Mi, mods)]


def crt_residues(xi, src: RnsBase, dst: RnsBase, k: int = 0) -> list:
    """dst.residues(sum_i xi_i*(M/m_i) - k*M) over src: the CRT sum every
    correction-based extension ends in, built once as a big integer.  The
    residues equal the per-channel op chain's, which the caller counts
    through ``WordModBackend.count_dot_mods``."""
    x = sum(map(mul, xi, src.Mi))
    return dst.residues(x - k * src.M if k else x)


def count_rower(backend: WordModBackend, n: int) -> None:
    """Count the rower accumulator over n channels: plain integer-unit
    work, two shifts, two adds and one mask per channel, ticked as raw."""
    cnt = backend.raw
    cnt.shift += 2 * n
    cnt.word_add += 2 * n
    cnt.mask += n


def rower_estimate(xi, params: KawamuraParams) -> int:
    """The k estimate: the carries of the fixed-point rower accumulator.

    sigma starts at alpha_fp; each channel adds the top q bits of xi_i;
    every overflow past 2^q is one unit of k and is masked off.  Carries
    and the q-bit remainder always hold the running sum, so k is that sum
    shifted down by q once.  Counted by count_rower.
    """
    sh = params.base.w - params.q
    return (params.alpha_fp + sum([x >> sh for x in xi])) >> params.q


def compute_k_hat(x: RnsInt, params: KawamuraParams, backend: WordModBackend) -> int:
    """Estimated CRT quotient of x; exact when value(x) < (1-alpha)*M."""
    params.check(x.base)
    xi = _xi_vec(x.residues, x.base, backend)
    count_rower(backend, len(xi))
    return rower_estimate(xi, params)


# -- vector cores: the op-by-op reference path ------------------------------
# Each counts as it computes and ends in one reduction into the destination
# base, counted as dot_mod chains: crt_residues of sum_i xi_i*(M/m_i) - k*M
# (Bajard-Imbert passes no k and keeps the excess), or for Szabo-Tanaka the
# value its mixed-radix chain holds.  modmul.mont_mul merges these stages
# into fused value passes and charges their counts from a per-context table.


def st_extend_vec(values, pair: ExtensionPair, backend: WordModBackend) -> List[int]:
    src, dst = pair.src, pair.dst
    _, x = mrs_digits_vec(values, src, backend)
    backend.count_dot_mods(src.n, dst.n)
    return dst.residues(x)


def kawamura_extend_vec(
    values, pair: ExtensionPair, params: KawamuraParams, backend: WordModBackend
) -> List[int]:
    src = pair.src
    xi = _xi_vec(values, src, backend)
    count_rower(backend, len(xi))
    k = rower_estimate(xi, params)
    backend.count_dot_mods(src.n, pair.dst.n, k)
    return crt_residues(xi, src, pair.dst, k)


def bajard_imbert_vec(values, pair: ExtensionPair, backend: WordModBackend) -> List[int]:
    src, dst = pair.src, pair.dst
    xi = _xi_vec(values, src, backend)
    backend.count_dot_mods(src.n, dst.n)
    return crt_residues(xi, src, dst)


# -- public operations --------------------------------------------------------


def _check_operand(x: RnsInt, pair: ExtensionPair, backend: WordModBackend) -> None:
    if x.base is not pair.src:
        raise ValueError("operand does not live on the pair's source base")
    backend.check_base(pair.src)
    backend.check_base(pair.dst)


def extend_szabo_tanaka(
    x: RnsInt, pair: ExtensionPair, backend: WordModBackend
) -> RnsInt:
    """Exact extension through mixed-radix digits."""
    _check_operand(x, pair, backend)
    return RnsInt(tuple(st_extend_vec(x.residues, pair, backend)), pair.dst)


def extend_kawamura(
    x: RnsInt, pair: ExtensionPair, params: KawamuraParams, backend: WordModBackend
) -> RnsInt:
    """Extension with the estimated quotient; exact for values below
    (1-alpha)*M (caller contract, deliberately unchecked at runtime)."""
    _check_operand(x, pair, backend)
    params.check(pair.src)
    return RnsInt(
        tuple(kawamura_extend_vec(x.residues, pair, params, backend)), pair.dst
    )


def extend_bajard_imbert(
    x: RnsInt, pair: ExtensionPair, backend: WordModBackend
) -> RnsInt:
    """Approximate extension: represents value(x) + lambda*M for some
    0 <= lambda <= n-1 (the k*M correction is skipped)."""
    _check_operand(x, pair, backend)
    return RnsInt(tuple(bajard_imbert_vec(x.residues, pair, backend)), pair.dst)


def extend_shenoy_kumaresan(
    x: RnsInt,
    x_e: int,
    m_e: int,
    pair: ExtensionPair,
    backend: WordModBackend,
) -> RnsInt:
    """Exact extension recovering k through the extra modulus m_e.

    Requires x_e = value(x) mod m_e.  k is recovered from
    k = (sum_i xi_i*(M/m_i) - x) * M^-1 mod m_e, which is exact because
    k < n < m_e; the destination residues then follow as in the other
    correction-based extensions.  m_e is judged by the backend's modulus
    bounds before anything is counted.  A recovered k >= n raises, since
    x_e cannot then be value(x) mod m_e; a wrong x_e still passes, with a
    wrong extension, when its k lands below n, about n/m_e of the time.
    """
    _check_operand(x, pair, backend)
    src = pair.src
    if m_e <= src.n:
        raise ValueError(
            f"extra modulus {m_e} must exceed the channel count {src.n} "
            f"so the CRT quotient stays recoverable"
        )
    backend.check_modulus(m_e)
    if (g := math.gcd(m_e, src.M)) != 1:
        raise ValueError(f"extra modulus {m_e} shares factor {g} with the base")
    if not 0 <= x_e < m_e:
        raise ValueError(f"x_e={x_e} is not a residue mod {m_e}")
    m_inv_e = pow(src.M % m_e, -1, m_e)
    xi = _xi_vec(x.residues, src, backend)
    backend.count_dot_mods(src.n, 1)
    sum_e = sum(map(mul, xi, src.Mi)) % m_e
    k = backend.mulmod(backend.submod(sum_e, x_e, m_e), m_inv_e, m_e)
    if k >= src.n:
        raise ValueError(
            f"recovered CRT quotient k={k} is not below n={src.n}: "
            f"x_e={x_e} is not the value's residue mod {m_e}"
        )
    dst = pair.dst
    backend.count_dot_mods(src.n, dst.n, k)
    return RnsInt(tuple(crt_residues(xi, src, dst, k)), dst)
