"""Deterministic pseudo-Mersenne base generation and precomputed constants.

A base is an ordered set of pairwise-coprime w-bit moduli together with
every table the conversions and extensions need.  Tables are computed with
arbitrary-precision arithmetic once: M, M/m_i and (M/m_i) mod m_i at
construction, the inverses and the mixed-radix and remainder-tree tables
on first read.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import accumulate
from operator import index, mul
from typing import IO, Iterable, List, Sequence

from .wordmod import PmModulus, check_width, pm_modulus

TREE_LEAF = 4  # channels a remainder-tree leaf reduces with one % each


def generate_pm_moduli(n: int, w: int) -> List[PmModulus]:
    """Greedy sieve for n pairwise-coprime moduli of the form 2^w - c.

    Walks c = 1, 3, 5, ... upward and keeps m = 2^w - c whenever it is
    coprime to everything kept so far.  Deterministic, so a given (n, w)
    always names the same base.  Output is sorted by descending modulus.
    """
    check_width(w)
    if n < 2:
        raise ValueError(f"need at least 2 moduli, got n={n}")
    kept: List[PmModulus] = []
    product = 1
    top = 1 << w
    for c in range(1, 1 << (w // 2), 2):
        m = top - c
        if math.gcd(m, product) == 1:
            kept.append(pm_modulus(m, w))
            product *= m
            if len(kept) == n:
                return kept
    raise ValueError(
        f"exhausted pseudo-Mersenne candidates below 2^{w // 2} "
        f"after {len(kept)} moduli; cannot build a base of n={n} at w={w}"
    )


class RnsBase:
    """An RNS base: moduli plus precomputed conversion constants.

    Attributes:
        moduli:    the n channel moduli, descending.
        M:         product of the moduli (the dynamic range).
        Mi:        M // m_i per channel.
        Mi_mod:    r_i = (M / m_i) mod m_i per channel.
        inv_Mi:    r_i^-1 mod m_i per channel, built on first read.
        weights:   the mixed-radix weights W_i = m_0*...*m_{i-1}, W_0 = 1,
                   built on first read.
        winv:      W_i^-1 mod m_i per channel (Garner's digit constants),
                   built on first read.
        idempotents: the CRT idempotents Mi*inv_Mi, 1 mod m_i and 0 mod
                   every other channel, built on first read.
        tree:      the remainder tree of the moduli (Bernstein 2008),
                   built on first read; ``residues`` reduces through it.

    Construction builds M, Mi and Mi_mod and takes no inverse.  The
    moduli are pairwise coprime exactly when every gcd(r_i, m_i) is 1, a
    gcd of two words; a base that fails it, or has a modulus outside
    [2, 2^w), is walked channel by channel to name the first fault.

    Immutable after construction; safe to share between threads.  A
    table built on first read is deterministic, so a race can at most
    build it twice.
    """

    def __init__(self, moduli: Sequence[int], w: int):
        check_width(w)
        moduli = tuple(map(index, moduli))
        if len(moduli) < 2:
            raise ValueError(f"need at least 2 moduli, got {len(moduli)}")
        if min(moduli) < 2 or max(moduli) >= 1 << w:
            _name_fault(moduli, w)
        M = math.prod(moduli)
        Mi = tuple([M // m for m in moduli])
        Mi_mod = tuple([mi % m for mi, m in zip(Mi, moduli)])
        if not all(math.gcd(r, m) == 1 for r, m in zip(Mi_mod, moduli)):
            _name_fault(moduli, w)
        self.w = w
        self.moduli = moduli
        self.n = len(moduli)
        self.M = M
        self.Mi = Mi
        self.Mi_mod = Mi_mod

    @cached_property
    def inv_Mi(self) -> tuple:
        return tuple([pow(r, -1, m) for r, m in zip(self.Mi_mod, self.moduli)])

    @cached_property
    def weights(self) -> tuple:
        return (1, *accumulate(self.moduli[:-1], mul))

    @cached_property
    def winv(self) -> tuple:
        return tuple([pow(W % m, -1, m) for W, m in zip(self.weights, self.moduli)])

    @cached_property
    def idempotents(self) -> tuple:
        return tuple(map(mul, self.Mi, self.inv_Mi))

    @cached_property
    def tree(self):
        return _product_tree(self.moduli)

    def residues(self, x: int) -> list:
        """x mod every modulus, in channel order: x is reduced modulo the
        product of each half of the channels, recursively, down to leaves
        of at most TREE_LEAF channels that take one % each (so a base that
        small takes the plain % loop)."""
        return _tree_reduce(x, self.tree)

    def __repr__(self):
        return f"RnsBase(n={self.n}, w={self.w}, moduli={list(self.moduli)})"


def _name_fault(moduli, w):
    """Raise for the first channel, in order, that is out of range for w
    or shares a factor with an earlier one; a base has such a channel."""
    M = 1
    for j, m in enumerate(moduli):
        if not 2 <= m < (1 << w):
            raise ValueError(f"modulus {m} out of range for w={w}")
        if math.gcd(m, M) != 1:
            # name a pair: the gcd with M can exceed their common factor
            k, g = next((k, g) for k in moduli[:j] if (g := math.gcd(k, m)) != 1)
            raise ValueError(f"moduli {k} and {m} are not coprime (share factor {g})")
        M *= m
    raise AssertionError(f"no fault in {moduli} at w={w}")


def _product_tree(mods):
    """A leaf is the tuple of at most TREE_LEAF moduli; an inner node is
    the list [P_lo, lo, P_hi, hi] of each half's product and subtree."""
    if len(mods) <= TREE_LEAF:
        return mods
    h = len(mods) // 2
    lo, hi = mods[:h], mods[h:]
    return [math.prod(lo), _product_tree(lo), math.prod(hi), _product_tree(hi)]


def _tree_reduce(x, node):
    """x mod m for every modulus under node, in order."""
    if type(node) is tuple:
        return [x % m for m in node]
    p_lo, lo, p_hi, hi = node
    return _tree_reduce(x % p_lo, lo) + _tree_reduce(x % p_hi, hi)


def build_base(moduli: Iterable[int], w: int) -> RnsBase:
    return RnsBase(tuple(moduli), w)


def build_pm_base(n: int, w: int) -> RnsBase:
    return RnsBase(tuple(p.m for p in generate_pm_moduli(n, w)), w)


def split_bases(moduli: Sequence[int], w: int) -> tuple[RnsBase, RnsBase]:
    """Two bases from one pool: even positions, then odd positions.
    Alternate assignment keeps the two products close in magnitude."""
    return RnsBase(moduli[0::2], w), RnsBase(moduli[1::2], w)


# -- plain-text serialization: header "w n", one decimal modulus per line --


def write_base(base: RnsBase, fp: IO[str]) -> None:
    fp.write(f"{base.w} {base.n}\n")
    for m in base.moduli:
        fp.write(f"{m}\n")


def save_base(base: RnsBase, path: str) -> None:
    with open(path, "w") as fp:
        write_base(base, fp)


def read_base(fp: IO[str]) -> RnsBase:
    header = fp.readline().split()
    if len(header) != 2:
        raise ValueError("base file: expected header line 'w n'")
    w, n = int(header[0]), int(header[1])
    moduli = []
    for line in fp:
        line = line.strip()
        if line:
            moduli.append(int(line))
    if len(moduli) != n:
        raise ValueError(f"base file: header says n={n}, found {len(moduli)} moduli")
    return RnsBase(moduli, w)


def load_base(path: str) -> RnsBase:
    with open(path) as fp:
        return read_base(fp)
