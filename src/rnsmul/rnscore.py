"""RNS representation, conversions (CRT and mixed-radix), channel arithmetic.

Residues are kept canonical everywhere: residues[i] < moduli[i].  The CRT
reconstruction exists for I/O and oracle checks; the mixed-radix digits
come from the backend's counted kernel, which computes them on Python
integers and counts the w-bit word ops of the elimination chain.
"""

from __future__ import annotations

from operator import mul
from typing import NamedTuple

from .basegen import RnsBase
from .wordmod import WordModBackend


class RnsInt(NamedTuple):
    """A value as its residue vector on a base (canonical form)."""

    residues: tuple
    base: RnsBase


class MrsDigits(NamedTuple):
    """Mixed-radix digits: value = d0 + d1*m0 + d2*m0*m1 + ..."""

    digits: tuple
    base: RnsBase


def to_rns(x: int, base: RnsBase) -> RnsInt:
    """Forward conversion: one remainder per channel (RnsBase.residues)."""
    if not 0 <= x < base.M:
        raise ValueError(
            f"value {x} outside dynamic range [0, {base.M}) of the base"
        )
    return RnsInt(tuple(base.residues(x)), base)


def from_rns_crt(x: RnsInt) -> int:
    """Backward conversion via the CRT sum in one pass: sum_i x_i*e_i mod M
    with the base's idempotents e_i = (M/m_i)*|(M/m_i)^-1|_{m_i}.
    Arbitrary precision; off the hot path."""
    base = x.base
    return sum(map(mul, x.residues, base.idempotents)) % base.M


def mrs_digits_vec(values, base: RnsBase, backend: WordModBackend) -> tuple:
    """Mixed-radix digits of a residue vector (list form) and their value
    sum_i d_i*W_i, from the backend's kernel: a sequential chain in
    Garner's form, counted as the elimination chain it equals
    (WordModBackend.mrs_digits)."""
    return backend.mrs_digits(values, base.moduli, base.winv, base.weights)


def to_mrs(x: RnsInt, backend: WordModBackend) -> MrsDigits:
    backend.check_base(x.base)
    digits, _ = mrs_digits_vec(x.residues, x.base, backend)
    return MrsDigits(tuple(digits), x.base)


def mrs_value(d: MrsDigits) -> int:
    """Positional value of mixed-radix digits (Horner, big-integer)."""
    moduli = d.base.moduli
    acc = 0
    for i in range(d.base.n - 1, -1, -1):
        acc = acc * moduli[i] + d.digits[i]
    return acc


_ELEMENTWISE = {
    "add": WordModBackend.vec_add,
    "sub": WordModBackend.vec_sub,
    "mul": WordModBackend.vec_mul,
}


def rns_elementwise(op: str, x: RnsInt, y: RnsInt, backend: WordModBackend) -> RnsInt:
    """Channel-parallel add/sub/mul; congruent to (x op y) mod M."""
    if x.base is not y.base:
        raise ValueError("operands live on different bases")
    try:
        fn = _ELEMENTWISE[op]
    except KeyError:
        raise ValueError(f"unknown elementwise op {op!r}") from None
    return RnsInt(tuple(fn(backend, x.residues, y.residues, x.base)), x.base)
