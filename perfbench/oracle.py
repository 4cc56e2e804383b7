"""Correctness gates that do not trust rnsmul: a big-integer CRT oracle built
from the moduli alone, the pinned counter table and the pinned sweep digests.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

PINS_PATH = Path(__file__).resolve().parent / "pins.json"


def load_pins() -> dict:
    with open(PINS_PATH) as fp:
        return json.load(fp)


class CrtOracle:
    """value(residues) = sum r_i * e_i mod M with the CRT idempotents e_i,
    computed here from the moduli, not from rnsmul's base tables."""

    def __init__(self, moduli):
        self.moduli = tuple(moduli)
        self.M = math.prod(self.moduli)
        self.idempotents = tuple(
            (self.M // m) * pow(self.M // m % m, -1, m) for m in self.moduli
        )

    def value(self, residues) -> int:
        if len(residues) != len(self.moduli) or not all(
            0 <= r < m for r, m in zip(residues, self.moduli)
        ):
            raise ValueError("residue vector is not canonical for the base")
        return sum(map(int.__mul__, residues, self.idempotents)) % self.M


class MontOracle:
    """Checks one Montgomery product z = mont_mul(x, y) given the values of
    x and y: congruent to x*y*M^-1 mod p, below (n+2)p, and both halves
    equal.  Returns z's value, or None when z is wrong."""

    def __init__(self, p, bm_moduli, bmp_moduli):
        self.p = p
        self.on_bm = CrtOracle(bm_moduli)
        self.on_bmp = CrtOracle(bmp_moduli)
        self.bound = (len(self.on_bm.moduli) + 2) * p
        self.m_inv = pow(self.on_bm.M, -1, p)

    def check(self, xv, yv, z):
        try:
            zv = self.on_bm.value(z.in_bm.residues)
            zv_mp = self.on_bmp.value(z.in_bmp.residues)
        except ValueError:
            return None
        if zv != zv_mp or zv >= self.bound:
            return None
        if zv % self.p != xv * yv * self.m_inv % self.p:
            return None
        return zv


def counters_match(counters: dict, row: dict, calls: int) -> bool:
    """Counters do not depend on data, so after `calls` products every field
    is exactly calls times the pinned per-call row."""
    return set(counters) == set(row) and all(
        counters[k] == row[k] * calls for k in row
    )


def file_sha256(path) -> str:
    with open(path, "rb") as fp:
        return hashlib.sha256(fp.read()).hexdigest()
