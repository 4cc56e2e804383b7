"""Sieve determinism, constant verification, serialization round trip."""

import io
import math
import random

import pytest

from rnsmul.basegen import (
    TREE_LEAF,
    RnsBase,
    build_base,
    build_pm_base,
    generate_pm_moduli,
    load_base,
    read_base,
    save_base,
    write_base,
)
from rnsmul.wordmod import PseudoMersenne


def test_sieve_w8():
    # c = 7 is rejected because gcd(249, 255) = 3
    assert [p.m for p in generate_pm_moduli(4, 8)] == [255, 253, 251, 247]
    assert [p.m for p in generate_pm_moduli(2, 8)] == [255, 253]
    assert [p.c for p in generate_pm_moduli(4, 8)] == [1, 3, 5, 9]


def test_sieve_exhaustion():
    with pytest.raises(ValueError, match="n=256"):
        generate_pm_moduli(256, 8)


def test_sieve_needs_two_moduli():
    with pytest.raises(ValueError, match="at least 2 moduli, got n=1"):
        generate_pm_moduli(1, 8)


def test_sieve_deterministic():
    for n, w in ((4, 8), (16, 32), (32, 64)):
        a = generate_pm_moduli(n, w)
        b = generate_pm_moduli(n, w)
        assert a == b


def test_sieve_pairwise_coprime():
    for n, w in ((5, 8), (16, 16), (64, 64)):
        ms = [p.m for p in generate_pm_moduli(n, w)]
        assert len(ms) == n
        for i in range(n):
            for j in range(i + 1, n):
                assert math.gcd(ms[i], ms[j]) == 1
        # greedy: every skipped candidate above the last kept modulus shares
        # a factor with an earlier kept one
        for m in range(ms[0] - 2, ms[-1], -2):
            if m not in ms:
                assert any(math.gcd(m, k) != 1 for k in ms if k > m), m


@pytest.mark.parametrize("w", [64, 16])
def test_sieve_is_prefix_stable(w):
    """A sweep sieves 2*max(n) moduli once and gives each n its first 2n:
    the greedy sieve of 2n moduli is that prefix."""
    channels = tuple(range(8, 65, 8)) if w == 64 else tuple(range(2, 21, 2))
    top = generate_pm_moduli(2 * max(channels), w)
    for n in channels:
        assert generate_pm_moduli(2 * n, w) == top[: 2 * n], n


@pytest.mark.parametrize("n", [2, 4, 5, 9, 64])
def test_residues_match_plain_remainder(n):
    """RnsBase.residues, through the remainder tree above TREE_LEAF channels
    and the plain % at or below it, against one % per channel."""
    base = build_pm_base(n, 64)
    assert (base.n > TREE_LEAF) == (type(base.tree) is list)
    rng = random.Random(53 + n)
    xs = [0, 1, base.M - 1, base.moduli[-1], *(rng.randrange(base.M) for _ in range(20))]
    # at or above M, as reducing another base's M needs
    xs += [base.M, base.M * base.moduli[0] + 12345, rng.getrandbits(3 * 64 * n)]
    for x in xs:
        assert base.residues(x) == [x % m for m in base.moduli], x


def test_build_base_357():
    base = build_base((3, 5, 7), 8)
    assert base.M == 105
    # (35 mod 3 = 2)^-1 mod 3 = 2, (21 mod 5 = 1)^-1 = 1, (15 mod 7 = 1)^-1 = 1
    assert base.inv_Mi == (2, 1, 1)
    assert base.Mi == (35, 21, 15)


def test_build_base_rejects_non_coprime():
    with pytest.raises(ValueError, match="3 and 6"):
        build_base((3, 6, 7), 8)
    # names the first earlier modulus and their gcd, not the gcd with M = 15
    with pytest.raises(ValueError, match="3 and 15.*share factor 3"):
        build_base((3, 5, 15), 8)


@pytest.mark.parametrize(
    "moduli, message",
    [
        ((9, 5, 7, 12), "moduli 9 and 12 are not coprime (share factor 3)"),
        ((5, 1), "modulus 1 out of range for w=8"),
        # both faults: the first channel, in order, that has one is named
        ((3, 6, 256), "moduli 3 and 6 are not coprime (share factor 3)"),
        ((3, 256, 6), "modulus 256 out of range for w=8"),
        ((0, 4, 6), "modulus 0 out of range for w=8"),
        ((4, 6, 0), "moduli 4 and 6 are not coprime (share factor 2)"),
    ],
)
def test_base_names_its_first_fault(moduli, message):
    with pytest.raises(ValueError) as info:
        build_base(moduli, 8)
    assert str(info.value) == message


def test_base_accepts_exactly_the_pairwise_coprime_moduli_in_range():
    """The gcd(r_i, m_i) test against every pair, on seeded small sets
    with moduli near both ends of the w=8 range."""
    rng = random.Random(61)
    draw = [*range(40), *range(240, 260)]
    for _ in range(3000):
        moduli = [rng.choice(draw) for _ in range(rng.randrange(2, 6))]
        ok = all(2 <= m < 256 for m in moduli) and all(
            math.gcd(a, b) == 1 for i, a in enumerate(moduli) for b in moduli[:i]
        )
        try:
            build_base(moduli, 8)
            assert ok, moduli
        except ValueError:
            assert not ok, moduli


def test_inv_mi_is_built_on_first_read():
    base = build_pm_base(16, 64)
    assert "inv_Mi" not in vars(base)
    assert base.Mi_mod == tuple((base.M // m) % m for m in base.moduli)
    assert base.inv_Mi == tuple(pow(r, -1, m) for r, m in zip(base.Mi_mod, base.moduli))
    assert vars(base)["inv_Mi"] is base.inv_Mi


def test_build_base_product():
    base = build_base((251, 247), 8)
    assert base.M == 61997


def test_tables_satisfy_congruences():
    base = build_pm_base(8, 32)
    for i, m in enumerate(base.moduli):
        assert base.inv_Mi[i] * ((base.M // m) % m) % m == 1
    # Garner's constants: W_i = m_0*...*m_{i-1} and W_i * winv_i = 1 mod m_i
    for i, m in enumerate(base.moduli):
        assert base.weights[i] == math.prod(base.moduli[:i])
        assert base.weights[i] * base.winv[i] % m == 1


def test_dynamic_range_of_generated_bases():
    for n, w in ((4, 8), (8, 16), (16, 64)):
        base = build_pm_base(n, w)
        assert base.M > 1 << ((w - 1) * n)


def test_base_validation():
    with pytest.raises(ValueError, match="at least 2"):
        build_base((251,), 8)
    with pytest.raises(ValueError, match="out of range"):
        build_base((3, 256), 8)
    with pytest.raises(ValueError, match="out of range"):
        build_base((0, 3), 8)


def test_base_takes_integer_moduli_only():
    # a float is no modulus, rather than being truncated to one
    with pytest.raises(TypeError):
        RnsBase((3.7, 5), 8)
    # a bool is the integer 1, which no base admits
    with pytest.raises(ValueError, match="modulus 1 out of range"):
        RnsBase((True, 5), 8)


def test_pm_params_rejects_foreign_width():
    be = PseudoMersenne(8)
    with pytest.raises(ValueError, match="w=16"):
        be.check_base(build_pm_base(4, 16))
    with pytest.raises(ValueError, match="pseudo-Mersenne"):
        be.check_base(build_base((3, 5, 7), 8))


def test_serialization_round_trip(tmp_path):
    base = build_pm_base(6, 16)
    path = tmp_path / "base.txt"
    save_base(base, str(path))
    text = path.read_text()
    assert text.splitlines()[0] == "16 6"
    loaded = load_base(str(path))
    assert loaded.moduli == base.moduli and loaded.w == base.w


def test_serialization_format():
    base = build_base((255, 253, 251, 247), 8)
    buf = io.StringIO()
    write_base(base, buf)
    assert buf.getvalue() == "8 4\n255\n253\n251\n247\n"


def test_read_base_errors():
    with pytest.raises(ValueError, match="header"):
        read_base(io.StringIO("garbage\n"))
    with pytest.raises(ValueError, match="found 1"):
        read_base(io.StringIO("8 2\n255\n"))
    with pytest.raises(ValueError, match="coprime"):
        read_base(io.StringIO("8 2\n16\n32\n"))
