"""Backend value agreement against the plain remainder oracle, counter
accounting, and input validation."""

import math
import random

import pytest

from rnsmul.baseext import crt_residues
from rnsmul.basegen import build_base
from rnsmul.rnscore import mrs_digits_vec
from rnsmul.wordmod import (
    BACKEND_KINDS,
    InstructionSim,
    NaiveModulo,
    PseudoMersenne,
    make_backend,
    pm_modulus,
)

W8_PM_MODULI = (255, 253, 251, 247, 241)


def all_backends(w):
    return [make_backend(k, w) for k in BACKEND_KINDS]


def generic_backends(w):
    # the pseudo-Mersenne kind only accepts 2^w - c moduli
    return [make_backend(k, w) for k in ("modulo", "inst")]


def test_addmod_examples():
    for be in generic_backends(8):
        assert be.addmod(3, 4, 5) == 2
        for x in (0, 1, 4):
            assert be.addmod(0, x, 5) == x
    for be in all_backends(8):
        assert be.addmod(200, 100, 251) == 300 % 251 == 49
        assert be.addmod(0, 17, 251) == 17
    # double-width intermediate at w=64: (2^63 + 2^63-1) % (2^64-59) == 58
    m = (1 << 64) - 59
    for be in all_backends(64):
        assert be.addmod(1 << 63, (1 << 63) - 1, m) == ((1 << 64) - 1) % m == 58


def test_submod_examples():
    for be in generic_backends(8):
        assert be.submod(3, 4, 5) == (3 - 4) % 5 == 4
    for be in all_backends(8):
        assert be.submod(123, 123, 251) == 0
        assert be.submod(10, 200, 251) == (10 - 200) % 251 == 61


def test_mulmod_examples():
    for be in generic_backends(8):
        assert be.mulmod(3, 4, 5) == 2
    for be in all_backends(8):
        assert be.mulmod(1, 123, 251) == 123
        assert be.mulmod(250, 250, 251) == (250 * 250) % 251 == 1


def test_redmod_is_entry_gate():
    for be in all_backends(8):
        assert be.redmod(254, 251) == 3
        assert be.redmod(250, 251) == 250
    with pytest.raises(ValueError, match="exceeds"):
        make_backend("modulo", 8).redmod(256, 251)


def test_pm_reduce_examples():
    be = PseudoMersenne(8)
    pm = pm_modulus(251, 8)
    assert be.pm_reduce(60000, pm) == 60000 % 251 == 11
    assert be.pm_reduce(0, pm) == 0
    assert be.pm_reduce(251, pm) == 0


def test_pm_reduce_exhaustive_small_c():
    be = PseudoMersenne(8)
    for c in (1, 3, 5, 9):
        pm = pm_modulus(256 - c, 8)
        for a in range(1 << 16):
            assert be.pm_reduce(a, pm) == a % pm.m


def test_input_rejection():
    for be in all_backends(8):
        with pytest.raises(ValueError, match="modulus"):
            be.addmod(0, 0, 0)
        with pytest.raises(ValueError, match="modulus"):
            be.addmod(0, 0, 1)
        with pytest.raises(ValueError, match="unreduced"):
            be.addmod(251, 1, 251)
        with pytest.raises(ValueError, match="unreduced"):
            be.submod(1, 255, 251)
        with pytest.raises(ValueError, match="unreduced"):
            be.mulmod(252, 1, 251)


def test_pm_rejects_non_pm_modulus():
    be = PseudoMersenne(8)
    with pytest.raises(ValueError, match="pseudo-Mersenne"):
        be.mulmod(1, 1, 250)  # even c
    with pytest.raises(ValueError, match="pseudo-Mersenne"):
        be.mulmod(1, 1, 239)  # c = 17 >= 2^4
    with pytest.raises(ValueError, match="pseudo-Mersenne"):
        be.addmod(1, 1, 97)
    with pytest.raises(ValueError, match="pseudo-Mersenne"):
        be.redmod(256, 250)  # the modulus error comes before the operand's


# each scalar op with operands every accepted modulus takes
SCALAR_CALLS = {
    "addmod": lambda be, m: be.addmod(0, 0, m),
    "submod": lambda be, m: be.submod(0, 0, m),
    "mulmod": lambda be, m: be.mulmod(0, 0, m),
    "redmod": lambda be, m: be.redmod(0, m),
}


def accepts(check, moduli):
    """The moduli check(m) lets through without a ValueError."""
    ok = set()
    for m in moduli:
        try:
            check(m)
        except ValueError:
            continue
        ok.add(m)
    return ok


def helper_accepts(be, moduli):
    """The moduli ``check_modulus`` lets through."""
    return accepts(be.check_modulus, moduli)


def form_accepts(be, moduli):
    """The moduli the kind's form admits, stated apart from its bounds:
    ``pm_modulus`` for pm, 2 <= m < 2^w for the others."""
    if be.kind == "pm":
        return accepts(lambda m: pm_modulus(m, be.width), moduli)
    return {m for m in moduli if 2 <= m < 1 << be.width}


def chain_accepts(be, moduli, call):
    """The moduli an op passes on its comparison chain alone: a failing
    chain calls ``check_modulus``, here replaced by a log."""
    log = []
    be.check_modulus = log.append
    for m in moduli:
        try:
            call(be, m)
        except (ValueError, ZeroDivisionError):
            pass  # m = 0 gets past the log
    return set(moduli) - set(log)


def test_chain_bounds_match_helpers_small_widths():
    """Every modulus in [0, 2^w + 2], every kind, w = 8..16: the helper
    accepts exactly the kind's form, and the one-chain test of addmod and
    of redmod exactly what the helper does."""
    for cls in BACKEND_KINDS.values():
        for w in range(8, 17):
            moduli = range((1 << w) + 3)
            accepted = helper_accepts(cls(w), moduli)
            assert accepted == form_accepts(cls(w), moduli), (cls.kind, w)
            for op in ("addmod", "redmod"):
                assert chain_accepts(cls(w), moduli, SCALAR_CALLS[op]) == accepted, (
                    cls.kind, w, op)


@pytest.mark.parametrize("w", [31, 32, 63, 64])
def test_chain_bounds_match_helpers_at_edges(w):
    """The edges of both bound sets at large w, odd and even c, and a
    seeded sample, on all four ops and against the kind's form."""
    rng = random.Random(w)
    top, half = 1 << w, 1 << (w // 2)
    moduli = {0, 1, 2, 3, 4, 5, top - 1, top, top + 1, top + 2}
    moduli |= {top - half + d for d in range(-3, 4)}
    moduli |= {top - c for c in range(1, 12)}
    moduli |= {rng.randrange(top + 3) for _ in range(100)}
    moduli |= {top - rng.randrange(1, 2 * half) for _ in range(100)}
    for cls in BACKEND_KINDS.values():
        accepted = helper_accepts(cls(w), moduli)
        assert accepted == form_accepts(cls(w), moduli), cls.kind
        assert top - 1 in accepted
        for op, call in SCALAR_CALLS.items():
            assert chain_accepts(cls(w), moduli, call) == accepted, (cls.kind, op)
        # the largest operands an accepted modulus takes pass the chain too
        be = cls(w)
        be.check_modulus = be._check_reduced = None
        for m in accepted:
            be.addmod(m - 1, m - 1, m)
            be.submod(0, m - 1, m)
            be.mulmod(m - 1, m - 1, m)
            be.redmod(top - 1, m)


def test_chain_passes_no_float_modulus_the_helper_rejects():
    """A float modulus is not an exact int: the chain may send it to the
    helper, but never passes one the helper or the kind's form rejects."""
    moduli = [1.5, 2.0, 2.5, 241.0, 250.0, 251.0, 251.5, 254.5, 255.0, 255.5, 256.0]
    for cls in BACKEND_KINDS.values():
        accepted = helper_accepts(cls(8), moduli) & form_accepts(cls(8), moduli)
        for op, call in SCALAR_CALLS.items():
            assert chain_accepts(cls(8), moduli, call) <= accepted, (cls.kind, op)


def test_pm_check_base_names_the_first_non_pm_channel():
    """check_base tests each channel against the scalar ops' bounds
    through ``check_modulus``: an even c, then a c >= 2^(w/2), each
    named, the first bad channel first."""
    be = PseudoMersenne(8)
    assert be.check_base(build_base(W8_PM_MODULI, 8)) == W8_PM_MODULI
    for moduli, bad in (
        ((255, 253, 254), 254),  # c = 2, even
        ((255, 239, 253), 239),  # c = 17 >= 2^4
        ((255, 254, 239), 254),
    ):
        with pytest.raises(ValueError, match=f"modulus {bad} is not pseudo-Mersenne"):
            be.check_base(build_base(moduli, 8))


def test_width_validation():
    with pytest.raises(ValueError, match="width"):
        make_backend("modulo", 4)
    with pytest.raises(ValueError, match="width"):
        make_backend("inst", 65)
    with pytest.raises(ValueError, match="backend"):
        make_backend("nope", 64)


def test_counter_accounting_inst():
    be = InstructionSim(8)
    be.addmod(3, 4, 5)
    assert be.read_counters().as_dict() == {
        "word_add": 0, "word_sub": 0, "word_mul": 0, "shift": 0,
        "mask": 0, "div_mod": 0, "modadd": 1, "modsub": 0, "modmul": 0,
    }
    be.reset_counters()
    be.mulmod(3, 4, 5)
    be.submod(3, 4, 5)
    c = be.read_counters()
    assert c.modmul == 1 and c.modsub == 1 and c.modadd == 0


def test_counter_accounting_naive():
    be = NaiveModulo(8)
    be.mulmod(3, 4, 5)
    c = be.read_counters()
    assert c.word_mul == 1 and c.div_mod == 1 and c.total() == 2


def test_counter_accounting_pm_reduce():
    be = PseudoMersenne(8)
    be.pm_reduce(60000, pm_modulus(251, 8))
    c = be.read_counters()
    # three fold multiplications by c, plus the shift/mask/add/sub skeleton
    assert c.word_mul == 3
    assert c.shift == 3 and c.mask == 3
    assert c.word_add == 3 and c.word_sub == 1


def test_counters_monotonic_until_reset():
    rng = random.Random(5)
    be = NaiveModulo(16)
    prev = be.read_counters().total()
    for _ in range(200):
        m = rng.randrange(3, 1 << 16)
        a, b = rng.randrange(m), rng.randrange(m)
        rng.choice([be.addmod, be.submod, be.mulmod])(a, b, m)
        now = be.read_counters().total()
        assert now > prev
        prev = now
    be.reset_counters()
    assert be.read_counters().total() == 0


def test_agreement_exhaustive_w8():
    """All three kinds return identical values on identical inputs."""
    backends = all_backends(8)
    for m in (251, 241):
        for a in range(m):
            for b in range(m):
                add, sub, mul = (a + b) % m, (a - b) % m, a * b % m
                for be in backends:
                    assert be.addmod(a, b, m) == add
                    assert be.submod(a, b, m) == sub
                    assert be.mulmod(a, b, m) == mul


def test_agreement_arbitrary_moduli_w8():
    # naive and inst accept any modulus, not just pseudo-Mersenne form
    rng = random.Random(11)
    naive, inst = NaiveModulo(8), InstructionSim(8)
    for _ in range(4000):
        m = rng.randrange(2, 256)
        a, b = rng.randrange(m), rng.randrange(m)
        assert naive.addmod(a, b, m) == inst.addmod(a, b, m) == (a + b) % m
        assert naive.submod(a, b, m) == inst.submod(a, b, m) == (a - b) % m
        assert naive.mulmod(a, b, m) == inst.mulmod(a, b, m) == a * b % m


def test_agreement_randomized_w64():
    """At least 1e6 random w=64 cases across the three op classes."""
    rng = random.Random(17)
    backends = all_backends(64)
    moduli = [(1 << 64) - c for c in (59, 83, 95, 179, 189, 257, 323)]
    cases = 0
    for _ in range(120000):
        m = moduli[rng.randrange(len(moduli))]
        a, b = rng.randrange(m), rng.randrange(m)
        add, sub, mul = (a + b) % m, (a - b) % m, a * b % m
        for be in backends:
            assert be.addmod(a, b, m) == add
            assert be.submod(a, b, m) == sub
            assert be.mulmod(a, b, m) == mul
        cases += 9
    assert cases >= 1_000_000


def test_vector_kernels_match_scalar_ops():
    from rnsmul.basegen import build_pm_base
    from rnsmul.rnscore import RnsInt, rns_elementwise

    rng = random.Random(23)
    base = build_pm_base(8, 64)
    for kind in BACKEND_KINDS:
        vec_be = make_backend(kind, 64)
        ref_be = make_backend(kind, 64)
        for _ in range(200):
            xs = [rng.randrange(m) for m in base.moduli]
            ys = [rng.randrange(m) for m in base.moduli]
            x, y = RnsInt(tuple(xs), base), RnsInt(tuple(ys), base)
            for op, scalar in (
                ("mul", ref_be.mulmod),
                ("add", ref_be.addmod),
                ("sub", ref_be.submod),
            ):
                assert rns_elementwise(op, x, y, vec_be).residues == tuple(
                    scalar(a, b, m) for a, b, m in zip(xs, ys, base.moduli)
                )
        # identical op counts for identical work
        assert vec_be.read_counters() == ref_be.read_counters()


def dot_chain(be, values, consts, mods, k=None, M=0):
    """The per-channel redmod/mulmod/addmod chain a CRT sum stands for,
    followed by submod(., mulmod(redmod(k), M mod m)) when k is given."""
    out = []
    for m in mods:
        acc = be.mulmod(be.redmod(values[0], m), consts[0] % m, m)
        for v, c in zip(values[1:], consts[1:]):
            acc = be.addmod(acc, be.mulmod(be.redmod(v, m), c % m, m), m)
        if k is not None:
            acc = be.submod(acc, be.mulmod(be.redmod(k, m), M % m, m), m)
        out.append(acc)
    return out


def crt_kernel(be, values, src, dst, k=None):
    """The CRT kernel as the extensions run it: count_dot_mods, then
    crt_residues (k=None passes no quotient and counts no correction)."""
    be.count_dot_mods(len(values), dst.n, k)
    return crt_residues(values, src, dst, k or 0)


def test_dot_mods_matches_per_channel_op_chain():
    """The CRT kernel, one big-integer sum reduced per channel, must equal
    the per-channel redmod/mulmod/addmod chain followed by
    submod(., mulmod(redmod(k), M mod m)), in values and in counters."""
    from rnsmul.basegen import RnsBase, generate_pm_moduli

    rng = random.Random(37)
    pool = [pm.m for pm in generate_pm_moduli(12, 64)]
    src, dst = RnsBase(pool[0::2], 64), RnsBase(pool[1::2], 64)
    consts, M = src.Mi, src.M
    values = [0, src.moduli[1] - 1] + [rng.randrange(m) for m in src.moduli[2:]]
    total = sum(v * c for v, c in zip(values, consts))
    top_k = (1 << 64) - 1
    assert total - src.n * M < 0 and total - top_k * M < 0  # k overestimated
    for kind in BACKEND_KINDS:
        for k in (None, 0, src.n, top_k):
            fused = make_backend(kind, 64)
            chained = make_backend(kind, 64)
            got = crt_kernel(fused, values, src, dst, k)
            want = dot_chain(chained, values, consts, dst.moduli, k, M)
            assert got == want, (kind, k)
            assert fused.read_counters() == chained.read_counters(), (kind, k)
        # k keeps redmod's contract: a w-bit word
        with pytest.raises(ValueError, match="exceeds 64 bits"):
            make_backend(kind, 64).count_dot_mods(src.n, dst.n, 1 << 64)


@pytest.mark.parametrize("n", [5, 9, 64])
def test_dot_mods_remainder_tree_matches_op_chain(n):
    """Above TREE_LEAF destination channels crt_residues reduces through the
    destination base's remainder tree; each channel must still equal the op
    chain, for a positive sum and for a negative sum - k*M, on every kind."""
    from rnsmul.basegen import TREE_LEAF, RnsBase, generate_pm_moduli

    assert n > TREE_LEAF
    rng = random.Random(41 + n)
    pool = [pm.m for pm in generate_pm_moduli(2 * n, 64)]
    src, dst = RnsBase(pool[0::2], 64), RnsBase(pool[1::2], 64)
    values = [rng.randrange(m) for m in src.moduli]
    values[0] = src.moduli[0] - 1
    total = sum(v * c for v, c in zip(values, src.Mi))
    top_k = (1 << 64) - 1
    assert total > 0 and total - top_k * src.M < 0
    for kind in BACKEND_KINDS:
        fused = make_backend(kind, 64)
        chained = make_backend(kind, 64)
        # the second call reads the tree the first built on dst
        for k in (None, top_k):
            got = crt_kernel(fused, values, src, dst, k)
            want = dot_chain(chained, values, src.Mi, dst.moduli, k, src.M)
            assert got == want, (kind, k)
        assert fused.read_counters() == chained.read_counters(), kind


def test_dot_mods_share_the_base_tree():
    """The destination base builds its remainder tree on the first
    reduction and every backend reduces through that one object; a backend
    holds its width, its modulus bounds and its counters, and no tree or
    table."""
    from rnsmul.basegen import RnsBase, generate_pm_moduli

    pool = [pm.m for pm in generate_pm_moduli(18, 64)]
    src, dst = RnsBase(pool[0::2], 64), RnsBase(pool[1::2], 64)
    values = [m // 3 for m in src.moduli]
    first, second = make_backend("inst", 64), make_backend("modulo", 64)
    assert "tree" not in vars(dst)
    got = crt_kernel(first, values, src, dst)
    tree = vars(dst)["tree"]
    assert crt_kernel(second, values, src, dst) == got
    assert dst.tree is tree
    for be in (first, second):
        assert set(vars(be)) == {
            "width", "_m_min", "_m_max", "_m_odd", "_terms",
            "raw", "n_add", "n_sub", "n_mul", "n_red",
        }


def elimination_chain(be, values, mods):
    """Successive elimination op by op: for each digit i, every later
    channel j becomes (x_j - red(d_i)) * m_i^-1 mod m_j."""
    work = list(values)
    for i, mi in enumerate(mods):
        for j in range(i + 1, len(mods)):
            mj = mods[j]
            diff = be.submod(work[j], be.redmod(work[i], mj), mj)
            work[j] = be.mulmod(diff, pow(mi, -1, mj), mj)
    return work


def coprime_pool(rng, n, w):
    """n pairwise-coprime random w-bit moduli, none of pseudo-Mersenne form."""
    pool, M = [], 1
    while len(pool) < n:
        m = rng.randrange(3, 1 << w)
        c = (1 << w) - m
        pseudo_mersenne = c % 2 == 1 and c < 1 << (w // 2)
        if not pseudo_mersenne and math.gcd(m, M) == 1:
            pool.append(m)
            M *= m
    return pool


def test_mrs_digits_matches_op_chain():
    """Garner's form must equal the op-by-op elimination chain, in digits
    and in counters: pseudo-Mersenne bases on every kind, random coprime
    non-pseudo-Mersenne bases on modulo and inst."""
    from rnsmul.basegen import RnsBase, build_pm_base

    rng = random.Random(31)
    cases = [(build_pm_base(n, 64), tuple(BACKEND_KINDS)) for n in (5, 8, 17, 64)]
    cases += [
        (RnsBase(coprime_pool(rng, n, w), w), ("modulo", "inst"))
        for n, w in ((5, 8), (9, 31), (17, 64))
    ]
    for base, kinds in cases:
        mods = base.moduli
        inputs = [
            [0] * base.n,
            [m - 1 for m in mods],
            [rng.randrange(m) for m in mods],
            [rng.randrange(m) for m in mods],
        ]
        for kind in kinds:
            fused = make_backend(kind, base.w)
            chained = make_backend(kind, base.w)
            for values in inputs:
                got, x = mrs_digits_vec(values, base, fused)
                assert got == elimination_chain(chained, values, mods), (kind, base)
                assert x == sum(d * W for d, W in zip(got, base.weights))
            assert fused.read_counters() == chained.read_counters(), (kind, base)


def test_cost_table_pins_per_op_and_kernel_deltas():
    """One call's counter delta per kind and op, and the closed forms of
    one dot_mod chain of k=5 terms and of the mixed-radix digits on k=5
    channels (t = k(k-1)/2 elimination steps), as literal numbers."""
    k = 5
    t = k * (k - 1) // 2
    want = {
        "modulo": {
            "addmod": {"word_add": 1, "div_mod": 1},
            "submod": {"word_add": 1, "word_sub": 1, "div_mod": 1},
            "mulmod": {"word_mul": 1, "div_mod": 1},
            "redmod": {"div_mod": 1},
            "dot_mod": {"word_mul": k, "word_add": k - 1, "div_mod": 3 * k - 1},
            "mrs_digits": {"word_mul": t, "word_add": t, "word_sub": t, "div_mod": 3 * t},
        },
        "pm": {
            "addmod": {"word_add": 1, "word_sub": 1},
            "submod": {"word_add": 1, "word_sub": 1},
            "mulmod": {"word_mul": 4, "shift": 3, "mask": 3, "word_add": 3, "word_sub": 1},
            "redmod": {"word_sub": 1},
            "dot_mod": {"word_mul": 4 * k, "shift": 3 * k, "mask": 3 * k,
                        "word_add": 4 * k - 1, "word_sub": 3 * k - 1},
            "mrs_digits": {"word_mul": 4 * t, "shift": 3 * t, "mask": 3 * t,
                           "word_add": 4 * t, "word_sub": 3 * t},
        },
        "inst": {
            "addmod": {"modadd": 1},
            "submod": {"modsub": 1},
            "mulmod": {"modmul": 1},
            "redmod": {"modadd": 1},
            "dot_mod": {"modadd": 2 * k - 1, "modmul": k},
            "mrs_digits": {"modadd": t, "modsub": t, "modmul": t},
        },
    }
    base = build_base(W8_PM_MODULI, 8)
    calls = {
        "addmod": lambda be: be.addmod(200, 100, 251),
        "submod": lambda be: be.submod(10, 200, 251),
        "mulmod": lambda be: be.mulmod(250, 250, 251),
        "redmod": lambda be: be.redmod(254, 251),
        "dot_mod": lambda be: be.count_dot_mods(k, 1),
        "mrs_digits": lambda be: mrs_digits_vec([254, 1, 2, 3, 4], base, be),
    }
    for kind, rows in want.items():
        for op, row in rows.items():
            be = make_backend(kind, 8)
            calls[op](be)
            got = {f: v for f, v in be.read_counters().as_dict().items() if v}
            assert got == row, (kind, op)
            # counters is derived on each read: writing into a read changes nothing
            before = be.read_counters()
            be.counters.word_add += 1
            assert be.read_counters() == before
