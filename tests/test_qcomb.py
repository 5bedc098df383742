from fractions import Fraction as F
from time import perf_counter

import pytest

from jepq.qcomb import (
    _reduce,
    _triangle,
    _triangle_rows,
    binom2,
    euler_phi,
    euler_phi_truncation,
    gould_stirling,
    parse_scalar,
    partition_z,
    q_int,
    q_pochhammer,
    q_stirling,
    scaled_partition_z,
)

QS = (F(1, 3), F(1, 2), F(2, 3))


def classical_stirling(a, b):
    """Independent oracle: the plain second-kind triangle."""
    if b < 0 or b > a:
        return 0
    row = [1]
    for r in range(a):
        row = [
            (row[j - 1] if j >= 1 else 0) + (j * row[j] if j <= r else 0)
            for j in range(r + 2)
        ]
    return row[b]


def test_parse_scalar():
    assert parse_scalar("3/4") == F(3, 4)
    assert parse_scalar("0.25") == F(1, 4)
    assert parse_scalar("1/2", exact=False) == 0.5
    with pytest.raises(ValueError):
        parse_scalar("nope")


def test_q_int_anchors():
    q = F(1, 2)
    assert q_int(1, q) == 1
    assert q_int(3, q) == F(7, 4)
    assert q_int(0, q) == 0
    for k in range(10):
        assert q_int(k, F(1)) == k
    with pytest.raises(ValueError):
        q_int(-1, q)


@pytest.mark.parametrize("q", QS + (F(3, 2), F(2)))
def test_q_int_identities(q):
    for k in range(1, 21):
        assert q_int(k, q) == q ** (k - 1) * q_int(k, 1 / q)
        if q != 1:
            assert q_int(k, q) * (1 - q) == 1 - q**k


def test_q_pochhammer_anchors():
    q = F(1, 2)
    assert q_pochhammer(0, q) == 1
    assert q_pochhammer(2, q) == F(3, 8)
    assert q_pochhammer(3, q) == F(3, 8) * (1 - F(1, 8))


@pytest.mark.parametrize("q", QS)
def test_q_pochhammer_decreasing_and_bounded(q):
    phi = euler_phi(q)
    values = [q_pochhammer(n, q) for n in range(40)]
    for a, b in zip(values, values[1:]):
        assert b < a
    assert all(v >= phi - 1e-9 for v in values[1:])


def test_euler_phi_truncation_bound():
    n, tail = euler_phi_truncation(0.5)
    assert 0.5 ** (n + 1) / 0.5 <= 1e-9
    assert tail <= 1e-9
    # reference value of the infinite product at q = 1/2
    assert abs(euler_phi(0.5) - 0.2887880950866024) < 1e-9
    # deeper truncations agree within the certified tails
    assert abs(euler_phi(0.5) - float(q_pochhammer(50, F(1, 2)))) < 2e-9
    assert 0 < euler_phi(1 / 3) < 1
    assert euler_phi(1 / 3) > euler_phi(0.5)
    with pytest.raises(ValueError):
        euler_phi(1.5)


def test_euler_phi_truncation_caps_the_work():
    # 711 exact factors at q = 29/30 fit under the cap of 915; q near 1 is
    # refused after a few hundred exact steps instead of running for hours
    assert euler_phi_truncation(F(29, 30))[0] == 711
    with pytest.raises(ValueError, match="needs over 496 factors"):
        euler_phi_truncation(F(99999, 100000))
    assert euler_phi_truncation(0.99999)[0] == 3223603


def test_euler_phi_truncation_refuses_a_float_q_far_past_the_cap_at_once():
    # about 3.7e8 factors at q = 0.9999999: refused without multiplying 10^8 tails first
    start = perf_counter()
    with pytest.raises(ValueError, match="needs over 100000000 factors"):
        euler_phi_truncation(0.9999999)
    assert perf_counter() - start < 0.1


def test_q_stirling_anchors():
    q = F(1, 2)
    assert q_stirling(2, 1, q) == 1
    assert q_stirling(3, 2, q) == 2 * q + q**2
    for a in range(9):
        assert q_stirling(a, a, q) == q ** binom2(a)
    assert q_stirling(3, -1, q) == 0
    assert q_stirling(3, 4, q) == 0


def test_gould_anchors():
    q = F(1, 2)
    assert gould_stirling(3, 2, q) == 2 + q
    assert gould_stirling(2, 2, q) == 1
    for a in range(9):
        for b in range(a + 1):
            assert gould_stirling(a, b, F(1)) == classical_stirling(a, b)


@pytest.mark.parametrize("q", QS + (F(3, 2), F(2)))
def test_triangle_relation(q):
    for a in range(11):
        for b in range(a + 1):
            assert q_stirling(a, b, q) == q ** binom2(b) * gould_stirling(a, b, q)


def test_q_stirling_classical_limit():
    for a in range(11):
        for b in range(a + 1):
            assert q_stirling(a, b, F(1)) == classical_stirling(a, b)


@pytest.mark.parametrize("q", QS)
def test_partition_anchors(q):
    assert partition_z(2, 1, q) == 1 + 2 * q
    assert partition_z(3, 2, q) == q + 3 * q**2 + 3 * q**3
    for n in range(6):
        assert partition_z(n, n, q) == q ** binom2(n)
        assert partition_z(n + 2, 0, q) == 1


@pytest.mark.parametrize("q", QS)
def test_partition_matches_literal_formula(q):
    for m in range(9):
        for n in range(m + 1):
            literal = q ** (binom2(m + 1) - n) * q_stirling(m + 1, m - n + 1, 1 / q)
            assert partition_z(m, n, q) == literal


def test_partition_float_stays_in_range():
    # the literal formula overflows around m = 45 at q = 1/2; the scaled
    # recursion must not
    value = partition_z(50, 25, 0.5)
    assert 0 < value < 1
    exact = partition_z(50, 25, F(1, 2))
    assert abs(value - float(exact)) < 1e-15 * float(exact) * 10


def test_partition_rejects_bad_params():
    with pytest.raises(ValueError):
        partition_z(2, 3, F(1, 2))
    with pytest.raises(ValueError):
        partition_z(3, 1, F(3, 2))


# the exponent e of X[r+1, j] = q^e X[r, j-1] + [j]_q X[r, j] in each triangle
EXPONENTS = {"S": lambda r, j: j - 1, "G": lambda r, j: 0, "R": lambda r, j: r + 1 - j}


def reference_row(a, q, kind):
    """Row a rebuilt entry by entry, each q-integer summed afresh by q_int."""
    zero = 0 * q
    qpow = [1 + zero]
    for _ in range(a):
        qpow.append(qpow[-1] * q)
    row = [1 + zero]
    for r in range(a):
        row = [zero] + [
            qpow[EXPONENTS[kind](r, j)] * row[j - 1] + q_int(j, q) * (row[j] if j <= r else zero)
            for j in range(1, r + 2)
        ]
    return row


@pytest.mark.parametrize("q", (F(1, 3), F(1, 2), F(1), F(3, 2), 0.3, 2, F(1, 10**320)))
@pytest.mark.parametrize("kind", sorted(EXPONENTS))
def test_triangle_rows_match_per_entry_reference(q, kind):
    for a in range(13):
        row, reference = _triangle(a, q, kind), reference_row(a, q, kind)
        # exact equality, so float rows agree bit for bit
        assert list(row) == reference
        assert [type(v) for v in row] == [type(v) for v in reference]


@pytest.mark.parametrize("q", (F(1, 3), F(1, 2), F(2, 3), F(1), 1, 0.5))
@pytest.mark.parametrize("kind", sorted(EXPONENTS))
def test_running_rows_match_triangle(q, kind):
    # row r of one walk, reduced over b^binom(r,2), is the row `_triangle` builds alone
    rows = list(_triangle_rows(12, q, kind))
    assert len(rows) == 13
    for r, row in enumerate(rows):
        reduced = [_reduce(q, t, binom2(r)) for t in row]
        assert reduced == list(_triangle(r, q, kind))
        assert [type(v) for v in reduced] == [type(v) for v in _triangle(r, q, kind)]


@pytest.mark.parametrize("loose", (0.5, 1))
@pytest.mark.parametrize("exact_first", (False, True))
def test_row_cache_returns_the_type_of_q(loose, exact_first):
    # 0.5 == F(1, 2) and 1 == F(1) hash alike; an untyped cache would serve
    # whichever row was built first to both
    exact = F(loose)
    order = (exact, loose) if exact_first else (loose, exact)
    _triangle.cache_clear()
    for fn, a, b in (
        (q_stirling, 6, 3),
        (gould_stirling, 6, 3),
        (scaled_partition_z, 5, 2),
        (partition_z, 5, 2),
    ):
        values = [fn(a, b, q) for q in order]
        assert values[0] == values[1]
        assert [type(v) for v in values] == [type(q) for q in order]


def test_cached_rows_cannot_be_mutated():
    q = F(1, 2)
    for kind in EXPONENTS:
        row = _triangle(6, q, kind)
        assert type(row) is tuple
        with pytest.raises(TypeError):
            row[1] = F(0)
    # every public read returns one immutable entry, never the row
    reads = (q_stirling(6, 3, q), gould_stirling(6, 3, q),
             scaled_partition_z(5, 2, q), partition_z(5, 2, q))
    assert all(type(v) is F for v in reads)


def reference_q_ints(q, top):
    """[0]_q, ..., [top]_q by the generic running sum, in q's own type: the
    steps of the loop q_int ran before the integer layer, read at every k."""
    total = 0 * q
    power = 1 + 0 * q
    yield total
    for _ in range(top):
        total += power
        power = power * q
        yield total


def reference_q_pochhammers(q, top):
    """(q;q)_0, ..., (q;q)_top by the generic running product, in q's own type:
    the steps of the loop q_pochhammer ran before the integer layer."""
    result = 1 + 0 * q
    power = 1 + 0 * q
    yield result
    for _ in range(top):
        power = power * q
        result = result * (1 - power)
        yield result


@pytest.mark.parametrize("q", (0.3, 0.5, 0.999, 1e-300, 1, 2, F(1, 3), F(3, 2), F(1, 10**320)))
def test_integer_layer_matches_generic_loops(q):
    # the integer table gives the same values in the same types; floats bit for bit
    pairs = zip(range(31), reference_q_ints(q, 30), reference_q_pochhammers(q, 30))
    for k, ref_int, ref_poch in pairs:
        for got, ref in ((q_int(k, q), ref_int), (q_pochhammer(k, q), ref_poch)):
            assert got == ref and type(got) is type(ref)
            assert not isinstance(ref, float) or got.hex() == ref.hex()
