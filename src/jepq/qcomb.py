"""q-analogue arithmetic over exact rationals or floats.

Every function here is generic in the scalar type of ``q``: pass a
`fractions.Fraction` for exact arithmetic (all verification code does) or a
`float` for fast approximate evaluation at sizes where exact values are not
needed. Nothing in this module ever rounds a rational input: q-integers, (q;q)_n
and the triangles run in integers over powers of q's denominator, from one
table, and reduce each value once.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, islice, repeat
from math import comb, isqrt, log, prod
from operator import mul, sub
from typing import Union

Scalar = Union[int, Fraction, float]
_PHI_EPS = 1e-9  # the certified tail at which `euler_phi` stops multiplying

__all__ = [
    "Scalar",
    "parse_scalar",
    "q_int",
    "q_pochhammer",
    "euler_phi",
    "euler_phi_truncation",
    "q_stirling",
    "gould_stirling",
    "scaled_partition_z",
    "partition_z",
]


def parse_scalar(text: str, exact: bool = True) -> Scalar:
    """Parse ``"p/r"`` or a decimal string; Fraction when exact, else float."""
    value = Fraction(text)
    return value if exact else float(value)


def _table(c: int, q: Scalar):
    """The one integer q-layer. With q = a/b in lowest terms (an int or float q is
    (q, 1), so a float takes the same steps with b = 1), returns a, b and the lazy
    columns N_k, a^k and b^k of the table for k = 0..c, where N_0 = 0 and
    N_(k+1) = b N_k + a^k, so that [k]_q = N_k / b^(k-1). Each column is its own
    `accumulate`, so a reader pays only for the columns it reads, one entry at a time."""
    a, b = (q, 1) if isinstance(q, float) else (q.numerator, q.denominator)
    def powers(x, count=c):
        return accumulate(repeat(x, count), mul, initial=1 + 0 * x)
    nums = accumulate(powers(a, c - 1), lambda num, power: b * num + power, initial=0 * a)
    return a, b, nums, powers(a), powers(b)


def _reduce(q: Scalar, num, e: int) -> Scalar:
    """num / b^e, reduced once: a `Fraction` for a `Fraction` q. An int or float q
    has b = 1, so the value is num itself."""
    return num if isinstance(q, (int, float)) else Fraction(num, q.denominator**e)


def q_int(k: int, q: Scalar) -> Scalar:
    """The q-integer [k]: 1 + q + ... + q^(k-1), read from the table as N_k / b^(k-1).
    The sum form rather than (1-q^k)/(1-q), so q = 1 cleanly gives k."""
    if k < 0:
        raise ValueError(f"q_int needs k >= 0, got k={k}")
    if q < 0:
        raise ValueError(f"q_int needs q >= 0, got q={q}")
    num = next(islice(_table(k, q)[2], k, None))
    return _reduce(q, num, max(k - 1, 0))  # N_0 = 0 over any power of b


def q_pochhammer(n: int, q: Scalar) -> Scalar:
    """(q;q)_n, the product of (1 - q^k) for k = 1..n; empty product is 1.
    Over the table it is prod (b^k - a^k) / b^binom(n+1,2)."""
    if n < 0:
        raise ValueError(f"q_pochhammer needs n >= 0, got n={n}")
    a, _, _, pows, bpows = _table(n, q)
    num = prod(map(sub, islice(bpows, 1, None), islice(pows, 1, None)), start=1 + 0 * a)
    return _reduce(q, num, binom2(n + 1))


def euler_phi_truncation(q: Scalar) -> tuple[int, Scalar]:
    """Truncation index and certified tail bound for the Euler product.

    The N-term partial product overshoots the infinite one by at most
    sum_{k>N} q^k = q^(N+1)/(1-q): every dropped factor (1-q^k) lies in
    (0,1), and 1 - prod(1-x_k) <= sum x_k for x_k in [0,1]. Returns the
    smallest N whose bound is <= 1e-9 (`_PHI_EPS`), together with that bound,
    or raises ValueError once N passes a cap on the work of the product.
    """
    if not 0 < q < 1:
        raise ValueError(f"need 0 < q < 1, got q={q}")
    # N exact factors hold about N^2/2 bits per bit of q's denominator
    cap = 10**8 if isinstance(q, float) else isqrt(2**22 // Fraction(q).denominator.bit_length())
    n, tail = 0, q / (1 - q)
    if isinstance(q, float) and log(_PHI_EPS * (1 - q)) / log(q) > 1.01 * cap:
        n = cap  # N = ceil(that ratio) - 1, up to rounding far under 1% of cap: refuse now
    while tail > _PHI_EPS:
        n += 1
        if n > cap:
            raise ValueError(f"the Euler product at q={q} needs over {cap} factors; use a smaller q")
        tail = tail * q
    return n, tail


def euler_phi(q: Scalar) -> Scalar:
    """prod_{k>=1} (1 - q^k), truncated once the certified tail drops below 1e-9.

    The returned value overestimates the limit by at most 1e-9 (see
    `euler_phi_truncation` for the bound).
    """
    n, _ = euler_phi_truncation(q)
    return q_pochhammer(n, q)


def _triangle_rows(size: int, q: Scalar, kind: str):
    """Rows 0..size of the triangle X[r+1, j] = q^e X[r, j-1] + [j]_q X[r, j] with
    X[0, 0] = 1 and zero outside 0 <= j <= r, where e = j-1 for kind "S", 0 for "G"
    and r+1-j for "R", in integers over `_table`: row r is held over b^binom(r,2), so
    over b^r its coefficients are q^e = a^e b^(r-e) and [j]_q = N_j b^(r+1-j)."""
    a, b, *columns = _table(size, q)
    nums, pows, bpows = map(list, columns)
    zero, row, mono, qints = 0 * a, [pows[0]], [], []
    yield row
    for r in range(size):
        if b != 1:  # the coefficients over b^r from those over b^(r-1)
            mono, qints = [x * b for x in mono], [x * b for x in qints]
        mono.append(pows[r])  # q^e = a^e b^(r-e), e = 0..r
        qints.append(nums[r + 1])  # [j]_q = N_j b^(r+1-j), j = 1..r+1
        coefs = mono if kind == "S" else mono[::-1] if kind == "R" else [bpows[r]] * (r + 1)
        right = row[1:] + [zero]
        row = [zero] + [c * left + d * below for c, left, d, below in zip(coefs, row, qints, right)]
        yield row


@lru_cache(maxsize=4, typed=True)
def _triangle(size: int, q: Scalar, kind: str) -> tuple[Scalar, ...]:
    """Row ``size`` of `_triangle_rows`, each entry reduced once. The last few rows
    are cached, keyed by the type of q as well as its value, so an exact caller
    never gets a float row."""
    if size < 0 or q < 0:
        raise ValueError(f"triangle needs size >= 0 and q >= 0, got size={size} q={q}")
    row = next(islice(_triangle_rows(size, q, kind), size, None))
    return tuple(_reduce(q, t, binom2(size)) for t in row)


def q_stirling(a: int, b: int, q: Scalar) -> Scalar:
    """q-Stirling number of the second kind S[a, b] at base q.

    Bottom-up evaluation of the triangle S[a+1, b] = q^(b-1) S[a, b-1]
    + [b] S[a, b] with S[0, 0] = 1 and zero outside 0 <= b <= a. Accepts
    any q > 0, including q > 1 (verify's literal-normalizer check
    evaluates it at base 1/q).
    Out-of-range b returns 0 rather than raising.
    """
    row = _triangle(a, q, "S")
    return row[b] if 0 <= b <= a else 0 * q


def gould_stirling(a: int, b: int, q: Scalar) -> Scalar:
    """Gould's modified q-Stirling number G[a, b] at base q.

    Same triangle as `q_stirling` without the power prefactor:
    G[a+1, b] = G[a, b-1] + [b] G[a, b]. At q = 1 both triangles reduce
    to the classical Stirling numbers of the second kind; in general
    S[a, b] = q^binom(b,2) * G[a, b].
    """
    row = _triangle(a, q, "G")
    return row[b] if 0 <= b <= a else 0 * q


def scaled_partition_z(m: int, n: int, q: Scalar) -> Scalar:
    """The normalizer with the ground state's power of q divided out:
    Z(m, n, q) / q^binom(n,2), so the ground-state probability is
    [m-n+1]^n divided by this value.

    Equals R[m+1, m-n+1] in the triangle R[r+1, j] = q^(r+1-j) R[r, j-1]
    + [j]_q R[r, j]. Only nonnegative powers of q enter, so float
    evaluation stays in range at sizes where q^binom(n,2) underflows.
    """
    if not 0 <= n <= m:
        raise ValueError(f"need 0 <= n <= m, got m={m} n={n}")
    if not 0 < q <= 1:
        raise ValueError(f"need 0 < q <= 1, got q={q}")
    return _triangle(m + 1, q, "R")[m - n + 1]


def partition_z(m: int, n: int, q: Scalar) -> Scalar:
    """Normalizing constant of the bounded geometric stationary law.

    Equals q^(binom(m+1,2) - n) * S[m+1, m-n+1] with the q-Stirling factor
    evaluated at base 1/q. (The exponent carries -n; the sign is pinned by
    the normalization tests at (m,n) = (2,1) and (3,2).) Computed as
    q^binom(n,2) times `scaled_partition_z`, whose triangle only ever
    multiplies by nonnegative powers of q, so float evaluation stays in
    range at sizes where the raw q-Stirling factor would overflow. Exact
    inputs give the exact value. q = 1 is allowed as the classical limit;
    there the result counts rook extensions, which is the normalizer of the
    uniform-throw model. A float q so small that Z underflows to 0 is
    rejected, since every probability divides by Z.
    """
    z = scaled_partition_z(m, n, q) * q ** binom2(n)
    if not z:
        raise ValueError(f"q={q} is too small: Z underflows to 0")
    return z


def binom2(k: int) -> int:
    """binom(k, 2), the exponent showing up throughout the closed forms."""
    return comb(k, 2)
