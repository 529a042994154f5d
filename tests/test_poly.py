"""arcat.poly against sympy as the oracle: factor lists, their order, and
the Euclidean identities, with planted repeated factors and p-th powers,
and negative controls that a reducible polynomial is never certified
irreducible."""

import random
import sys
from fractions import Fraction

import pytest

from _support import F101, QQ
from arcat import poly
from arcat.linalg import Field

sympy = pytest.importorskip("sympy")

F2, F3 = Field.prime(2), Field.prime(3)
T = sympy.Symbol("t")


def trim(f):
    while f and not f[-1]:
        f.pop()
    return f


def product(parts, field):
    out = [field.one()]
    for g in parts:
        out = poly.mul(out, g, field)
    return out


def to_sympy(f, field):
    cs = list(reversed(f))
    if field.is_prime_field:
        return sympy.Poly([int(c) for c in cs], T, modulus=field.p)
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in cs], T,
                      domain="QQ")


def from_sympy(p, field):
    cs = reversed(p.all_coeffs())
    if field.is_prime_field:
        return [int(c) % field.p for c in cs]
    return [Fraction(int(c.p), int(c.q)) for c in map(sympy.Rational, cs)]


def sympy_factors(f, field):
    """sympy's factor list of f, in arcat's layout and coefficient type."""
    return [(from_sympy(g, field), k) for g, k in to_sympy(f, field).factor_list()[1]]


def random_poly(field, degree, rng, monic=True):
    if field.is_prime_field:
        cs = [rng.randrange(field.p) for _ in range(degree)]
        return cs + [1 if monic else rng.randrange(1, field.p)]
    cs = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(degree)]
    return cs + [Fraction(rng.choice([-1, 1]) * rng.randint(1, 7), rng.randint(1, 5))]


def planted(field, rng):
    """A product of random pieces with multiplicities; over F_p some pieces
    are raised to p or p + 1, and some are p-th powers written g(x^p)."""
    p = field.p
    parts = []
    for _ in range(rng.randint(1, 4)):
        g = random_poly(field, rng.randint(1, 3), rng, monic=bool(p))
        mult = rng.choice([1, 1, 2, 3] + ([p, p + 1] if p and p < 5 else []))
        if p and p < 5 and rng.random() < 0.2:
            # g(x^p) = g(x)^p over F_p
            spread = [0] * (p * (len(g) - 1) + 1)
            spread[::p] = g
            g = spread
        parts += [g] * mult
    if not p:
        parts.append([Fraction(rng.randint(1, 9), rng.randint(1, 9))])  # a non-monic scalar
    return product(parts, field)


@pytest.mark.parametrize("field", [F2, F3, F101, QQ], ids=["F2", "F3", "F101", "Q"])
def test_factor_matches_sympy(field):
    rng = random.Random(20 + (field.p or 0))
    for _ in range(120):
        f = planted(field, rng)
        if len(f) > 2 and len(f) < 40:
            assert poly.factor(f, field) == sympy_factors(f, field), f


@pytest.mark.parametrize("field", [F2, F3, F101, QQ], ids=["F2", "F3", "F101", "Q"])
def test_factors_multiply_back_and_are_normalised(field):
    rng = random.Random(7)
    for _ in range(60):
        f = planted(field, rng)
        if len(f) < 2:
            continue
        factors = poly.factor(f, field)
        back = product([g for g, k in factors for _ in range(k)], field)
        # the factors are normalised, so they multiply back to a multiple of f
        ratio = field.mul(f[-1], field.inv(back[-1]))
        assert [field.mul(ratio, c) for c in back] == f
        for g, _ in factors:
            if field.p:
                assert g[-1] == 1 and all(0 <= c < field.p for c in g)
            else:
                assert g[-1] > 0 and all(isinstance(c, Fraction) and c.denominator == 1
                                         for c in g)


@pytest.mark.parametrize("field", [F2, F3, F101, QQ], ids=["F2", "F3", "F101", "Q"])
def test_squarefree_parts(field):
    rng = random.Random(11)
    for _ in range(60):
        f = planted(field, rng)
        if len(f) < 2:
            continue
        parts = poly.squarefree(f, field)
        monic = [field.mul(c, field.inv(f[-1])) for c in f]
        assert product([g for g, k in parts for _ in range(k)], field) == monic
        for g, _ in parts:
            assert g[-1] == field.one()
            derivative = trim([field.mul(field.of(i), c) for i, c in enumerate(g)][1:])
            assert poly.gcd(g, derivative, field) == [field.one()]


@pytest.mark.parametrize("field", [F2, F3, F101, QQ], ids=["F2", "F3", "F101", "Q"])
def test_gcdex_identity(field):
    rng = random.Random(13)
    for _ in range(80):
        common = random_poly(field, rng.randint(0, 2), rng)
        f = poly.mul(common, random_poly(field, rng.randint(0, 4), rng, monic=False), field)
        g = poly.mul(common, random_poly(field, rng.randint(0, 4), rng, monic=False), field)
        s, t, h = poly.gcdex(f, g, field)
        lhs = trim([field.add(a, b) for a, b in zip(
            poly.mul(s, f, field) + [field.zero()] * 2 * len(g),
            poly.mul(t, g, field) + [field.zero()] * 2 * len(f))])
        assert lhs == h and h[-1] == field.one()
        assert poly.quo_rem(f, h, field)[1] == [] == poly.quo_rem(g, h, field)[1]
        assert h == poly.gcd(f, g, field)
        assert h == from_sympy(sympy.gcd(to_sympy(f, field), to_sympy(g, field)).monic(),
                               field)


def test_powmod_and_division():
    rng = random.Random(17)
    for field in (F3, F101, QQ):
        for _ in range(20):
            f = random_poly(field, rng.randint(0, 5), rng, monic=False)
            g = random_poly(field, rng.randint(1, 4), rng, monic=False)
            q, r = poly.quo_rem(f, g, field)
            assert len(r) < len(g)
            back = poly.mul(q, g, field)
            back = trim([field.add(a, b) for a, b in zip(
                back + [field.zero()] * len(f), r + [field.zero()] * (len(back) + len(f)))])
            assert back == f
            n = rng.randint(0, 9)
            assert poly.powmod(f, n, g, field) == poly.quo_rem(
                product([f] * n, field), g, field)[1]


def as_q(*cs):
    return [Fraction(c) for c in cs]


def test_q_irreducibles_that_split_mod_every_prime():
    # x^4 + 1 and x^4 - 10x^2 + 1 are irreducible over Q, but factor modulo
    # every prime: recombination, not the first modular split, decides
    for f in (as_q(1, 0, 0, 0, 1), as_q(1, 0, -10, 0, 1)):
        assert poly.factor(f, QQ) == [(f, 1)]
        for p in (2, 3, 5, 7, 11, 13, 101):
            fp = Field.prime(p)
            modular = poly.factor([fp.of(int(c)) for c in f], fp)
            assert len(modular) > 1 or modular[0][1] > 1


def test_q_reducible_is_never_certified_irreducible():
    f = poly.mul(as_q(1, 0, 1), as_q(2, 0, 1), QQ)
    factors = poly.factor(f, QQ)
    assert factors == [(as_q(1, 0, 1), 1), (as_q(2, 0, 1), 1)]
    # scaled, and with non-monic rational factors
    g = poly.mul([Fraction(3, 7), Fraction(0), Fraction(3, 7)],
                 [Fraction(-1, 2), Fraction(0), Fraction(-1, 4)], QQ)
    assert poly.factor(g, QQ) == factors


def test_q_hard_cases_match_sympy():
    linear = product([as_q(-k, 1) for k in range(1, 9)], QQ)
    swinnerton_dyer = as_q(576, 0, -960, 0, 352, 0, -40, 0, 1)  # sqrt 2, 3, 5
    cyclotomic = as_q(1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1)  # x^13 - 1 / (x - 1)
    big = product([as_q(10 ** 6 + 3, -7, 12), as_q(-5, 0, 0, 9), as_q(2, 3)], QQ)
    for f in (linear, swinnerton_dyer, cyclotomic, big, product([big, big, linear], QQ)):
        assert poly.factor(f, QQ) == sympy_factors(f, QQ)


def test_f2_square_keeps_its_multiplicity():
    f = poly.mul([1, 1, 1], [1, 1, 1], F2)
    assert f == [1, 0, 1, 0, 1]
    assert poly.factor(f, F2) == [([1, 1, 1], 2)]


def test_f2_equal_degree_splits_by_the_trace(monkeypatch):
    """(x^3+x+1)(x^3+x^2+1) is two cubic factors over F_2, which
    Cantor-Zassenhaus separates by the trace a + a^2 + a^4, the branch of
    characteristic 2."""
    traced, add = [], poly._add

    def spying(f, g, m):
        if sys._getframe(1).f_code.co_name == "_equal_degree":
            traced.append(m)
        return add(f, g, m)

    monkeypatch.setattr(poly, "_add", spying)
    f = poly.mul([1, 1, 0, 1], [1, 0, 1, 1], F2)
    assert f == [1, 1, 1, 1, 1, 1, 1]
    assert poly.factor(f, F2) == sympy_factors(f, F2) == [([1, 1, 0, 1], 1), ([1, 0, 1, 1], 1)]
    assert traced and set(traced) == {2}


def test_factoring_leaves_other_randomness_alone():
    random.seed(3)
    expected = random.random()
    random.seed(3)
    poly.factor(product([[1, 2, 1], [3, 0, 1], [5, 1, 1], [7, 7, 1]], F101), F101)
    assert random.random() == expected
