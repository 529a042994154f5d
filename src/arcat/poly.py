"""Dense univariate polynomials over F_p and Q, and their factorisation.

A polynomial is a list of coefficients, lowest degree first, with no
trailing zeros (the zero polynomial is []): the layout in which
TableAlgebra.minimal_polynomial returns a minimal polynomial.  Coefficients
are elements of a linalg.Field: ints in [0, p) over F_p, Fractions over Q.

The private helpers take a modulus m instead of a field: arithmetic is in
Z/m when m is an int and exact (ints or Fractions) when m is None, so the
same code serves F_p, Q, and Z/p^l during Hensel lifting.

Factoring follows von zur Gathen and Gerhard, Modern Computer Algebra,
ch. 14-15.  Over F_p: squarefree decomposition (with the p-th root step),
distinct-degree factorisation, and equal-degree splitting by
Cantor-Zassenhaus (Math. Comp. 36, 1981), whose random choices come from
a generator with a fixed seed, so a factorisation never consumes anyone
else's randomness.  Over Q: Zassenhaus.  Each squarefree part is made a
primitive integer polynomial, factored modulo the least prime that keeps
it squarefree and its degree, Hensel lifted modulo p^l beyond twice the
Landau-Mignotte bound, and the lifted factors are recombined by subsets of
increasing size, each candidate accepted only when it divides exactly.
"""

import random
from fractions import Fraction
from itertools import combinations
from math import gcd as _igcd, isqrt, lcm
from typing import List, Optional, Tuple

from .linalg import Field, _is_prime

Poly = List

# seed of the Cantor-Zassenhaus splitting; the factors do not depend on it
_SPLIT_SEED = 1981


def _trim(f: Poly) -> Poly:
    while f and not f[-1]:
        f.pop()
    return f


def _red(f, m) -> Poly:
    return _trim([c % m for c in f] if m else list(f))


def _one(m):
    return 1 if m else Fraction(1)


def _inv(c, m):
    return pow(c, -1, m) if m else 1 / Fraction(c)


def _add(f, g, m) -> Poly:
    if len(f) < len(g):
        f, g = g, f
    return _red([a + b for a, b in zip(f, g)] + list(f[len(g):]), m)


def _sub(f, g, m) -> Poly:
    return _add(f, [-c for c in g], m)


def _scale(f, c, m) -> Poly:
    return _red([c * a for a in f], m)


def _mul(f, g, m) -> Poly:
    if not f or not g:
        return []
    out = [0 * f[0]] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return _red(out, m)


def _divmod(f, g, m) -> Tuple[Poly, Poly]:
    """(q, r) with f = q g + r and deg r < deg g; lc(g) a unit."""
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    dg = len(g) - 1
    if len(f) <= dg:
        return [], list(f)
    inv = _inv(g[-1], m)
    r = list(f)
    q = [None] * (len(f) - dg)
    for k in range(len(q) - 1, -1, -1):
        c = r[k + dg] * inv
        if m:
            c %= m
        q[k] = c
        if c:
            for i in range(dg):
                r[k + i] -= c * g[i]
            if m:
                for i in range(dg):
                    r[k + i] %= m
    return _trim(q), _red(r[:dg], m)


def _monic(f, m) -> Poly:
    return _scale(f, _inv(f[-1], m), m) if f else []


def _gcd(f, g, m) -> Poly:
    """The monic gcd over a field (m prime or None)."""
    while g:
        f, g = g, _divmod(f, g, m)[1]
    return _monic(f, m)


def _gcdex(f, g, m) -> Tuple[Poly, Poly, Poly]:
    """(s, t, h) with s f + t g = h, h the monic gcd (m prime or None)."""
    r0, r1 = list(f), list(g)
    s0, s1, t0, t1 = [_one(m)], [], [], [_one(m)]
    while r1:
        q, r = _divmod(r0, r1, m)
        r0, r1 = r1, r
        s0, s1 = s1, _sub(s0, _mul(q, s1, m), m)
        t0, t1 = t1, _sub(t0, _mul(q, t1, m), m)
    if not r0:
        return s0, t0, r0
    c = _inv(r0[-1], m)
    return _scale(s0, c, m), _scale(t0, c, m), _scale(r0, c, m)


def _powmod(f, n: int, g, m) -> Poly:
    """f^n mod g, by repeated squaring."""
    out, base = [_one(m)], _divmod(f, g, m)[1]
    while n:
        if n & 1:
            out = _divmod(_mul(out, base, m), g, m)[1]
        n >>= 1
        if n:
            base = _divmod(_mul(base, base, m), g, m)[1]
    return _divmod(out, g, m)[1]


def _deriv(f, m) -> Poly:
    return _red([i * c for i, c in enumerate(f)][1:], m)


def _squarefree(f, m) -> List[Tuple[Poly, int]]:
    """(g, k) with f = prod g^k, the g squarefree, monic and coprime; f monic
    of positive degree, m a prime or None (characteristic 0)."""
    out: List[Tuple[Poly, int]] = []
    stack = [(f, 1)]
    while stack:
        f, mult = stack.pop()
        d = _deriv(f, m)
        if not d:
            # f' = 0 in characteristic p: f(x) = g(x^p) = g(x)^p over F_p
            stack.append((f[::m], mult * m))
            continue
        c = _gcd(f, d, m)
        w = _divmod(f, c, m)[0]
        i = 1
        while len(w) > 1:
            y = _gcd(w, c, m)
            part = _divmod(w, y, m)[0]
            if len(part) > 1:
                out.append((part, mult * i))
            w, c, i = y, _divmod(c, y, m)[0], i + 1
        if len(c) > 1:
            # what is left has f' = 0: a p-th power
            stack.append((c[::m], mult * m))
    return out


def _distinct_degree(f, p) -> List[Tuple[Poly, int]]:
    """(g, d) with g the product of the irreducible factors of degree d of
    a squarefree monic f over F_p."""
    out = []
    x = [0, 1]
    h, d = x, 0
    while len(f) - 1 >= 2 * (d + 1):
        d += 1
        h = _powmod(h, p, f, p)  # x^(p^d) mod f
        g = _gcd(_sub(h, x, p), f, p)
        if len(g) > 1:
            out.append((g, d))
            f = _divmod(f, g, p)[0]
            h = _divmod(h, f, p)[1]
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _equal_degree(f, d: int, p: int, rng: random.Random) -> List[Poly]:
    """The irreducible factors of a squarefree monic f over F_p whose
    irreducible factors all have degree d (Cantor-Zassenhaus)."""
    n = len(f) - 1
    if n == d:
        return [f]
    while True:
        a = _trim([rng.randrange(p) for _ in range(n)])
        if len(a) < 2:
            continue
        g = _gcd(a, f, p)
        if len(g) == 1:
            if p == 2:
                # the trace a + a^2 + ... + a^(2^(d-1)) is 0 or 1 in every
                # component field F_(2^d)
                b, t = a, a
                for _ in range(d - 1):
                    t = _divmod(_mul(t, t, p), f, p)[1]
                    b = _add(b, t, p)
            else:
                # a^((p^d - 1)/2) is 1 or -1 in every component field
                b = _sub(_powmod(a, (p ** d - 1) // 2, f, p), [1], p)
            g = _gcd(b, f, p)
        if 1 < len(g) < len(f):
            break
    return (_equal_degree(g, d, p, rng)
            + _equal_degree(_divmod(f, g, p)[0], d, p, rng))


def _factor_squarefree_fp(f, p, rng) -> List[Poly]:
    """Irreducible monic factors of a squarefree monic f over F_p."""
    return [u for g, d in _distinct_degree(f, p) for u in _equal_degree(g, d, p, rng)]


def _primitive_z(f) -> List[int]:
    """The primitive integer multiple of a nonzero rational f with positive
    leading coefficient."""
    den = lcm(*(Fraction(c).denominator for c in f))
    ints = [int(c * den) for c in f]
    cont = _igcd(*ints)
    if ints[-1] < 0:
        cont = -cont
    return [c // cont for c in ints]


def _exact_quo_z(f, g) -> Optional[List[int]]:
    """f / g when g divides f in Z[x], else None."""
    dg = len(g) - 1
    if len(f) <= dg:
        return None
    r = list(f)
    q = [0] * (len(f) - dg)
    for k in range(len(q) - 1, -1, -1):
        c, rem = divmod(r[k + dg], g[-1])
        if rem:
            return None
        q[k] = c
        for i in range(dg + 1):
            r[k + i] -= c * g[i]
    return None if any(r) else q


def _hensel_step(f, g, h, s, t, m):
    """von zur Gathen-Gerhard, Algorithm 15.10: from f = g h and s g + t h = 1
    mod m, h monic, the same identities mod m^2."""
    mm = m * m
    e = _sub(f, _mul(g, h, mm), mm)
    q, r = _divmod(_mul(s, e, mm), h, mm)
    g = _add(g, _add(_mul(t, e, mm), _mul(q, g, mm), mm), mm)
    h = _add(h, r, mm)
    b = _sub(_add(_mul(s, g, mm), _mul(t, h, mm), mm), [1], mm)
    c, d = _divmod(_mul(s, b, mm), h, mm)
    return g, h, _sub(s, d, mm), _sub(t, _add(_mul(t, b, mm), _mul(c, g, mm), mm), mm)


def _hensel_lift(f, factors, p, pl) -> List[Poly]:
    """Monic u_i with f = lc(f) prod u_i mod pl and u_i = factors[i] mod p,
    for pl a power of p and f mod p squarefree with those monic factors."""
    if len(factors) == 1:
        return [_monic(_red(f, pl), pl)]
    k = len(factors) // 2
    g, h = [f[-1] % p], [1]
    for u in factors[:k]:
        g = _mul(g, u, p)
    for u in factors[k:]:
        h = _mul(h, u, p)
    s, t, _ = _gcdex(g, h, p)
    m = p
    while m < pl:
        g, h, s, t = _hensel_step(f, g, h, s, t, m)
        m *= m
    return (_hensel_lift(_red(g, pl), factors[:k], p, pl)
            + _hensel_lift(_red(h, pl), factors[k:], p, pl))


def _zassenhaus(f, rng) -> List[List[int]]:
    """Irreducible factors of a squarefree primitive f in Z[x] with positive
    leading coefficient, each primitive with positive leading coefficient."""
    n = len(f) - 1
    if n == 1:
        return [f]
    # the least prime that keeps f's degree and keeps f squarefree
    p = 2
    while True:
        if _is_prime(p) and f[-1] % p:
            fp = _red(f, p)
            if len(_gcd(fp, _deriv(fp, p), p)) == 1:
                break
        p += 1
    modular = _factor_squarefree_fp(_monic(fp, p), p, rng)
    if len(modular) == 1:
        return [f]
    # a factor h of f is found as lc(f)/lc(h) h, whose coefficients are at
    # most 2^n |f|_2 <= sqrt(n + 1) 2^n |f|_inf (Landau-Mignotte); the
    # bound of Algorithm 15.19 carries one more factor lc(f)
    bound = (isqrt(n + 1) + 1) * 2 ** n * max(abs(c) for c in f) * f[-1]
    pl = p
    while pl <= 2 * bound:
        pl *= p
    lifted = _hensel_lift(f, modular, p, pl)
    out = []
    rest = list(range(len(lifted)))
    size = 1
    while 2 * size <= len(rest):
        for subset in combinations(rest, size):
            g = [f[-1]]
            for i in subset:
                g = _mul(g, lifted[i], pl)
            g = _primitive_z([c - pl if 2 * c > pl else c for c in g])
            q = _exact_quo_z(f, g)
            if q is not None:
                out.append(g)
                f = q
                rest = [i for i in rest if i not in subset]
                break
        else:
            size += 1
    out.append(f)
    return out


def factor(f: Poly, field: Field) -> List[Tuple[Poly, int]]:
    """Irreducible factors of a nonzero f with their multiplicities, in the
    order of sympy's Poly.factor_list: by degree, then multiplicity, then
    the coefficients read from the leading one.  Over F_p the factors are
    monic; over Q they are primitive integer polynomials (as Fractions) with
    positive leading coefficient.  A constant has no factors."""
    if not f:
        raise ZeroDivisionError("factoring the zero polynomial")
    if len(f) == 1:
        return []
    m = field.p
    rng = random.Random(_SPLIT_SEED)
    out = []
    for g, k in _squarefree(_monic(f, m), m):
        if m:
            out += [(u, k) for u in _factor_squarefree_fp(g, m, rng)]
        else:
            out += [([Fraction(c) for c in u], k)
                    for u in _zassenhaus(_primitive_z(g), rng)]
    out.sort(key=lambda uk: (len(uk[0]), uk[1], uk[0][::-1]))
    return out


def mul(f: Poly, g: Poly, field: Field) -> Poly:
    return _mul(f, g, field.p)


def quo_rem(f: Poly, g: Poly, field: Field) -> Tuple[Poly, Poly]:
    """(q, r) with f = q g + r and deg r < deg g."""
    return _divmod(f, g, field.p)


def gcd(f: Poly, g: Poly, field: Field) -> Poly:
    """The monic greatest common divisor ([] when both are zero)."""
    return _gcd(f, g, field.p)


def gcdex(f: Poly, g: Poly, field: Field) -> Tuple[Poly, Poly, Poly]:
    """(s, t, h) with s f + t g = h, the monic gcd."""
    return _gcdex(f, g, field.p)


def powmod(f: Poly, n: int, g: Poly, field: Field) -> Poly:
    """f^n mod g for n >= 0."""
    return _powmod(f, n, g, field.p)


def squarefree(f: Poly, field: Field) -> List[Tuple[Poly, int]]:
    """(g, k) with monic f = prod g^k, the g squarefree, monic and pairwise
    coprime, valid in every characteristic."""
    return _squarefree(_monic(f, field.p), field.p) if len(f) > 1 else []
