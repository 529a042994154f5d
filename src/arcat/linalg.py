"""Exact dense linear algebra over a prime field F_p or the rationals.

Everything in the package funnels its linear algebra through this module so
that determinism is decided in one place: reduced row echelon form with the
pivot list, solving with free variables pinned to zero, and kernel bases read
off the echelon form in free-column order.  No floating point anywhere.

Over F_p entries are ints in [0, p) and the kernels do their arithmetic
inline.  Over Q the echelon form and the product never combine Fractions:
they turn the entries into integer numerators over one common denominator,
eliminate or multiply on the integers, and build one Fraction per nonzero
output entry at the end (fraction-free elimination: Bareiss, Math. Comp. 22,
1968; von zur Gathen and Gerhard, Modern Computer Algebra, ch. 5).  Every
zero they output is the field's shared zero and every pivot the shared one:
a fresh Fraction for each zero would cost more than the elimination saves.
"""

from fractions import Fraction
from itertools import chain, compress
from math import gcd, lcm
from operator import mul
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

# Miller-Rabin with the first 13 prime bases is exact below this bound
# (Sorenson-Webster, Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; ValueError at or above _MR_LIMIT."""
    if n >= _MR_LIMIT:
        raise ValueError(f"modulus {n} is too large to certify as prime")
    if n < 2 or any(n % b == 0 for b in _MR_BASES):
        return n in _MR_BASES
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """A coefficient field, either F_p (p prime) or Q.

    Elements of F_p are ints in [0, p); elements of Q are Fraction.  The
    class only carries the arithmetic, values are plain Python objects; zero
    and one are shared (Fractions are immutable).
    """

    def __init__(self, p: Optional[int] = None):
        if p is not None:
            if not _is_prime(p):
                raise ValueError(f"modulus {p} is not prime")
        self.p = p
        self._zero, self._one = (0, 1) if p is not None else (Fraction(0), Fraction(1))

    @classmethod
    def prime(cls, p: int) -> "Field":
        return cls(p)

    @classmethod
    def rationals(cls) -> "Field":
        return cls(None)

    @property
    def is_prime_field(self) -> bool:
        return self.p is not None

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def of(self, n) -> object:
        """Coerce an int or a Fraction into the field; over F_p, a/b maps to
        a * b^-1, and ZeroDivisionError when p divides b."""
        if self.p is not None:
            if isinstance(n, int):
                return n % self.p
            if isinstance(n, Fraction):
                return n.numerator * self.inv(n.denominator) % self.p
            return int(n) % self.p
        return Fraction(n)

    def add(self, a, b):
        return (a + b) % self.p if self.p is not None else a + b

    def sub(self, a, b):
        return (a - b) % self.p if self.p is not None else a - b

    def mul(self, a, b):
        return (a * b) % self.p if self.p is not None else a * b

    def neg(self, a):
        return (-a) % self.p if self.p is not None else -a

    def inv(self, a):
        if self.p is not None:
            if a % self.p == 0:
                raise ZeroDivisionError("inverse of zero")
            return pow(a, self.p - 2, self.p)
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        # a/b in lowest terms has the inverse b/a, in lowest terms too
        return Fraction(a.denominator, a.numerator)

    def random(self, rng) -> object:
        if self.p is not None:
            return rng.randrange(self.p)
        return Fraction(rng.randrange(-4, 5))

    def __eq__(self, other):
        return self is other or (isinstance(other, Field) and self.p == other.p)

    def __hash__(self):
        return hash(("Field", self.p))

    def __repr__(self):
        return f"F_{self.p}" if self.p is not None else "Q"


class Mat:
    """An immutable rows x cols matrix over a Field, entries row major.

    Zero rows or columns are legal; empty matrices show up constantly as
    hom spaces of zero modules and must compose cleanly.

    Over F_p every entry is an int in [0, p), as Field's arithmetic returns
    it; callers that build data by hand reduce it first (Field.of does).
    The F_p rref relies on this: it rewrites only the entries a row
    operation changes, and passes the others through as they are.  Over Q
    every entry is a Fraction; rref and products read them as integer
    numerators and write every output entry anew, each zero as the shared
    Field.zero() and each pivot as the shared Field.one() (module
    docstring).
    """

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field: Field, rows: int, cols: int, data: Sequence):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        if len(data) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(data)}")
        self.field = field
        self.rows = rows
        self.cols = cols
        self.data = tuple(data)

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "Mat":
        return cls(field, rows, cols, [field.zero()] * (rows * cols))

    @classmethod
    def identity(cls, field: Field, n: int) -> "Mat":
        z, o = field.zero(), field.one()
        return cls(field, n, n, [o if i == j else z for i in range(n) for j in range(n)])

    @classmethod
    def from_rows(cls, field: Field, rows: Sequence[Sequence]) -> "Mat":
        r = len(rows)
        c = len(rows[0]) if r else 0
        flat = []
        for row in rows:
            if len(row) != c:
                raise ValueError("ragged rows")
            flat.extend(field.of(x) for x in row)
        return cls(field, r, c, flat)

    @classmethod
    def column(cls, field: Field, entries: Sequence) -> "Mat":
        return cls(field, len(entries), 1, [field.of(x) for x in entries])

    def at(self, i: int, j: int):
        return self.data[i * self.cols + j]

    def row(self, i: int) -> Tuple:
        return self.data[i * self.cols:(i + 1) * self.cols]

    def col(self, j: int) -> Tuple:
        return tuple(self.data[i * self.cols + j] for i in range(self.rows))

    def to_lists(self) -> List[List]:
        return [list(self.row(i)) for i in range(self.rows)]

    def is_zero(self) -> bool:
        z = self.field.zero()
        return all(x == z for x in self.data)

    def __eq__(self, other):
        return (isinstance(other, Mat) and self.field == other.field
                and self.rows == other.rows and self.cols == other.cols
                and self.data == other.data)

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def __repr__(self):
        return f"Mat({self.rows}x{self.cols} over {self.field})"

    def __add__(self, other: "Mat") -> "Mat":
        self._check_same_shape(other)
        add = self.field.add
        return Mat(self.field, self.rows, self.cols,
                   [add(a, b) for a, b in zip(self.data, other.data)])

    def __sub__(self, other: "Mat") -> "Mat":
        self._check_same_shape(other)
        sub = self.field.sub
        return Mat(self.field, self.rows, self.cols,
                   [sub(a, b) for a, b in zip(self.data, other.data)])

    def __neg__(self) -> "Mat":
        neg = self.field.neg
        return Mat(self.field, self.rows, self.cols, [neg(a) for a in self.data])

    def scale(self, c) -> "Mat":
        mul = self.field.mul
        c = self.field.of(c) if isinstance(c, int) else c
        return Mat(self.field, self.rows, self.cols, [mul(c, a) for a in self.data])

    def __matmul__(self, other: "Mat") -> "Mat":
        """The exact product self @ other.

        Over F_p the path is chosen from the shapes and the zero count of
        self's entries alone, and every path returns the same ints in
        [0, p):

        - an empty product (a zero dimension) is the zero matrix at once;
        - an outer product (one inner index) and a matrix-vector product
          (one output column) take one comprehension each: thousands of
          them, most 1 x 1, run per workload, so any set-up would cost
          more than the arithmetic;
        - an inner dimension of 2 or 3 takes one comprehension with the dot
          product written out: for the many 2 x 2 x 2 and 3 x 3 x 3
          products of small modules' action matrices, a map object per
          entry would cost more than the arithmetic too;
        - a left factor sparse enough for its shape builds each output row
          from the rows of other at its nonzero entries, reduced mod p once
          per row (Gustavson, ACM TOMS 4, 1978): products of End-algebra
          matrices are mostly zero, and the zero entries cost nothing;
        - any other left factor takes one C-level dot product per entry,
          sum(map(mul, row, col)) % p, over columns of other sliced once.

        Over Q the same integer products run on the numerators of both
        factors over their common denominators (`_q_product`).
        """
        if self.field != other.field:
            raise ValueError("field mismatch")
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        f = self.field
        n, m, k = self.rows, other.cols, self.cols
        if f.p is not None:
            out = _fp_product(self.data, other.data, n, k, m, f.p)
        else:
            out = _q_product(self.data, other.data, n, k, m, f.zero())
        return Mat(f, n, m, out)

    def transpose(self) -> "Mat":
        return Mat(self.field, self.cols, self.rows,
                   [self.data[i * self.cols + j]
                    for j in range(self.cols) for i in range(self.rows)])

    def _check_same_shape(self, other: "Mat"):
        if self.field != other.field or self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape or field mismatch")

    def rref(self) -> Tuple["Mat", Tuple[int, ...]]:
        """Reduced row echelon form and the tuple of pivot column indices.

        Leading entries are 1 and are the only nonzero entries in their
        columns.  Deterministic: pivots are chosen top-down by first nonzero
        entry in column order.

        Over F_p row operations are sparse, with the arithmetic inlined:
        the pivot row is scaled at its nonzero entries from the pivot column
        on (the earlier ones are already zero), and another row is updated
        only where the pivot row is nonzero.  Every other entry passes
        through as it came in, so the result lies in [0, p) only because
        the input does (see the class docstring).  Over Q the elimination
        runs on integer rows (`_q_rref`).
        """
        f = self.field
        p = f.p
        rows, cols = self.rows, self.cols
        if p is None:
            flat, pivots = _q_rref(self.data, rows, cols, f.zero(), f.one())
            return Mat(f, rows, cols, flat), pivots
        m = self.to_lists()
        pivots = []
        r = 0
        for j in range(cols):
            sel = None
            for i in range(r, rows):
                if m[i][j]:
                    sel = i
                    break
            if sel is None:
                continue
            m[r], m[sel] = m[sel], m[r]
            prow = m[r]
            inv = f.inv(prow[j])
            support = []
            for k in range(j, cols):
                y = prow[k]
                if y:
                    y = y * inv % p
                    prow[k] = y
                    support.append((k, y))
            for i in range(rows):
                row = m[i]
                c = row[j]
                if i == r or not c:
                    continue
                for k, y in support:
                    row[k] = (row[k] - c * y) % p
            pivots.append(j)
            r += 1
            if r == rows:
                break
        flat = [x for row in m for x in row]
        return Mat(f, rows, cols, flat), tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel_basis(self) -> "Mat":
        """Columns form the canonical basis of the right null space.

        Read off the rref: one basis vector per free column, with 1 in the
        free slot and minus the rref entries in the pivot slots, ordered by
        free column index.
        """
        f = self.field
        R, pivots = self.rref()
        pivset = set(pivots)
        free = [j for j in range(self.cols) if j not in pivset]
        z, o = f.zero(), f.one()
        cols = []
        for fc in free:
            v = [z] * self.cols
            v[fc] = o
            for i, pc in enumerate(pivots):
                v[pc] = f.neg(R.at(i, fc))
            cols.append(v)
        flat = [cols[j][i] for i in range(self.cols) for j in range(len(free))]
        return Mat(f, self.cols, len(free), flat)

    def column_space_basis(self) -> Tuple["Mat", Tuple[int, ...]]:
        """Pivot columns of the original matrix, plus their indices."""
        _, pivots = self.rref()
        f = self.field
        flat = [self.at(i, j) for i in range(self.rows) for j in pivots]
        return Mat(f, self.rows, len(pivots), flat), pivots

    def inverse(self) -> Optional["Mat"]:
        if self.rows != self.cols:
            return None
        x = solve(self, Mat.identity(self.field, self.rows))
        if x is None:
            return None
        if (self @ x) != Mat.identity(self.field, self.rows):
            return None
        if (x @ self) != Mat.identity(self.field, self.rows):
            return None
        return x


def _fp_product(a: Tuple, b: Tuple, n: int, k: int, m: int, p: int) -> List:
    """Row-major entries of the n x k by k x m product of the F_p data a
    and b, on the path Mat.__matmul__ describes."""
    if not (n and k and m):
        return [0] * (n * m)
    if k == 1:
        return [x * y % p for x in a for y in b]
    if m == 1:
        return [sum(map(mul, a[i:i + k], b)) % p for i in range(0, n * k, k)]
    if k == 2:
        cols = list(zip(b[:m], b[m:]))
        return [(x0 * y0 + x1 * y1) % p for x0, x1 in zip(a[::2], a[1::2]) for y0, y1 in cols]
    if k == 3:
        cols = list(zip(b[:m], b[m:2 * m], b[2 * m:]))
        return [(x0 * y0 + x1 * y1 + x2 * y2) % p
                for x0, x1, x2 in zip(a[::3], a[1::3], a[2::3]) for y0, y1, y2 in cols]
    # the row path costs about 2 (10 + m) units per nonzero entry of a, the
    # dense path about 8 + k per output entry (timed on shapes up to
    # 48 x 4 x 48 at densities 0.1, 0.5 and 1)
    if 2 * (n * k - a.count(0)) * (10 + m) < n * m * (8 + k):
        out = [0] * (n * m)
        i0 = -1
        acc = None
        for pos in compress(range(n * k), a):
            i, t = divmod(pos, k)
            x = a[pos]
            brow = b[t * m:t * m + m]
            if i != i0:
                if acc is not None:
                    out[i0 * m:i0 * m + m] = [u % p for u in acc]
                    acc = None
                i0 = i
                # a row's first term is stored reduced; b's entries already
                # are, so a unit coefficient copies the row of b
                out[i * m:i * m + m] = brow if x == 1 else [x * y % p for y in brow]
            else:
                if acc is None:
                    acc = out[i * m:i * m + m]
                acc = [u + x * y for u, y in zip(acc, brow)]
        if acc is not None:
            out[i0 * m:i0 * m + m] = [u % p for u in acc]
        return out
    cols = [b[j::m] for j in range(m)]
    rows = [a[i:i + k] for i in range(0, n * k, k)]
    return [sum(map(mul, row, col)) % p for row in rows for col in cols]


def _q_numerators(entries: Sequence, z) -> Tuple[List[int], int]:
    """Integer numerators of the Q entries over their least common
    denominator, and that denominator.  The shared zero z is recognised by
    identity, which costs less than reading its numerator."""
    den = lcm(*[x.denominator for x in entries if x is not z])
    if den == 1:
        return [0 if x is z else x.numerator for x in entries], 1
    return [0 if x is z else x.numerator * (den // x.denominator) for x in entries], den


def _q_product(a: Tuple, b: Tuple, n: int, k: int, m: int, z) -> List:
    """Row-major entries of the n x k by k x m product of the Q data a and
    b: C-level integer dot products sum(map(mul, row, col)) of numerator
    rows and columns (one product per entry for one inner index, as in
    _fp_product), over the product of the two common denominators.  One
    Fraction per nonzero entry, the shared zero z for the others."""
    if not (n and k and m):
        return [z] * (n * m)
    an, ad = _q_numerators(a, z)
    bn, bd = _q_numerators(b, z)
    if k == 1:
        sums = [x * y for x in an for y in bn]
    else:
        cols = [bn[j::m] for j in range(m)]
        sums = [sum(map(mul, an[i:i + k], col)) for i in range(0, n * k, k) for col in cols]
    den = ad * bd
    if den == 1:
        return [Fraction(s) if s else z for s in sums]
    return [Fraction(s, den) if s else z for s in sums]


def _q_rref(data: Tuple, rows: int, cols: int, z, o) -> Tuple[List, Tuple[int, ...]]:
    """Row-major entries and pivots of the reduced row echelon form of the
    Q data, by fraction-free Gauss-Jordan elimination on integer rows (cf.
    Bareiss, Math. Comp. 22, 1968, which divides by the previous pivot
    where this takes out contents).

    The rows are the numerators over one common denominator (scaling a row
    leaves the row space, hence the rref, as it is).  A pivot row is made
    primitive with a positive pivot a.  Clearing column j of another row,
    whose entry there is c, is plain elimination, row - c prow at the
    nonzero entries of prow, when a = 1; otherwise the row becomes
    a row - c prow with a and c divided by gcd(a, c), divided in turn by
    its content, so entries grow no more than the row space needs.  Each
    pivot row is divided by its pivot once, at the end: the pivot becomes
    the shared one o, zeros the shared zero z, and every other entry one
    Fraction.
    """
    if not (rows and cols):
        return [], ()
    nums = _q_numerators(data, z)[0]
    m = [nums[i:i + cols] for i in range(0, rows * cols, cols)]
    pivots = []
    r = 0
    for j in range(cols):
        sel = None
        for i in range(r, rows):
            if m[i][j]:
                sel = i
                break
        if sel is None:
            continue
        prow = m[sel]
        g = gcd(*prow)
        if prow[j] < 0:
            g = -g
        if g != 1:
            prow = [x // g for x in prow]
        m[sel], m[r] = m[r], prow
        a = prow[j]
        support = None
        for i in range(rows):
            row = m[i]
            c = row[j]
            if i == r or not c:
                continue
            if a == 1:
                if support is None:
                    support = [(k, y) for k, y in enumerate(prow[j:], j) if y]
                for k, y in support:
                    row[k] -= c * y
                continue
            g = gcd(a, c)
            ag, cg = a // g, c // g
            row = [ag * x - cg * y for x, y in zip(row, prow)]
            g = gcd(*row)
            m[i] = [x // g for x in row] if g > 1 else row
        pivots.append(j)
        r += 1
        if r == rows:
            break
    flat = []
    for i, j in enumerate(pivots):
        row, a = m[i], m[i][j]
        if a == 1:
            row = [Fraction(x) if x else z for x in row]
        else:
            row = [Fraction(x, a) if x else z for x in row]
        row[j] = o
        flat += row
    flat += [z] * ((rows - r) * cols)
    return flat, tuple(pivots)


def solve(a: Mat, b: Mat) -> Optional[Mat]:
    """Solve a @ x = b exactly, multi column rhs; None if inconsistent.

    Among all solutions returns the canonical one with every free variable
    equal to zero.  A k-column b costs one elimination, and column j of the
    result is exactly solve(a, column j of b); the result is None as soon as
    any one column is inconsistent.
    """
    if a.field != b.field or a.rows != b.rows:
        raise ValueError("incompatible solve operands")
    f = a.field
    aug = hstack([a, b])
    R, pivots = aug.rref()
    for j in pivots:
        if j >= a.cols:
            return None
    z = f.zero()
    out = [[z] * b.cols for _ in range(a.cols)]
    for i, pc in enumerate(pivots):
        for j in range(b.cols):
            out[pc][j] = R.at(i, a.cols + j)
    return Mat(f, a.cols, b.cols, [x for row in out for x in row])


def hstack(mats: Sequence[Mat]) -> Mat:
    """The blocks side by side; one block is returned as it is (a Mat is
    immutable).  Each row of the result is the same row of every block,
    sliced off its data straight into one flat list.  For many thin blocks,
    with a quarter as many columns as (row, block) pairs or fewer, each
    column is sliced off its block instead and zip reads the rows across
    them: fewer slices, for a per-entry cost that the row path does not
    have (the threshold was timed on the hstack calls of the tensor-q and
    complexes-rep benchmark workloads)."""
    if not mats:
        raise ValueError("hstack of nothing")
    first = mats[0]
    if len(mats) == 1:
        return first
    f, rows = first.field, first.rows
    blocks = []
    cols = 0
    for m in mats:
        if m.rows != rows or (m.field is not f and m.field != f):
            raise ValueError("hstack row or field mismatch")
        blocks.append((m.data, m.cols))
        cols += m.cols
    if 4 * cols <= rows * len(blocks):
        columns = [data[j::c] for data, c in blocks for j in range(c)]
        return Mat(f, rows, cols, tuple(chain.from_iterable(zip(*columns))))
    flat = []
    for i in range(rows):
        for data, c in blocks:
            flat += data[i * c:i * c + c]
    return Mat(f, rows, cols, flat)


def vstack(mats: Sequence[Mat]) -> Mat:
    if not mats:
        raise ValueError("vstack of nothing")
    f = mats[0].field
    cols = mats[0].cols
    if any(m.cols != cols or m.field != f for m in mats):
        raise ValueError("vstack column or field mismatch")
    flat = []
    for m in mats:
        flat.extend(m.data)
    return Mat(f, sum(m.rows for m in mats), cols, flat)


def block_diag(field: Field, mats: Sequence[Mat]) -> Mat:
    """The block-diagonal matrix of mats, in order: one flat list of zeros,
    with each block row sliced into place."""
    rows, cols = sum([m.rows for m in mats]), sum([m.cols for m in mats])
    flat = [field.zero()] * (rows * cols)
    start = c0 = 0
    for m in mats:
        if m.field is not field and m.field != field:
            raise ValueError("field mismatch")
        c, data = m.cols, m.data
        for i in range(m.rows):
            flat[start + c0:start + c0 + c] = data[i * c:i * c + c]
            start += cols
        c0 += c
    return Mat(field, rows, cols, flat)


def kron(a: Mat, b: Mat) -> Mat:
    """Kronecker product, (a kron b)[i*br+k, j*bc+l] = a[i,j] * b[k,l]."""
    if a.field != b.field:
        raise ValueError("field mismatch")
    f = a.field
    mul = f.mul
    rows, cols = a.rows * b.rows, a.cols * b.cols
    out = [f.zero()] * (rows * cols)
    for i in range(a.rows):
        for j in range(a.cols):
            aij = a.at(i, j)
            for k in range(b.rows):
                base = (i * b.rows + k) * cols + j * b.cols
                for l in range(b.cols):
                    out[base + l] = mul(aij, b.at(k, l))
    return Mat(f, rows, cols, out)


def equation_matrix(field: Field, shapes: Dict[Hashable, Tuple[int, int]],
                    equations: Sequence[Tuple[int, int, Sequence]]) -> Mat:
    """Coefficient matrix of a system of matrix equations in unknowns X_u.

    `shapes` maps each unknown to its (rows, cols); the unknowns are laid out
    row major, one after another in the order of `shapes`.  An equation
    (p, q, terms) is p x q and gives one row per entry, row major; a term
    (sign, a, u, b) with sign +1 or -1 stands for sign * a X_u b, where a or
    b may be None for the identity.  Entries follow the row-major vec
    identity vec(a X b) = (a kron b^T) vec(X) without forming the product.
    A term's entry goes straight into a slot that still holds the shared
    zero; it is added only where two terms meet, as in the naturality square
    of an endomorphism.  Entries are reduced, so zero + v would be v itself,
    of the same type, over F_p and over Q.
    """
    offs = {}
    total = 0
    for u, (r, c) in shapes.items():
        offs[u] = total
        total += r * c
    add, mul, neg, zero = field.add, field.mul, field.neg, field.zero()
    out = []
    rows = 0
    for p, q, terms in equations:
        if p * q == 0:
            continue
        rows += p * q
        block = [zero] * (p * q * total)
        for sign, a, u, b in terms:
            ur, uc = shapes[u]
            a_shape = (p, p) if a is None else (a.rows, a.cols)
            b_shape = (q, q) if b is None else (b.rows, b.cols)
            if a_shape != (p, ur) or b_shape != (uc, q):
                raise ValueError(f"term in unknown {u!r} does not fit a {p}x{q} equation")
            if a is None and b is None:
                a = Mat.identity(field, p)
            # the sign goes on the first factor that is not the identity
            left = _entries(a, p, sign < 0, neg)
            right = _entries(b, q, sign < 0 and a is None, neg)
            base = offs[u]
            for r, i, av in left:
                for j, s, bv in right:
                    v = bv if av is None else av if bv is None else mul(av, bv)
                    idx = (r * q + s) * total + base + i * uc + j
                    block[idx] = v if block[idx] is zero else add(block[idx], v)
        out.extend(block)
    return Mat(field, rows, total, out)


def _entries(m: Optional[Mat], n: int, negate: bool, neg) -> List[Tuple]:
    """(row, col, value) of the nonzero entries of m, or of -m when negate;
    None is the n x n identity, with value None for one."""
    if m is None:
        return [(k, k, None) for k in range(n)]
    return [(k // m.cols, k % m.cols, neg(v) if negate else v)
            for k, v in enumerate(m.data) if v]


def split_blocks(field: Field, shapes: Dict[Hashable, Tuple[int, int]],
                 values: Sequence) -> Dict[Hashable, Mat]:
    """Cut a row-major vector into matrices of the given shapes, in order;
    the inverse of the layout of `equation_matrix`."""
    out = {}
    pos = 0
    for u, (r, c) in shapes.items():
        out[u] = Mat(field, r, c, values[pos:pos + r * c])
        pos += r * c
    if pos != len(values):
        raise ValueError(f"expected {pos} entries, got {len(values)}")
    return out
