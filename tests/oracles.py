"""Slow, independent routines the tests compare the library against."""

from sympy import GF, Poly, symbols
from sympy.polys.matrices import DomainMatrix

import skewlin._fppoly as fp
from skewlin import _graywalk, _linalg, decompose
from skewlin.hfe import to_multivariate
from skewlin.skew import SkewPoly


def factor_monic(m: list[int], p: int) -> list[tuple[list[int], int]]:
    """Complete factorization of monic m over Z_p by trial division.

    Candidates are enumerated degree by degree in the iter_monic order, so
    the returned (factor, multiplicity) list is deterministic and sorted.
    Divisions go through fp.divmod_, looked up per call, so a spy on it
    counts them.  Intended for desk-scale inputs only.
    """
    work = fp.trim(list(m))
    if fp.degree(work) < 1:
        return []
    out: list[tuple[list[int], int]] = []
    d = 1
    while 2 * d <= fp.degree(work):
        for cand in fp.iter_monic(p, d):
            mult = 0
            while True:
                q, r = fp.divmod_(work, cand, p)
                if r:
                    break
                work = q
                mult += 1
            if mult:
                out.append((cand, mult))
            if 2 * d > fp.degree(work):
                break
        d += 1
    if fp.degree(work) >= 1:
        out.append((work, 1))
    return out


def matmul(a, b, p: int) -> list[list[int]]:
    """The product of two matrices over Z_p, as lists of row lists."""
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        for k in range(inner):
            v = a[i][k]
            if v:
                for j in range(cols):
                    out[i][j] = (out[i][j] + v * b[k][j]) % p
    return out


def decompose_by_split_once(f, rng):
    """decompose_complete as it ran before its parts carried the minimal
    polynomials their splits proved: split_once on every part, depth
    first, left before right."""
    unit = f.lead
    g = f.monic_left()
    factors = []
    stack = [g] if g.degree >= 1 else []
    while stack:
        h = stack.pop()
        res = decompose.split_once(h, rng)
        if isinstance(res, decompose.Indecomposable):
            factors.append(h)
        else:
            stack += (res.right, res.left)
    return decompose.Decomposition(field=f.field, twist=f.twist, unit=unit, factors=tuple(factors))


def central_charpoly(f) -> Poly:
    """chi_f, the characteristic polynomial over Z_p of the central Y^e
    acting on R/Rf (Ore's module view), a sympy Poly modulo p.

    Y^e t^d Y^i = t^d Y^(e+i), so the column of the Z_p-basis element
    t^d Y^i (d < e, i < deg f) is the digits of t^d Y^(e+i) mod f, taken
    by this module's ring division; sympy takes the characteristic
    polynomial over GF(p).  Nothing of decompose runs.  Multiplicative
    along a factorisation (R right / R f = R / R left for f = left right),
    and for an irreducible f with twist coprime to e it is nu^e, nu
    irreducible of degree deg f.
    """
    field, n = f.field, f.degree
    p, e = field.p, field.e
    g = f.monic_left()
    cols = []
    for i in range(n):
        for d in range(e):
            digits = [0] * e
            digits[d] = 1
            y = SkewPoly.monomial(field, e + i, field.element(tuple(digits)), f.twist)
            rem = divmod_right(y, g)[1]
            col = [x for c in rem.coeffs for x in c.digits]
            cols.append(col + [0] * (n * e - len(col)))
    K = GF(p)
    size = n * e
    matrix = DomainMatrix([[K(col[r]) for col in cols] for r in range(size)], (size, size), K)
    return Poly([int(c) for c in matrix.charpoly()], symbols("x"), modulus=p)


def rref(a, p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form and pivot columns, indexing every entry:
    the reference for the incremental elimination of _linalg."""
    m = [list(row) for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c] % p), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = pow(m[r][c], p - 2, p)
        m[r] = [(x * inv) % p for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(m[i][j] - f * m[r][j]) % p for j in range(cols)]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def nullspace(a, p: int) -> list[list[int]]:
    """Basis of {v : a v = 0} from rref, one vector per free column in order."""
    if not a:
        return []
    cols = len(a[0])
    m, pivots = rref(a, p)
    basis = []
    for free in (c for c in range(cols) if c not in pivots):
        v = [0] * cols
        v[free] = 1
        for row, pc in enumerate(pivots):
            v[pc] = (-m[row][free]) % p
        basis.append(v)
    return basis


def inv(a, p: int):
    """The inverse of the square matrix a from rref of [a | I], or None."""
    n = len(a)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    m, pivots = rref(aug, p)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in m]


# ----------------------------------------------------------------------
# the skew ring's loops on FqElem coefficients, as the ring ran before it
# moved to coefficient indices; each takes and returns SkewPolys (or
# elements), built through the public constructor


def _sigma(f, a, n):
    """sigma^n(a) in the ring of f, n may be negative."""
    return a.frobenius((f.twist * n) % f.field.e)


def skew_mul(a, b):
    """a * b, every term sigma^i(b_j) a_i summed into slot i + j."""
    field = a.field
    if a.is_zero or b.is_zero:
        return SkewPoly.zero(field, a.twist)
    ac, bc = a.coeffs, b.coeffs
    out = [field.zero()] * (len(ac) + len(bc) - 1)
    for i, ai in enumerate(ac):
        for j, bj in enumerate(bc):
            out[i + j] = out[i + j] + ai * _sigma(a, bj, i)
    return SkewPoly(field, out, a.twist)


def skew_add(a, b):
    """a + b, the FqElem coefficients summed slot by slot."""
    field = a.field
    n = max(len(a.coeffs), len(b.coeffs))
    pad = lambda cs: list(cs) + [field.zero()] * (n - len(cs))
    return SkewPoly(field, [x + y for x, y in zip(pad(a.coeffs), pad(b.coeffs))], a.twist)


def left_scalar(a, c):
    return SkewPoly(a.field, [c * x for x in a.coeffs], a.twist)


def right_scalar(a, c):
    return SkewPoly(a.field, [x * _sigma(a, c, i) for i, x in enumerate(a.coeffs)], a.twist)


def divmod_right(a, g):
    """q, r with a = q * g + r, by cancelling the top of r with sigma^k(g)."""
    field, gc = a.field, g.coeffs
    n = len(gc) - 1
    r = list(a.coeffs)
    q = [field.zero()] * max(len(r) - n, 0)
    g_inv = gc[-1].inv()
    while len(r) > n:
        k = len(r) - 1 - n
        c = q[k] = r[-1] * _sigma(a, g_inv, k)
        for i, gi in enumerate(gc):
            r[i + k] = r[i + k] - c * _sigma(a, gi, k)
        del r[-1]
        while r and not r[-1]:
            del r[-1]
    return SkewPoly(field, q, a.twist), SkewPoly(field, r, a.twist)


def divmod_left(a, g):
    """q, r with a = g * q + r, by cancelling the top of r with g sigma^-n(c)."""
    field, gc = a.field, g.coeffs
    n = len(gc) - 1
    r = list(a.coeffs)
    q = [field.zero()] * max(len(r) - n, 0)
    g_inv = gc[-1].inv()
    while len(r) > n:
        k = len(r) - 1 - n
        c = q[k] = _sigma(a, g_inv * r[-1], -n)
        for i, gi in enumerate(gc):
            r[i + k] = r[i + k] - gi * _sigma(a, c, i)
        del r[-1]
        while r and not r[-1]:
            del r[-1]
    return SkewPoly(field, q, a.twist), SkewPoly(field, r, a.twist)


def euclid(f, g, divmod_):
    """The last nonzero remainder of Euclid's loop on f and g under the
    division divmod_, and the number of divisions it made."""
    a, b, steps = f, g, 0
    while not b.is_zero:
        a, b, steps = b, divmod_(a, b)[1], steps + 1
    return a, steps


def gcd_right(f, g):
    """Monic gcrd: the last remainder of right division, made monic on the left."""
    a = euclid(f, g, divmod_right)[0]
    return left_scalar(a, a.coeffs[-1].inv())


def gcd_left(f, g):
    """Monic gcld: the last remainder of left division times the c with
    lead * sigma^n(c) = 1 on the right."""
    a = euclid(f, g, divmod_left)[0]
    return right_scalar(a, _sigma(a, a.coeffs[-1].inv(), -(len(a.coeffs) - 1)))


def times_y(a, f):
    """(t, Y a - t f) for a residue a of the monic f, t the coefficient of
    Y^(deg f) in Y a."""
    field, n = f.field, f.degree
    shifted = [field.zero()] + [_sigma(f, c, 1) for c in a.coeffs]
    shifted += [field.zero()] * (n + 1 - len(shifted))
    top = shifted[n]
    shifted = [c - top * fc for c, fc in zip(shifted, f.coeffs)]
    return top, SkewPoly(field, shifted[:n], f.twist)


def combine(coeffs, rows, f):
    """sum_k coeffs[k] rows[k], residues of f."""
    field = f.field
    out = [field.zero()] * f.degree
    for c, row in zip(coeffs, rows):
        for i, t in enumerate(row.coeffs):
            out[i] = out[i] + c * t
    return SkewPoly(field, out, f.twist)


def step_quotient(a, rows, f):
    """sum_i a_i q_i with q_i = sum_(m<i) sigma^(m+1)(c_(i-m-1)) Y^m, c_k
    the coefficient of Y^(deg f - 1) in rows[k]."""
    field, n = f.field, f.degree
    tops = [row.coeffs[n - 1] if row.degree == n - 1 else field.zero() for row in rows]
    cs = a.coeffs
    out = []
    for m in range(len(cs) - 1):
        acc = field.zero()
        for i in range(m + 1, len(cs)):
            acc = acc + cs[i] * _sigma(f, tops[i - m - 1], m + 1)
        out.append(acc)
    return SkewPoly(field, out, f.twist)


# ----------------------------------------------------------------------
# the DOPoly loops on FqElem coefficients, as they ran before DOPoly moved
# to element indices; each reads the public terms of its DOPoly operands
# and returns exponent -> nonzero FqElem coefficient (or a SkewPoly, or an
# element), so nothing here reads the index storage


def digit_indices(x, p):
    """The indices of exponent x by its base-p digits, with multiplicity."""
    out, k = [], 0
    while x:
        x, d = divmod(x, p)
        out += [k] * d
        k += 1
    return tuple(out)


def fold(x, q):
    """The exponent of X^x modulo X^q - X."""
    return (x - 1) % (q - 1) + 1 if x else 0


def sum_terms(pairs):
    """Exponent -> sum of the FqElem coefficients paired with it, zero sums dropped."""
    acc = {}
    for x, c in pairs:
        acc[x] = acc[x] + c if x in acc else c
    return {x: c for x, c in acc.items() if c}


def do_parts(D):
    """(quad, lin, const) of D read off the digits of its exponents."""
    field, p = D.field, D.field.p
    quad, lin, const = {}, {}, field.zero()
    for x, c in D.terms.items():
        idx = digit_indices(x, p)
        if len(idx) == 2:
            quad[idx] = c
        elif idx:
            lin[idx[0]] = c
        else:
            const = c
    n = max(lin, default=-1) + 1
    return quad, SkewPoly(field, [lin.get(k, field.zero()) for k in range(n)]), const


def do_add(A, B):
    return sum_terms([*A.terms.items(), *B.terms.items()])


def do_neg(A):
    return sum_terms([(x, -c) for x, c in A.terms.items()])


def do_reduce(A):
    q = A.field.q
    return sum_terms([(fold(x, q), c) for x, c in A.terms.items()])


def do_eval(A, x):
    """A(x), one power of x per term."""
    acc = A.field.zero()
    for y, c in A.terms.items():
        acc = acc + c * x**y
    return acc


def do_compose_lin(L, D, side, reduce=False):
    """L(D(X)) on the left, D(L(X)) on the right, term by term."""
    field = D.field
    p, q = field.p, field.q
    terms = [(k, b) for k, b in enumerate(L.coeffs) if b]
    pairs = []
    for x, c in D.terms.items():
        if side == "left":
            pairs += [(x * p**k, b * c.frobenius(k)) for k, b in terms]
            continue
        parts = [(0, c)]
        for i in digit_indices(x, p):
            row = [(p ** (k + i), b.frobenius(i)) for k, b in terms]
            parts = [(y + z, v * w) for y, v in parts for z, w in row]
        pairs += parts
    if reduce:
        pairs = [(fold(x, q), c) for x, c in pairs]
    return sum_terms(pairs)


def difference_poly(D, a):
    """D(X + a) - D(X) - D(a) for a constant-free D, from its quadratic terms."""
    field, e = D.field, D.field.e
    orbit = [a.frobenius(k) for k in range(e)]
    acc = {}
    for (i, j), c in do_parts(D)[0].items():
        for k, v in ((i, c * orbit[j % e]), (j, c * orbit[i % e])):
            acc[k] = acc[k] + v if k in acc else v
    n = max(acc, default=-1) + 1
    return SkewPoly(field, [acc.get(k, field.zero()) for k in range(n)])


def frobenius_orbits(field):
    """[x, x^p, .., x^(p^(e-1))] for every x of the field, by element
    index, by repeated p-th powers."""
    p, e = field.p, field.e
    orbits = []
    for x in field.elements():
        orbit = [x]
        while len(orbit) < e:
            orbit.append(orbit[-1] ** p)
        orbits.append(orbit)
    return orbits


def additive_table(L, orbits):
    """[L(x) for every x of the field, by element index]: sum_i c_i
    x^(p^(twist i)), the powers read off the orbits of frobenius_orbits
    (x^(p^e) = x), with no reduction of L and no matrix."""
    field, e = L.field, L.field.e
    terms = [(c, L.twist * i % e) for i, c in enumerate(L.coeffs) if c]
    out = []
    for orbit in orbits:
        acc = field.zero()
        for c, k in terms:
            acc = acc + c * orbit[k]
        out.append(acc)
    return out


# ----------------------------------------------------------------------
# the key-pair check as it ran before it composed the secret half


def keypair_consistent_by_differences(kp):
    """Whether S . D . T = E, read as maps F_p^e -> F_p^e on basis
    coordinates: x -> E's coordinate forms at x against x -> S·D(T·x),
    with S and T their Z_p matrices and D the core's coordinate forms.
    Both have degree at most 2, so they are equal exactly when their
    _graywalk.differences are."""
    p, e = kp.public.field.p, kp.public.field.e
    outer = kp.secret.outer.to_matrix()
    inner = kp.secret.inner.to_matrix()
    core = to_multivariate(kp.secret.core).evaluate

    def secret(x):
        return _linalg.matvec(outer, core(_linalg.matvec(inner, x, p)), p)

    public = kp.public.multivariate.evaluate
    return _graywalk.differences(p, e, public) == _graywalk.differences(p, e, secret)
