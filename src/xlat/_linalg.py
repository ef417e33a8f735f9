"""Small exact linear algebra over Fraction (dims <= ~10 throughout)."""

from fractions import Fraction


def frac_rows(rows):
    return [[Fraction(x) for x in r] for r in rows]


def rref(rows):
    """Reduced row echelon form; returns (rows, pivot_columns)."""
    mat = frac_rows(rows)
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return [row for row in mat[:r]], pivots


def row_space_contains(rref_rows, pivots, v):
    """Membership of v in the row space given an rref basis."""
    vec = [Fraction(x) for x in v]
    for row, c in zip(rref_rows, pivots):
        if vec[c] != 0:
            f = vec[c]
            vec = [a - f * b for a, b in zip(vec, row)]
    return not any(vec)


def nullspace(rows, ncols):
    """Basis of {v : rows * v = 0} over Q (list of Fraction vectors)."""
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for row, pc in zip(red, pivots):
            v[pc] = -row[fc]
        basis.append(v)
    return basis


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    out = [[Fraction(0)] * m for _ in range(n)]
    for i in range(n):
        ai = a[i]
        for t in range(k):
            x = ai[t]
            if x:
                bt = b[t]
                row = out[i]
                for j in range(m):
                    row[j] += x * bt[j]
    return out


def mat_vec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def transpose(a):
    return [list(col) for col in zip(*a)]


def trace(a):
    return sum(a[i][i] for i in range(len(a)))


def charpoly(a):
    """Characteristic polynomial det(xI - A) via Faddeev-LeVerrier.

    Returns coefficients lowest degree first (Fractions), monic.
    """
    n = len(a)
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    m = identity(n)
    c = Fraction(1)
    for k in range(1, n + 1):
        m = mat_mul(a, m)
        c = -trace(m) / k
        coeffs[n - k] = c
        for i in range(n):
            m[i][i] += c
    return coeffs

