"""Reference linear algebra for the tests: Gauss-Jordan elimination in
Scalar arithmetic, independent of the polynomial kernel's integer rank
and of the Gram-Schmidt solve in rrmf.construct.

gauss_jordan_rank is the oracle of every rank the library takes, and
min_norm_solution that of the quartic's A4.
"""

from rrmf.scalars import Scalar


def _row_reduce(m: list[list[Scalar]], ncols: int) -> list[int]:
    """Gauss-Jordan elimination of m in place on its first ncols columns.

    Leaves m in reduced row echelon form and returns the pivot columns.
    """
    pivots: list[int] = []
    row = 0
    for col in range(ncols):
        pivot = next((r for r in range(row, len(m)) if not m[r][col].is_zero()), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        inv = m[row][col].inverse()
        m[row] = [c * inv for c in m[row]]
        for r in range(len(m)):
            if r != row and not m[r][col].is_zero():
                f = m[r][col]
                m[r] = [c - f * p for c, p in zip(m[r], m[row])]
        pivots.append(col)
        row += 1
        if row == len(m):
            break
    return pivots


def gauss_jordan_rank(rows) -> int:
    """Rank of the rows by Gauss-Jordan elimination."""
    m = [[Scalar.of(c) for c in row] for row in rows]
    return len(_row_reduce(m, len(m[0]))) if m else 0


def _solve(matrix, rhs):
    """(particular solution, nullspace basis) of matrix @ x = rhs, or
    None when the system is inconsistent."""
    ncols = len(matrix[0])
    aug = [[Scalar.of(c) for c in row] + [Scalar.of(v)] for row, v in zip(matrix, rhs)]
    pivots = _row_reduce(aug, ncols)
    if any(not row[ncols].is_zero() for row in aug[len(pivots):]):
        return None
    particular = [Scalar(0)] * ncols
    for r, col in enumerate(pivots):
        particular[col] = aug[r][ncols]
    nullspace = []
    for free in (c for c in range(ncols) if c not in pivots):
        vec = [Scalar(0)] * ncols
        vec[free] = Scalar(1)
        for r, col in enumerate(pivots):
            vec[col] = -aug[r][free]
        nullspace.append(vec)
    return particular, nullspace


def _dot(a, b) -> Scalar:
    return sum((x * y for x, y in zip(a, b)), Scalar(0))


def min_norm_solution(matrix, rhs):
    """(least-norm solution, solution-family dimension) of matrix @ x = rhs,
    or None when it is inconsistent: a particular solution minus its
    projection onto the nullspace, from the Gram system of the nullspace."""
    solved = _solve(matrix, rhs)
    if solved is None:
        return None
    particular, nullspace = solved
    if not nullspace:
        return particular, 0
    gram = [[_dot(u, v) for v in nullspace] for u in nullspace]
    coeffs, _ = _solve(gram, [_dot(u, particular) for u in nullspace])
    out = particular
    for c, vec in zip(coeffs, nullspace):
        out = [o - c * v for o, v in zip(out, vec)]
    return out, len(nullspace)
