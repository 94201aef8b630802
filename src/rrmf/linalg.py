"""Exact linear algebra over the scalar field (small dense systems)."""

from __future__ import annotations

from .scalars import Scalar


def _nonzero(s: Scalar) -> bool:
    return not s.is_zero()


def _row_reduce(m: list[list[Scalar]], ncols: int) -> list[int]:
    """Gauss-Jordan elimination of m in place on its first ncols columns.

    Leaves m in reduced row echelon form and returns the pivot columns.
    """
    pivots: list[int] = []
    row = 0
    for col in range(ncols):
        pivot = next((r for r in range(row, len(m)) if _nonzero(m[r][col])), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        inv = m[row][col].inverse()
        m[row] = [c * inv for c in m[row]]
        for r in range(len(m)):
            if r != row and _nonzero(m[r][col]):
                f = m[r][col]
                m[r] = [c - f * p for c, p in zip(m[r], m[row])]
        pivots.append(col)
        row += 1
        if row == len(m):
            break
    return pivots


def exact_rank(rows: list[list[Scalar]]) -> int:
    """Rank by fraction-exact Gaussian elimination."""
    m = [[Scalar.of(c) for c in row] for row in rows]
    if not m:
        return 0
    return len(_row_reduce(m, len(m[0])))


def solve_exact(matrix: list[list[Scalar]], rhs: list[Scalar]
                ) -> tuple[list[Scalar], list[list[Scalar]]] | None:
    """Solve matrix @ x = rhs exactly.

    Returns (particular solution, nullspace basis), or None when the
    system is inconsistent.
    """
    ncols = len(matrix[0]) if matrix else 0
    aug = [[Scalar.of(c) for c in row] + [Scalar.of(rhs[r])]
           for r, row in enumerate(matrix)]
    pivots = _row_reduce(aug, ncols)
    for r in range(len(pivots), len(aug)):
        if _nonzero(aug[r][ncols]):
            return None
    particular = [Scalar(0)] * ncols
    for r, col in enumerate(pivots):
        particular[col] = aug[r][ncols]
    free = [c for c in range(ncols) if c not in pivots]
    nullspace = []
    for fc in free:
        vec = [Scalar(0)] * ncols
        vec[fc] = Scalar(1)
        for r, col in enumerate(pivots):
            vec[col] = -aug[r][fc]
        nullspace.append(vec)
    return particular, nullspace


def min_norm_solution(matrix: list[list[Scalar]], rhs: list[Scalar]
                      ) -> tuple[list[Scalar], int] | None:
    """Minimal-Euclidean-norm solution and the solution-family dimension.

    Subtracts from a particular solution its exact orthogonal projection
    onto the nullspace (Gram system solved exactly).
    """
    solved = solve_exact(matrix, rhs)
    if solved is None:
        return None
    particular, nullspace = solved
    if not nullspace:
        return particular, 0
    k = len(nullspace)
    gram = [[_dot(nullspace[r], nullspace[c]) for c in range(k)] for r in range(k)]
    proj_rhs = [_dot(nullspace[r], particular) for r in range(k)]
    coeffs, _ = solve_exact(gram, proj_rhs)
    out = list(particular)
    for c, vec in zip(coeffs, nullspace):
        out = [o - c * v for o, v in zip(out, vec)]
    return out, k


def _dot(a: list[Scalar], b: list[Scalar]) -> Scalar:
    acc = Scalar(0)
    for x, y in zip(a, b):
        acc = acc + x * y
    return acc
