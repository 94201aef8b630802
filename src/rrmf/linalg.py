"""Exact rank of rows of at most three scalars, by the library's one rank
algorithm: the columns become real polynomials for polynomials.vector_rank."""

from .polynomials import RealPoly, vector_rank


def exact_rank(rows) -> int:
    """Rank over the field of rows of at most three scalars each."""
    if any(len(row) > 3 for row in rows):
        raise ValueError("exact_rank takes rows of at most three scalars")
    columns = zip(*([*row, 0, 0, 0][:3] for row in rows))
    return vector_rank(*(RealPoly(list(c)) for c in columns)) if rows else 0
