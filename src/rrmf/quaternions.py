"""Quaternions over the exact scalar field.

The algebra H = R + Ri + Rj + Rk with the Hamilton product, the
Euclidean inner product of R^4 and the vector cross product.  The
Hamilton product is stated once, as the table ``_HAMILTON``, which
Quaternion (through the ring base in rrmf.scalars) and QuatPoly's
integer kernel both multiply by.
"""

from __future__ import annotations

from .scalars import Scalar, ScalarLike, _Ring

# e_i e_j = sign e_k on the basis (1, i, j, k): i j = k, j i = -k, ...
_HAMILTON = (
    (0, 0, 0, 1), (0, 1, 1, 1), (0, 2, 2, 1), (0, 3, 3, 1),
    (1, 0, 1, 1), (2, 0, 2, 1), (3, 0, 3, 1),
    (1, 1, 0, -1), (2, 2, 0, -1), (3, 3, 0, -1),
    (1, 2, 3, 1), (2, 1, 3, -1), (2, 3, 1, 1), (3, 2, 1, -1),
    (3, 1, 2, 1), (1, 3, 2, -1))


class Quaternion(_Ring):
    """w + x*i + y*j + z*k with exact Scalar components, immutable."""

    __slots__ = ()
    width, table = 4, _HAMILTON
    w = property(lambda self: self.parts[0])
    x = property(lambda self: self.parts[1])
    y = property(lambda self: self.parts[2])
    z = property(lambda self: self.parts[3])

    def __init__(self, w: ScalarLike = 0, x: ScalarLike = 0, y: ScalarLike = 0,
                 z: ScalarLike = 0):
        super().__init__(w, x, y, z)

    # -- structure -----------------------------------------------------

    def components(self) -> tuple[Scalar, Scalar, Scalar, Scalar]:
        return self.parts

    def is_pure(self) -> bool:
        return self.w.is_zero()

    def vector_part(self) -> "Quaternion":
        return Quaternion(0, self.x, self.y, self.z)

    def inner(self, other: "Quaternion") -> Scalar:
        """Euclidean inner product of R^4, the real part of self conj(other)."""
        return (self * Quaternion.of(other).conjugate()).w

    def cross(self, other: "Quaternion") -> "Quaternion":
        """Vector cross product of the pure parts: for pure a and b,
        a b = -<a, b> + a x b."""
        return (self.vector_part() * Quaternion.of(other).vector_part()).vector_part()


ONE = Quaternion(1)
I = Quaternion(0, 1)
J = Quaternion(0, 0, 1)
K = Quaternion(0, 0, 0, 1)
