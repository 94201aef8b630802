"""Quaternions over the exact scalar field.

The algebra H = R + Ri + Rj + Rk with the Hamilton product, the
Euclidean inner product of R^4, and the normalized-component map used
throughout the frame computations.
"""

from __future__ import annotations

from .scalars import ComplexScalar, Scalar, ScalarLike


class Quaternion:
    """w + x*i + y*j + z*k with exact Scalar components, immutable."""

    __slots__ = ("w", "x", "y", "z")

    def __init__(self, w: ScalarLike = 0, x: ScalarLike = 0, y: ScalarLike = 0,
                 z: ScalarLike = 0):
        object.__setattr__(self, "w", Scalar.of(w))
        object.__setattr__(self, "x", Scalar.of(x))
        object.__setattr__(self, "y", Scalar.of(y))
        object.__setattr__(self, "z", Scalar.of(z))

    def __setattr__(self, name, value):
        raise AttributeError("Quaternion is immutable")

    # -- constructors --------------------------------------------------

    @classmethod
    def of(cls, value) -> "Quaternion":
        if isinstance(value, Quaternion):
            return value
        if isinstance(value, ComplexScalar):
            return cls(value.re, value.im)
        return cls(Scalar.of(value))

    @classmethod
    def from_complex_pair(cls, alpha: ComplexScalar, beta: ComplexScalar) -> "Quaternion":
        """alpha + beta*j, the standard complex splitting."""
        return cls(alpha.re, alpha.im, beta.re, beta.im)

    # -- structure -----------------------------------------------------

    def components(self) -> tuple[Scalar, Scalar, Scalar, Scalar]:
        return (self.w, self.x, self.y, self.z)

    def complex_pair(self) -> tuple[ComplexScalar, ComplexScalar]:
        """(alpha, beta) with self = alpha + beta*j."""
        return (ComplexScalar(self.w, self.x), ComplexScalar(self.y, self.z))

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components())

    def is_pure(self) -> bool:
        return self.w.is_zero()

    def vector_part(self) -> "Quaternion":
        return Quaternion(0, self.x, self.y, self.z)

    # -- algebra ---------------------------------------------------------

    def __add__(self, other) -> "Quaternion":
        other = Quaternion.of(other)
        return Quaternion(self.w + other.w, self.x + other.x,
                          self.y + other.y, self.z + other.z)

    __radd__ = __add__

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def __sub__(self, other) -> "Quaternion":
        return self + (-Quaternion.of(other))

    def __rsub__(self, other) -> "Quaternion":
        return (-self) + Quaternion.of(other)

    def __mul__(self, other) -> "Quaternion":
        """Hamilton product (i*j = k, j*i = -k)."""
        q = Quaternion.of(other)
        a, b, c, d = self.w, self.x, self.y, self.z
        e, f, g, h = q.w, q.x, q.y, q.z
        return Quaternion(
            a * e - b * f - c * g - d * h,
            a * f + b * e + c * h - d * g,
            a * g - b * h + c * e + d * f,
            a * h + b * g - c * f + d * e,
        )

    def __rmul__(self, other) -> "Quaternion":
        return Quaternion.of(other) * self

    def scale(self, s: ScalarLike) -> "Quaternion":
        s = Scalar.of(s)
        return Quaternion(self.w * s, self.x * s, self.y * s, self.z * s)

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def norm_sq(self) -> Scalar:
        return (self.w * self.w + self.x * self.x
                + self.y * self.y + self.z * self.z)

    def inverse(self) -> "Quaternion":
        n = self.norm_sq()
        if n.is_zero():
            raise ZeroDivisionError("inverse of zero quaternion")
        return self.conjugate().scale(n.inverse())

    def inner(self, other: "Quaternion") -> Scalar:
        """Euclidean inner product of R^4."""
        other = Quaternion.of(other)
        return (self.w * other.w + self.x * other.x
                + self.y * other.y + self.z * other.z)

    def cross(self, other: "Quaternion") -> "Quaternion":
        """Vector cross product of the pure parts."""
        a, b = self.vector_part(), Quaternion.of(other).vector_part()
        return Quaternion(
            0,
            a.y * b.z - a.z * b.y,
            a.z * b.x - a.x * b.z,
            a.x * b.y - a.y * b.x,
        )

    # -- comparison / conversion ---------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, Quaternion):
            return self.components() == other.components()
        try:
            return self == Quaternion.of(other)
        except TypeError:
            return NotImplemented

    def __hash__(self):
        return hash(self.components())

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __repr__(self):
        return f"Quaternion({self.w}, {self.x}, {self.y}, {self.z})"


ONE = Quaternion(1)
I = Quaternion(0, 1)
J = Quaternion(0, 0, 1)
K = Quaternion(0, 0, 0, 1)


def normalized_component(x: Quaternion, y: Quaternion) -> Scalar:
    """<x,y>/<y,y>: oriented length of the projection of x onto y in |y| units."""
    y = Quaternion.of(y)
    n = y.norm_sq()
    if n.is_zero():
        raise ZeroDivisionError("normalized component along the zero quaternion")
    return Quaternion.of(x).inner(y) / n
