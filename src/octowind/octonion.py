"""Octonion arithmetic and the 7-component winding one-form.

The algebra is generated from the signed multiplication table of the seven
imaginary units.  All operations are pure functions on immutable values and
every array-valued helper broadcasts over a leading batch axis, which is what
the path simulators rely on.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

# Oriented triples (i, j, k) with e_i e_j = e_k; each is cyclic and fully
# antisymmetric under swaps.
_TRIPLES = (
    (1, 2, 3),
    (1, 4, 5),
    (1, 7, 6),
    (2, 4, 6),
    (2, 5, 7),
    (3, 4, 7),
    (3, 6, 5),
)


def _build_structure_tensor() -> np.ndarray:
    """Build M with e_i e_j = sum_k M[i, j, k] e_k from the oriented triples."""
    m = np.zeros((8, 8, 8))
    for j in range(8):
        m[0, j, j] = 1.0
        m[j, 0, j] = 1.0
    for i in range(1, 8):
        m[i, i, :] = 0.0
        m[i, i, 0] = -1.0
    for i, j, k in _TRIPLES:
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            m[a, b, c] = 1.0
            m[b, a, c] = -1.0
    return m


def _self_test(m: np.ndarray) -> np.ndarray:
    # Antisymmetry of distinct imaginary units and norm multiplicativity on a
    # fixed random sample; both must hold for any admissible table.
    for i in range(1, 8):
        for j in range(1, 8):
            if i != j and not np.array_equal(m[i, j], -m[j, i]):
                raise AssertionError(f"multiplication table not antisymmetric at ({i},{j})")
    rng = np.random.default_rng(20240901)
    x = rng.standard_normal((32, 8))
    y = rng.standard_normal((32, 8))
    xy = np.einsum("ni,nj,ijk->nk", x, y, m)
    lhs = np.sum(xy * xy, axis=1)
    rhs = np.sum(x * x, axis=1) * np.sum(y * y, axis=1)
    if not np.allclose(lhs, rhs, rtol=1e-12):
        raise AssertionError("multiplication table violates norm multiplicativity")
    m.setflags(write=False)
    return m


#: Structure tensor of the algebra, validated once at import time.
STRUCTURE = _self_test(_build_structure_tensor())


class Octonion:
    """An element of the 8-dimensional normed division algebra.

    Immutable; components are stored as a read-only float array in the basis
    e0..e7.  ``*`` is the (non-associative) octonion product for two
    octonions and componentwise scaling for a real factor.
    """

    __slots__ = ("c",)

    def __init__(self, components):
        c = np.asarray(components, dtype=float)
        if c.shape != (8,):
            raise ValueError(f"expected 8 components, got shape {c.shape}")
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "c", c)

    def __setattr__(self, name, value):
        raise AttributeError("Octonion is immutable")

    @classmethod
    def basis(cls, j: int) -> "Octonion":
        c = np.zeros(8)
        c[j] = 1.0
        return cls(c)

    @classmethod
    def zero(cls) -> "Octonion":
        return cls(np.zeros(8))

    @classmethod
    def one(cls) -> "Octonion":
        return cls.basis(0)

    def __repr__(self):
        return "Octonion(" + ", ".join(f"{v:.6g}" for v in self.c) + ")"

    def __eq__(self, other):
        return isinstance(other, Octonion) and np.array_equal(self.c, other.c)

    def __hash__(self):
        return hash(self.c.tobytes())

    def __add__(self, other):
        return Octonion(self.c + other.c)

    def __sub__(self, other):
        return Octonion(self.c - other.c)

    def __neg__(self):
        return Octonion(-self.c)

    def __mul__(self, other):
        if isinstance(other, Octonion):
            return mul(self, other)
        return Octonion(self.c * float(other))

    def __rmul__(self, other):
        return Octonion(self.c * float(other))

    def __truediv__(self, other):
        return Octonion(self.c / float(other))


def mul(a: Octonion, b: Octonion) -> Octonion:
    """Octonion product, bilinear in both arguments."""
    return Octonion(np.einsum("i,j,ijk->k", a.c, b.c, STRUCTURE))


def conj(a: Octonion) -> Octonion:
    """Conjugate: fixes e0, negates e1..e7."""
    c = a.c.copy()
    c[1:] = -c[1:]
    return Octonion(c)


def norm_sq(a: Octonion) -> float:
    """Squared norm, the sum of squared components."""
    return float(np.dot(a.c, a.c))


def norm(a: Octonion) -> float:
    return float(np.sqrt(norm_sq(a)))


def inv(a: Octonion) -> Octonion:
    """Multiplicative inverse conj(a) / |a|^2 of a nonzero octonion."""
    n2 = norm_sq(a)
    if n2 == 0.0:
        raise DomainError("zero octonion has no inverse")
    return Octonion(conj(a).c / n2)


def imag(a: Octonion) -> np.ndarray:
    """Imaginary part as a 7-vector (coefficients of e1..e7)."""
    return a.c[1:].copy()


def polar(a: Octonion) -> tuple[float, Octonion]:
    """Polar decomposition (radius, unit) with a = radius * unit."""
    r = norm(a)
    if r == 0.0:
        raise DomainError("zero octonion has no polar decomposition")
    return r, Octonion(a.c / r)


def winding_form(x: Octonion, v: Octonion) -> np.ndarray:
    """Winding one-form Im(conj(x) v) / |x|^2 evaluated at (x, v).

    The returned 7-vector records the angular displacement on the unit
    7-sphere produced by moving from x in direction v.
    """
    n2 = norm_sq(x)
    if n2 == 0.0:
        raise DomainError("winding form is undefined at the origin")
    return np.einsum("i,j,ijk->k", conj(x).c, v.c, STRUCTURE)[1:] / n2


# ---------------------------------------------------------------------------
# Batched array versions used by the path simulators.  Shapes are (..., 8)
# for octonion components and (..., 7) for imaginary vectors.

_STRUCTURE_FLAT = STRUCTURE.reshape(8, 64)


def mul_array(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # (a @ S)[..., j, k] contracted against b over j; matmul keeps this BLAS-bound.
    tmp = (a @ _STRUCTURE_FLAT).reshape(a.shape[:-1] + (8, 8))
    return np.matmul(b[..., None, :], tmp)[..., 0, :]


def conj_array(a: np.ndarray) -> np.ndarray:
    out = a.copy()
    out[..., 1:] = -out[..., 1:]
    return out


def _build_eta_matrix() -> np.ndarray:
    # eta_k(x, v) |x|^2 = Im(conj(x) v)_k = sum_{a,b} sign_a M[a, b, k] x_a v_b is
    # bilinear; row 8k + b of the result holds the coefficients of x_a in the
    # factor multiplying v_b, with the conjugation sign of x_a folded in.
    sign = np.array([1.0] + [-1.0] * 7)
    eta = (sign[:, None, None] * STRUCTURE[:, :, 1:]).transpose(2, 1, 0).reshape(56, 8)
    eta = np.ascontiguousarray(eta)
    eta.setflags(write=False)
    return eta


#: Constant (56, 8) matrix of the winding form: (_ETA @ x)[8k + b] * v_b summed
#: over b is |x|^2 eta_k(x, v).
_ETA = _build_eta_matrix()


def winding_form_cols(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Winding form on component-major arrays: x, v of shape (8, ...) give (7, ...).

    One matmul builds the 7 x 8 matrix of the bilinear form at each base
    point, one contraction applies it to v.  The caller guarantees the base
    points are nonzero.
    """
    a = (_ETA @ x.reshape(8, -1)).reshape((7, 8) + x.shape[1:])
    return np.einsum("kb...,b...->k...", a, v) / np.einsum("a...,a...->...", x, x)


def winding_form_array(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Batched winding form on (..., 8) arrays; caller guarantees the base points are nonzero."""
    return winding_form_cols(x.T, v.T).T
