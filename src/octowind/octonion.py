"""Octonion arithmetic and the 7-component winding one-form.

The algebra is generated from the signed multiplication table of the seven
imaginary units.  Every function works on arrays of components, batched over
the leading axes, which is what the path simulators rely on;
``printed_winding`` is the winding form written out coordinate by coordinate,
an independent check of the kernel.
"""

from __future__ import annotations

import numpy as np

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
        m[i, i, 0] = -1.0
    for i, j, k in _TRIPLES:
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            m[a, b, c] = 1.0
            m[b, a, c] = -1.0
    m.setflags(write=False)
    return m


#: Structure tensor of the algebra, read-only.
STRUCTURE = _build_structure_tensor()


# Shapes are (..., 8) for octonion components and (..., 7) for imaginary vectors.
_STRUCTURE_FLAT = STRUCTURE.reshape(8, 64)


def mul_array(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # (a @ S)[..., j, k] contracted against b over j; matmul keeps this BLAS-bound.
    tmp = (a @ _STRUCTURE_FLAT).reshape(a.shape[:-1] + (8, 8))
    return np.matmul(b[..., None, :], tmp)[..., 0, :]


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


# Signed coefficient tables of the seven coordinate components of the winding
# form: entry (i, a, b) is the coefficient of x_a * v_b in eta_{i+1} |x|^2.
_ETA_TERMS = (
    ((-1, 1, 0), (1, 0, 1), (1, 3, 2), (-1, 2, 3), (1, 5, 4), (-1, 4, 5), (-1, 7, 6), (1, 6, 7)),
    ((-1, 2, 0), (-1, 3, 1), (1, 0, 2), (1, 1, 3), (1, 6, 4), (1, 7, 5), (-1, 4, 6), (-1, 5, 7)),
    ((-1, 3, 0), (1, 2, 1), (-1, 1, 2), (1, 0, 3), (1, 7, 4), (-1, 6, 5), (1, 5, 6), (-1, 4, 7)),
    ((-1, 4, 0), (-1, 5, 1), (-1, 6, 2), (-1, 7, 3), (1, 0, 4), (1, 1, 5), (1, 2, 6), (1, 3, 7)),
    ((-1, 5, 0), (1, 4, 1), (-1, 7, 2), (1, 6, 3), (-1, 1, 4), (1, 0, 5), (-1, 3, 6), (1, 2, 7)),
    ((-1, 6, 0), (1, 7, 1), (1, 4, 2), (-1, 5, 3), (-1, 2, 4), (1, 3, 5), (1, 0, 6), (-1, 1, 7)),
    ((-1, 7, 0), (-1, 6, 1), (1, 5, 2), (1, 4, 3), (-1, 3, 4), (-1, 2, 5), (1, 1, 6), (1, 0, 7)),
)


def printed_winding(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The seven explicit coordinate expressions for the winding form."""
    n2 = np.sum(x * x, axis=-1)
    out = np.zeros(x.shape[:-1] + (7,))
    for i, terms in enumerate(_ETA_TERMS):
        for sign, a, b in terms:
            out[..., i] += sign * x[..., a] * v[..., b]
    return out / n2[..., None]
