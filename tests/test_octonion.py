"""Algebraic properties of the octonion product and the winding form."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from octowind.octonion import STRUCTURE, _TRIPLES, mul_array, printed_winding, winding_form_array


def test_structure_tensor_triples():
    # The seven oriented triples define the table; check them and a few
    # non-members directly.
    for i, j, k in _TRIPLES:
        assert STRUCTURE[i, j, k] == 1.0
        assert STRUCTURE[j, i, k] == -1.0
        assert STRUCTURE[j, k, i] == 1.0
        assert STRUCTURE[k, i, j] == 1.0
    for j in range(8):
        assert STRUCTURE[0, j, j] == 1.0
        assert STRUCTURE[j, 0, j] == 1.0
    for i in range(1, 8):
        assert STRUCTURE[i, i, 0] == -1.0
    # Distinct imaginary units anticommute.
    for i in range(1, 8):
        for j in range(1, 8):
            if i != j:
                assert np.array_equal(STRUCTURE[i, j], -STRUCTURE[j, i])


def test_structure_tensor_is_readonly():
    with pytest.raises(ValueError):
        STRUCTURE[0, 0, 0] = 2.0


# Rows of the identity are the basis e0..e7; conjugation flips the sign of e1..e7.
E = np.eye(8)
CONJ = np.array([1.0] + [-1.0] * 7)


def test_basis_products():
    assert np.array_equal(mul_array(E[1], E[2]), E[3])
    assert np.array_equal(mul_array(E[2], E[1]), -E[3])
    assert np.array_equal(mul_array(E[1], E[1]), -E[0])
    assert np.array_equal(mul_array(E[0], E[5]), E[5])
    # one product per triple
    for i, j, k in _TRIPLES:
        assert np.array_equal(mul_array(E[i], E[j]), E[k])


def test_norm_multiplicativity(rng):
    x = rng.standard_normal((100_000, 8))
    y = rng.standard_normal((100_000, 8))
    xy = mul_array(x, y)
    lhs = np.sum(xy * xy, axis=1)
    rhs = np.sum(x * x, axis=1) * np.sum(y * y, axis=1)
    assert np.max(np.abs(lhs - rhs) / rhs) < 1e-12


def test_alternativity(rng):
    x = rng.standard_normal((10_000, 8))
    y = rng.standard_normal((10_000, 8))
    left = np.abs(mul_array(x, mul_array(x, y)) - mul_array(mul_array(x, x), y))
    right = np.abs(mul_array(mul_array(y, x), x) - mul_array(y, mul_array(x, x)))
    scale = np.abs(mul_array(x, mul_array(x, y))).max()
    assert left.max() < 1e-12 * scale
    assert right.max() < 1e-12 * scale


def test_non_associativity_witness():
    e1, e2, e4 = E[1], E[2], E[4]
    assert not np.array_equal(mul_array(e1, mul_array(e2, e4)), mul_array(mul_array(e1, e2), e4))


def test_conjugation(rng):
    a = rng.standard_normal((20, 8))
    b = rng.standard_normal((20, 8))
    # conj is an anti-automorphism
    assert np.allclose(CONJ * mul_array(a, b), mul_array(CONJ * b, CONJ * a), atol=1e-12)
    # a conj(a) is real with value |a|^2
    prod = mul_array(a, CONJ * a)
    assert np.max(np.abs(prod[:, 0] - np.sum(a * a, axis=1))) < 1e-12
    assert np.max(np.abs(prod[:, 1:])) < 1e-12


def test_winding_form_simple_cases():
    # At x = 1 the form is just the imaginary part of the velocity.
    v = np.arange(8.0)
    assert np.allclose(winding_form_array(E[0], v), np.arange(1.0, 8.0))
    # Scaling x by c divides the form by c (degree -1 homogeneity).
    x = np.ones(8)
    assert np.allclose(winding_form_array(2.0 * x, v), 0.5 * winding_form_array(x, v))
    # The form vanishes along the radial direction.
    assert np.max(np.abs(winding_form_array(x, x))) < 1e-15


def test_winding_form_matches_printed_coordinates(rng):
    # The seven explicit coordinate expressions are an independent check of
    # the algebraic definition Im(conj(x) v) / |x|^2.
    x = rng.standard_normal((10_000, 8))
    v = rng.standard_normal((10_000, 8))
    assert np.max(np.abs(winding_form_array(x, v) - printed_winding(x, v))) < 1e-12


def test_batched_helpers_match_scalars(rng):
    # The batched product against the structure tensor contracted row by row.
    x = rng.standard_normal((50, 8))
    v = rng.standard_normal((50, 8))
    assert np.allclose(mul_array(x, v), np.einsum("ni,nj,ijk->nk", x, v, STRUCTURE), atol=1e-12)


# ---------------------------------------------------------------------------
# Properties of the batched winding-form kernel

# Components are 0 or of magnitude in [1e-6, 1e3], so no product underflows.
_coordinate = st.one_of(st.just(0.0), st.floats(1e-6, 1e3), st.floats(-1e3, -1e-6))
_components = arrays(np.float64, (8,), elements=_coordinate)
_points = _components.filter(lambda x: np.linalg.norm(x) > 1e-3)
_scales = st.floats(1e-3, 1e3).flatmap(lambda c: st.sampled_from([c, -c]))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_points)
def test_eta_vanishes_along_the_base_point(x):
    assert np.max(np.abs(winding_form_array(x, x))) <= 1e-12


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_points, _components, _scales)
def test_eta_is_invariant_under_joint_scaling(x, v, c):
    # |eta(x, v)| <= |v| / |x|, which sets the scale of the rounding error.
    scale = np.linalg.norm(v) / np.linalg.norm(x)
    dev = np.max(np.abs(winding_form_array(c * x, c * v) - winding_form_array(x, v)))
    assert dev <= 1e-12 * scale


@settings(max_examples=200, deadline=None, derandomize=True)
@given(arrays(np.float64, (5, 8), elements=_coordinate), arrays(np.float64, (5, 8), elements=_coordinate))
def test_eta_matches_printed_coordinates(x, v):
    keep = np.linalg.norm(x, axis=1) > 1e-3
    x, v = x[keep], v[keep]
    scale = np.linalg.norm(v, axis=1) / np.linalg.norm(x, axis=1)
    dev = np.max(np.abs(winding_form_array(x, v) - printed_winding(x, v)), axis=1, initial=0.0)
    assert np.all(dev <= 1e-12 * scale)


# ---------------------------------------------------------------------------
# Properties of the batched product

def _norms(*xs):
    return math.prod(float(np.linalg.norm(x)) for x in xs)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_components, _components)
def test_mul_array_is_alternative(x, y):
    # x(xy) = (xx)y and (yx)x = y(xx); every term is bounded by |x|^2 |y|.
    tol = 1e-12 * _norms(x, x, y)
    assert np.max(np.abs(mul_array(x, mul_array(x, y)) - mul_array(mul_array(x, x), y))) <= tol
    assert np.max(np.abs(mul_array(mul_array(y, x), x) - mul_array(y, mul_array(x, x)))) <= tol


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_components, _components, _components)
def test_mul_array_satisfies_the_moufang_identities(x, y, z):
    tol = 1e-12 * _norms(x, y, z, z)
    m = mul_array
    assert np.max(np.abs(m(z, m(x, m(z, y))) - m(m(m(z, x), z), y))) <= tol
    assert np.max(np.abs(m(x, m(z, m(y, z))) - m(m(m(x, z), y), z))) <= tol
    assert np.max(np.abs(m(m(z, x), m(y, z)) - m(m(z, m(x, y)), z))) <= tol
