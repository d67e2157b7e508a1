"""Algebraic properties of the octonion product and the winding form."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from octowind import Octonion, conj, imag, inv, mul, norm, norm_sq, polar, winding_form
from octowind.errors import DomainError
from octowind.octonion import (
    STRUCTURE,
    _TRIPLES,
    conj_array,
    mul_array,
    winding_form_array,
)


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


def test_structure_tensor_is_readonly():
    with pytest.raises(ValueError):
        STRUCTURE[0, 0, 0] = 2.0


def test_basis_products():
    e = [Octonion.basis(i) for i in range(8)]
    assert mul(e[1], e[2]) == e[3]
    assert mul(e[2], e[1]) == -e[3]
    assert mul(e[1], e[1]) == -e[0]
    assert mul(e[0], e[5]) == e[5]
    # one product per triple
    for i, j, k in _TRIPLES:
        assert mul(e[i], e[j]) == e[k]


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
    e1, e2, e4 = Octonion.basis(1), Octonion.basis(2), Octonion.basis(4)
    assert mul(e1, mul(e2, e4)) != mul(mul(e1, e2), e4)


def test_conjugation(rng):
    for _ in range(20):
        a = Octonion(rng.standard_normal(8))
        b = Octonion(rng.standard_normal(8))
        # conj is an anti-automorphism
        assert np.allclose(conj(mul(a, b)).c, mul(conj(b), conj(a)).c, atol=1e-12)
        # a conj(a) is real with value |a|^2
        prod = mul(a, conj(a))
        assert abs(prod.c[0] - norm_sq(a)) < 1e-12
        assert np.max(np.abs(prod.c[1:])) < 1e-12


def test_inverse(rng):
    a = Octonion(rng.standard_normal(8))
    one = mul(a, inv(a))
    assert np.allclose(one.c, Octonion.one().c, atol=1e-12)
    with pytest.raises(DomainError):
        inv(Octonion.zero())


def test_polar(rng):
    a = Octonion(rng.standard_normal(8))
    r, u = polar(a)
    assert abs(norm(u) - 1.0) < 1e-12
    assert np.allclose((r * u).c, a.c)
    with pytest.raises(DomainError):
        polar(Octonion.zero())


def test_imag():
    a = Octonion(np.arange(8.0))
    assert np.array_equal(imag(a), np.arange(1.0, 8.0))


def test_octonion_immutable():
    a = Octonion.one()
    with pytest.raises(AttributeError):
        a.c = np.zeros(8)
    with pytest.raises(ValueError):
        a.c[0] = 2.0
    with pytest.raises(ValueError):
        Octonion(np.zeros(7))


def test_winding_form_simple_cases():
    # At x = 1 the form is just the imaginary part of the velocity.
    v = Octonion(np.arange(8.0))
    assert np.allclose(winding_form(Octonion.one(), v), np.arange(1.0, 8.0))
    # Scaling x by c divides the form by c (degree -1 homogeneity).
    x = Octonion(np.ones(8))
    assert np.allclose(winding_form(2.0 * x, v), 0.5 * winding_form(x, v))
    # The form vanishes along the radial direction.
    assert np.max(np.abs(winding_form(x, x))) < 1e-15
    with pytest.raises(DomainError):
        winding_form(Octonion.zero(), v)


def test_winding_form_matches_printed_coordinates(rng):
    # The seven explicit coordinate expressions are an independent check of
    # the algebraic definition Im(conj(x) v) / |x|^2.
    from octowind.cli import _printed_winding

    x = rng.standard_normal((10_000, 8))
    v = rng.standard_normal((10_000, 8))
    assert np.max(np.abs(winding_form_array(x, v) - _printed_winding(x, v))) < 1e-12


def test_batched_helpers_match_scalars(rng):
    x = rng.standard_normal((50, 8))
    v = rng.standard_normal((50, 8))
    prod = mul_array(x, v)
    wf = winding_form_array(x, v)
    for i in range(50):
        assert np.allclose(prod[i], mul(Octonion(x[i]), Octonion(v[i])).c, atol=1e-12)
        assert np.allclose(wf[i], winding_form(Octonion(x[i]), Octonion(v[i])), atol=1e-12)
    assert np.allclose(conj_array(x)[:, 0], x[:, 0])
    assert np.allclose(conj_array(x)[:, 1:], -x[:, 1:])


def test_arithmetic_operators(rng):
    a = Octonion(rng.standard_normal(8))
    b = Octonion(rng.standard_normal(8))
    assert np.allclose((a + b - b).c, a.c)
    assert np.allclose((-a).c, -a.c)
    assert np.allclose((a * 2.0).c, (2.0 * a).c)
    assert np.allclose((a / 2.0).c, a.c / 2.0)
    assert np.allclose((a * b).c, mul(a, b).c)


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
    from octowind.cli import _printed_winding

    keep = np.linalg.norm(x, axis=1) > 1e-3
    x, v = x[keep], v[keep]
    scale = np.linalg.norm(v, axis=1) / np.linalg.norm(x, axis=1)
    dev = np.max(np.abs(winding_form_array(x, v) - _printed_winding(x, v)), axis=1, initial=0.0)
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
