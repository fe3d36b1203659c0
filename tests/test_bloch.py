"""Core types: vectors, states, POVM elements, ensemble validation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qsd
from qsd.bloch import (
    COMPLETENESS_TOL,
    KKT_TOL,
    PSD_TOL,
    PURITY_TOL,
    STATE_NORM_TOL,
    BlochVector,
    Povm,
    PovmElement,
    QubitState,
    ZERO_VECTOR,
)
from helpers import density_matrix, operator_matrix


def test_vector_basics():
    u = BlochVector(1.0, 2.0, 3.0)
    v = BlochVector(-1.0, 0.5, 2.0)
    assert u.dot(v) == -1.0 + 1.0 + 6.0
    assert u.norm() == math.sqrt(14.0)
    assert tuple(u) == (1.0, 2.0, 3.0)
    assert np.allclose(BlochVector.from_array(u.as_array()).as_array(), u.as_array())
    with pytest.raises(ValueError):
        BlochVector(float("nan"), 0.0, 0.0)


def test_state_accepts_boundary_and_rejects_outside():
    QubitState(BlochVector(1.0, 0.0, 0.0))
    QubitState(BlochVector(1.0 + 1e-13, 0.0, 0.0))
    with pytest.raises(ValueError):
        QubitState(BlochVector(1.0 + 1e-11, 0.0, 0.0))


def test_state_purity_flag():
    assert QubitState(BlochVector(0.0, 0.0, 1.0)).is_pure
    assert not QubitState(BlochVector(0.0, 0.0, 0.5)).is_pure


def test_povm_element_psd_boundary():
    PovmElement(0.5, BlochVector(0.5, 0.0, 0.0))
    PovmElement(0.5, BlochVector(0.5 + 1e-13, 0.0, 0.0))
    with pytest.raises(ValueError):
        PovmElement(0.5, BlochVector(0.5 + 1e-11, 0.0, 0.0))
    with pytest.raises(ValueError):
        PovmElement(-1e-11, ZERO_VECTOR)


def test_povm_completeness_enforced():
    Povm((PovmElement(0.5, BlochVector(0.0, 0.0, 0.5)),
          PovmElement(0.5, BlochVector(0.0, 0.0, -0.5))))
    with pytest.raises(ValueError):
        Povm((PovmElement(0.4, ZERO_VECTOR), PovmElement(0.5, ZERO_VECTOR)))
    with pytest.raises(ValueError):
        Povm((PovmElement(0.5, BlochVector(0.0, 0.0, 0.5)),
              PovmElement(0.5, BlochVector(0.0, 0.0, -0.3))))


def test_ensemble_prior_validation():
    with pytest.raises(ValueError):
        qsd.validate_ensemble([(0.6, (0, 0, 1)), (0.5, (0, 0, -1))])
    with pytest.raises(ValueError):
        qsd.validate_ensemble([(1.2, (0, 0, 1)), (-0.2, (0, 0, -1))])
    with pytest.raises(ValueError):
        qsd.validate_ensemble([(1.0, (0, 0, 1))])


def test_ensemble_renormalize():
    ens = qsd.validate_ensemble(
        [(0.3, (0, 0, 1)), (0.3, (0, 0, -1))], renormalize=True
    )
    assert math.isclose(math.fsum(ens.priors), 1.0, abs_tol=1e-15)
    assert ens.priors[0] == pytest.approx(0.5)


def test_ensemble_weighted_points():
    ens = qsd.validate_ensemble([(0.3, (1, 0, 0)), (0.7, (0, 0, -1))])
    q = ens.weighted_points
    assert np.allclose(q[0], [0.3, 0.0, 0.0])
    assert np.allclose(q[1], [0.0, 0.0, -0.7])


def test_ensemble_arrays_are_cached_and_read_only():
    ens = qsd.validate_ensemble([(0.3, (1, 0, 0)), (0.7, (0, 0, -1))])
    same = qsd.validate_ensemble([(0.3, (1, 0, 0)), (0.7, (0, 0, -1))])
    for name in ("priors", "bloch_matrix", "weighted_points"):
        arr = getattr(ens, name)
        assert getattr(ens, name) is arr
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0
    assert ens == same and hash(ens) == hash(same) and repr(ens) == repr(same)


finite3 = st.tuples(
    st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)
)


@settings(max_examples=60, deadline=None)
@given(a=st.floats(0.0, 2.0), v=finite3)
def test_povm_psd_matches_eigenvalues(a, v):
    """a >= |v| iff a*I + v.sigma is PSD; check against explicit eigenvalues."""
    vec = BlochVector(*v)
    eigs = np.linalg.eigvalsh(operator_matrix(a, v))
    psd = eigs.min() >= -1e-12
    accepted = a - vec.norm() >= -PSD_TOL
    if psd != accepted:
        # only allowed to disagree inside the tolerance collar
        assert abs(a - vec.norm()) <= 1e-10


@settings(max_examples=60, deadline=None)
@given(b=finite3, a=st.floats(0.0, 1.0), v=finite3)
def test_trace_identity(b, a, v):
    """tr(rho Pi) = a + b.v in Bloch coordinates."""
    bv = np.asarray(b, dtype=float)
    n = np.linalg.norm(bv)
    if n > 1.0:
        bv = bv / n
    lhs = float(np.trace(density_matrix(bv) @ operator_matrix(a, v)).real)
    rhs = a + float(bv @ np.asarray(v))
    assert abs(lhs - rhs) <= 1e-12


def test_tolerance_constants_pinned():
    assert STATE_NORM_TOL == 1e-12
    assert PSD_TOL == 1e-12
    assert COMPLETENESS_TOL == 1e-10
    assert PURITY_TOL == 1e-9
    assert KKT_TOL == 1e-8
