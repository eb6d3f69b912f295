"""Unitarity checks, determinant normalization and fidelity."""

import numpy as np
import pytest

from mipsynth.encoding import fidelity, require_unitary, su_normalize
from mipsynth.errors import DimensionError, UnitarityError

from util import random_unitary


def test_unitarity_checks(rng):
    u = random_unitary(4, rng)
    assert np.array_equal(require_unitary(u), u)
    with pytest.raises(UnitarityError):
        require_unitary(2.0 * u)
    near = u * (1 + 4e-10)
    projected = require_unitary(near)
    assert np.abs(projected.conj().T @ projected - np.eye(4)).max() < 1e-14
    assert np.abs(projected - u).max() < 1e-14
    with pytest.raises(UnitarityError):
        require_unitary(np.ones((2, 2)))
    with pytest.raises(DimensionError):
        require_unitary(np.ones((2, 3)))


def test_su_normalize_gives_unit_determinant(rng):
    for dim in (2, 4, 8):
        u = random_unitary(dim, rng)
        s = su_normalize(u)
        assert abs(np.linalg.det(s) - 1.0) <= 1e-10
        # result differs from u by a scalar phase only
        assert fidelity(s, u) >= 1 - 1e-12


def test_su_normalize_principal_root_convention():
    t = np.diag([1.0, np.exp(1j * np.pi / 4)])
    st = su_normalize(t)
    assert np.abs(st - np.exp(-1j * np.pi / 8) * t).max() <= 1e-12
    z = np.diag([1.0, -1.0])
    # det(Z) = -1; the principal square root of -1^-1 is -i... times Z
    assert np.abs(su_normalize(z) - (-1j) * z).max() <= 1e-12


def test_su_normalize_is_idempotent(rng):
    u = random_unitary(4, rng)
    s = su_normalize(u)
    assert np.abs(su_normalize(s) - s).max() <= 1e-10


def test_fidelity_properties(rng):
    u = random_unitary(4, rng)
    t = random_unitary(4, rng)
    assert abs(fidelity(u, u) - 1.0) <= 1e-12
    phase = np.exp(0.7j)
    assert abs(fidelity(phase * u, u) - 1.0) <= 1e-12
    assert 0.0 <= fidelity(u, t) <= 1.0 + 1e-12
    with pytest.raises(DimensionError):
        fidelity(u, np.eye(2))
