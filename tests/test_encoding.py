"""Real block encoding: algebra, round trips, and the overlap identities."""

import numpy as np
import pytest

from mipsynth.encoding import (alpha_beta, decode_complex, encode_real,
                               fidelity, j_matrix, require_unitary,
                               su_normalize, trace_parts)
from mipsynth.errors import (DimensionError, MalformedEncodingError,
                             UnitarityError)

from util import naive_encode, random_complex, random_unitary


def test_encode_matches_entrywise_reference(rng):
    for dim in (1, 2, 3, 4, 8):
        a = random_complex(dim, rng)
        assert np.abs(encode_real(a) - naive_encode(a)).max() == 0.0


def test_round_trip_is_identity(rng):
    for dim in (1, 2, 5, 8):
        a = random_complex(dim, rng)
        assert np.abs(decode_complex(encode_real(a)) - a).max() <= 1e-14


def test_encode_is_additive_and_multiplicative(rng):
    for dim in (2, 4, 8):
        a, b = random_complex(dim, rng), random_complex(dim, rng)
        assert np.abs(encode_real(a + b) - (encode_real(a) + encode_real(b))).max() <= 1e-14
        assert np.abs(encode_real(a @ b) - encode_real(a) @ encode_real(b)).max() <= 1e-12


def test_encode_identity_and_dagger(rng):
    assert np.abs(encode_real(np.eye(3)) - np.eye(6)).max() == 0.0
    for dim in (2, 4):
        a = random_complex(dim, rng)
        # conjugate transpose on the complex side is plain transpose on the real side
        assert np.abs(encode_real(a.conj().T) - encode_real(a).T).max() <= 1e-14


def test_unitary_maps_to_orthogonal(rng):
    for dim in (2, 4, 8):
        u = random_unitary(dim, rng)
        b = encode_real(u)
        assert np.abs(b.T @ b - np.eye(2 * dim)).max() <= 1e-12


def test_determinant_identity(rng):
    # det R(A) = |det A|^2
    for dim in (1, 2, 3, 4, 6, 8):
        for a in (random_unitary(dim, rng), random_complex(dim, rng)):
            want = abs(np.linalg.det(a)) ** 2
            got = np.linalg.det(encode_real(a))
            assert abs(got - want) <= 1e-10 * max(1.0, want)


def test_trace_identities(rng):
    for dim in (1, 3, 8):
        a = random_complex(dim, rng)
        re, im = trace_parts(encode_real(a))
        tr = np.trace(a)
        assert abs(re - tr.real) <= 1e-12
        assert abs(im - tr.imag) <= 1e-12


def test_trace_parts_rejects_odd_dimension():
    with pytest.raises(DimensionError):
        trace_parts(np.eye(3))


def test_j_matrix_encodes_i_times_identity():
    for n in (1, 2, 4):
        j = j_matrix(n)
        assert np.abs(j - encode_real(1j * np.eye(n))).max() == 0.0
        assert np.abs(j @ j + np.eye(2 * n)).max() == 0.0


def test_j_matrix_multiplies_by_i(rng):
    a = random_complex(3, rng)
    assert np.abs(encode_real(1j * a) - j_matrix(3) @ encode_real(a)).max() <= 1e-14


def test_j_matrix_rejects_nonpositive():
    with pytest.raises(DimensionError):
        j_matrix(0)


def test_decode_rejects_malformed():
    with pytest.raises(MalformedEncodingError):
        decode_complex(np.eye(3))  # odd dimension
    b = encode_real(np.eye(2))
    b[0, 1] = 0.5  # break the block structure
    with pytest.raises(MalformedEncodingError):
        decode_complex(b)
    with pytest.raises(MalformedEncodingError):
        decode_complex(np.eye(4) * (1 + 1j))


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


def test_alpha_beta_matches_complex_trace(rng):
    for dim in (2, 4):
        u = random_unitary(dim, rng)
        t = random_unitary(dim, rng)
        a, b = alpha_beta(encode_real(u), t)
        overlap = np.trace(t.conj().T @ u) / dim
        assert abs(a - overlap.real) <= 1e-12
        assert abs(b - overlap.imag) <= 1e-12
        assert abs((a * a + b * b) - fidelity(u, t)) <= 1e-12


def test_alpha_beta_dimension_check():
    with pytest.raises(DimensionError):
        alpha_beta(np.eye(4), np.eye(4))
