"""Unitarity check, matrix equality, determinant normalization and fidelity.

The paper writes its model over the real block encoding R(.), which replaces
every entry a + ib with the 2x2 block [[a, -b], [b, a]].  The synthesis
model here keeps the real and imaginary parts of each product as separate
variables instead (see formulation) and writes no row over R(.) images, so
no code in the package builds R(.).  Acceptance criterion 01
(tests/test_acceptance.py) checks the R(.) algebra the paper relies on
against an entry-by-entry reference encoding.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, UnitarityError

#: Tolerance for unitarity checks.
UNITARY_TOL = 1e-9
#: Entrywise tolerance of equal_matrices, the one rule for matrix equality.
VERIFY_TOL = 1e-9

#: Unitarity defect above which require_unitary projects onto the unitaries:
#: far above rounding, far below the 1e-9 that polished rows are held to.
PROJECT_TOL = 1e-12


def _as_square(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {a.shape}")
    return a


def require_unitary(u: np.ndarray, name: str = "matrix") -> np.ndarray:
    """`u` as a complex matrix, if u^dag u = 1 within UNITARY_TOL entrywise.

    A matrix accepted with a defect above PROJECT_TOL is returned as its
    polar projection W V^dag (from u = W S V^dag), the nearest unitary:
    products of near-unitaries drift out of the [-1, 1] entry box that the
    synthesis model's chain variables live in.  A matrix unitary to
    rounding is returned unchanged.
    """
    u = _as_square(np.asarray(u, dtype=complex), name)
    err = np.abs(u.conj().T @ u - np.eye(u.shape[0])).max()
    if not err <= UNITARY_TOL:
        raise UnitarityError(f"{name} is not unitary within {UNITARY_TOL:g} (defect {err:.3e})")
    if err > PROJECT_TOL:
        w, _, vh = np.linalg.svd(u)
        u = w @ vh
    return u


def equal_matrices(a: np.ndarray, b: np.ndarray, up_to_phase: bool = False):
    """Whether a and b agree within VERIFY_TOL entrywise, or up to a global phase.

    Up to phase, b is first rotated by the phase of tr(a^dag b); both modes
    then compare entry by entry, so the rule is first order in the entry
    error.  The last two axes are compared and the rest broadcast.
    """
    if up_to_phase:
        b = b * np.exp(-1j * np.angle((a.conj() * b).sum(axis=(-2, -1))))[..., None, None]
    return np.abs(a - b).max(axis=(-2, -1), initial=0.0) <= VERIFY_TOL


def su_normalize(u: np.ndarray) -> np.ndarray:
    """Rescale a unitary by the principal n-th root of det(u)^-1.

    The result has determinant 1.  The principal root uses the argument in
    (-pi, pi], so e.g. the pi/8 gate diag(1, e^{i pi/4}) maps to
    e^{-i pi/8} diag(1, e^{i pi/4}).
    """
    u = require_unitary(u)
    n = u.shape[0]
    w = 1.0 / np.linalg.det(u)
    lam = np.exp(1j * np.angle(w) / n)
    return lam * u


def fidelity(u: np.ndarray, t: np.ndarray) -> float:
    """Global-phase-invariant overlap |Tr(t^dag u)|^2 / n^2 of two n x n matrices."""
    u = _as_square(np.asarray(u, dtype=complex), "u")
    t = _as_square(np.asarray(t, dtype=complex), "t")
    if u.shape != t.shape:
        raise DimensionError(f"shape mismatch {u.shape} vs {t.shape}")
    n = u.shape[0]
    return float(abs(np.trace(t.conj().T @ u)) ** 2) / n ** 2


__all__ = ["UNITARY_TOL", "VERIFY_TOL", "require_unitary", "equal_matrices",
           "su_normalize", "fidelity"]
