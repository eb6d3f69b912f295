"""Real block encoding of complex matrices and the overlap algebra built on it.

A complex matrix A is represented by the real matrix R(A) obtained by
replacing every entry a + ib with the 2x2 block [[a, -b], [b, a]].  The map
R is an injective *-algebra homomorphism, so products, adjoints and traces of
complex matrices can be recovered from purely real data.  R(.) is the
reference algebra that acceptance criterion 01 checks; the synthesis model
itself keeps the real and imaginary parts of each product as separate
variables (see formulation) and writes no row over R(.) images.  This module
also holds the unitarity check, determinant normalization and fidelity that
the rest of the package uses.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, MalformedEncodingError, UnitarityError

#: Default tolerance for unitarity checks.
UNITARY_TOL = 1e-9

#: Default tolerance for structural checks on encoded matrices.
ENCODING_TOL = 1e-9


def _as_square(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {a.shape}")
    return a


def is_unitary(u: np.ndarray, tol: float = UNITARY_TOL) -> bool:
    """True when u^dag u = 1 within entrywise tolerance `tol`."""
    u = _as_square(u)
    n = u.shape[0]
    return bool(np.abs(u.conj().T @ u - np.eye(n)).max() <= tol)


def require_unitary(u: np.ndarray, tol: float = UNITARY_TOL, name: str = "matrix") -> np.ndarray:
    u = _as_square(np.asarray(u, dtype=complex), name)
    if not is_unitary(u, tol):
        err = np.abs(u.conj().T @ u - np.eye(u.shape[0])).max()
        raise UnitarityError(f"{name} is not unitary within {tol:g} (defect {err:.3e})")
    return u


def encode_real(a: np.ndarray) -> np.ndarray:
    """Encode a complex n x n matrix as the real 2n x 2n block matrix R(a).

    Entry a_ij = x + iy becomes the block [[x, -y], [y, x]] at rows
    (2i, 2i+1), columns (2j, 2j+1).
    """
    a = _as_square(np.asarray(a, dtype=complex))
    n = a.shape[0]
    out = np.empty((2 * n, 2 * n), dtype=float)
    out[0::2, 0::2] = a.real
    out[1::2, 1::2] = a.real
    out[0::2, 1::2] = -a.imag
    out[1::2, 0::2] = a.imag
    return out


def decode_complex(b: np.ndarray, tol: float = ENCODING_TOL) -> np.ndarray:
    """Invert encode_real, validating the block structure of `b`.

    Raises MalformedEncodingError when `b` is not within `tol` of a valid
    encoding (odd dimension, complex data, or inconsistent blocks).
    """
    b = _as_square(np.asarray(b))
    if np.iscomplexobj(b):
        if np.abs(b.imag).max() > tol:
            raise MalformedEncodingError("encoded matrix must be real")
        b = b.real
    if b.shape[0] % 2 != 0:
        raise MalformedEncodingError(f"encoded dimension must be even, got {b.shape[0]}")
    re = b[0::2, 0::2]
    im = b[1::2, 0::2]
    if np.abs(b[1::2, 1::2] - re).max() > tol or np.abs(b[0::2, 1::2] + im).max() > tol:
        raise MalformedEncodingError("matrix does not have the [[x,-y],[y,x]] block structure")
    return re + 1j * im


def j_matrix(n: int) -> np.ndarray:
    """The real encoding of i*1_n: block-diagonal copies of [[0,-1],[1,0]]."""
    if n <= 0:
        raise DimensionError("n must be positive")
    return np.kron(np.eye(n), np.array([[0.0, -1.0], [1.0, 0.0]]))


def trace_parts(b: np.ndarray) -> tuple[float, float]:
    """Real and imaginary part of the complex trace, read off an encoding.

    For b = R(a): Re Tr a = Tr(b) / 2 and Im Tr a = -Tr(J b) / 2 where J is
    j_matrix.  Works on any even-dimensional real matrix; no structural
    validation is performed.
    """
    b = _as_square(np.asarray(b, dtype=float))
    if b.shape[0] % 2 != 0:
        raise DimensionError("trace_parts needs an even-dimensional matrix")
    re = 0.5 * float(np.trace(b))
    # Tr(J b) = sum_k (b[2k, 2k+1] - b[2k+1, 2k])
    im = -0.5 * float(b[0::2, 1::2].trace() - b[1::2, 0::2].trace())
    return re, im


def su_normalize(u: np.ndarray, tol: float = UNITARY_TOL) -> np.ndarray:
    """Rescale a unitary by the principal n-th root of det(u)^-1.

    The result has determinant 1.  The principal root uses the argument in
    (-pi, pi], so e.g. the pi/8 gate diag(1, e^{i pi/4}) maps to
    e^{-i pi/8} diag(1, e^{i pi/4}).
    """
    u = require_unitary(u, tol)
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


def alpha_beta(b_hat: np.ndarray, t: np.ndarray) -> tuple[float, float]:
    """Overlap components of an encoded circuit against a complex target.

    For b_hat = R(u): alpha + i*beta = Tr(t^dag u) / n, computed purely from
    real data as alpha = Tr(R(t)^T b_hat) / 2n and
    beta = -Tr(J R(t)^T b_hat) / 2n.  fidelity(u, t) = alpha^2 + beta^2.
    """
    t = _as_square(np.asarray(t, dtype=complex), "t")
    b_hat = _as_square(np.asarray(b_hat, dtype=float), "b_hat")
    n = t.shape[0]
    if b_hat.shape[0] != 2 * n:
        raise DimensionError(f"encoded dim {b_hat.shape[0]} does not match target dim {n}")
    rt = encode_real(t)
    alpha = float((rt * b_hat).sum()) / (2 * n)
    c = rt.T @ b_hat
    # Tr(J c) via the same off-diagonal trace identity used in trace_parts
    tr_jc = float(c[0::2, 1::2].trace() - c[1::2, 0::2].trace())
    beta = -tr_jc / (2 * n)
    return alpha, beta


__all__ = [
    "UNITARY_TOL",
    "ENCODING_TOL",
    "is_unitary",
    "require_unitary",
    "encode_real",
    "decode_complex",
    "j_matrix",
    "trace_parts",
    "su_normalize",
    "fidelity",
    "alpha_beta",
]
