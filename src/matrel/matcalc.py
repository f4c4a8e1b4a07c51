"""Finite-dimensional operator arithmetic on dense complex matrices.

Matrices are plain square numpy arrays of complex dtype.  All norms are
operator norms (largest singular value) and all spectral operations go
through Hermitian eigendecomposition, so anything fed to the functional
calculus must be Hermitian up to the active tolerance.

Tolerances are relative: a ``TolerancePolicy`` carries an equality
tolerance and a positivity tolerance, and :meth:`TolerancePolicy.slack`
is the one place that scales them, by ``max(1, norm)`` of the inputs
being compared.  That keeps verdicts meaningful both for tiny and for
badly scaled matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.linalg


class MatrixError(ValueError):
    """Base class for matrix validation failures."""


class NonFiniteError(MatrixError):
    """Raised when a matrix has infinite or NaN entries."""


class NotHermitianError(MatrixError):
    """Raised when a spectral operation receives a non-Hermitian matrix."""


class NegativeSpectrumError(MatrixError):
    """Raised when a fractional power meets genuinely negative eigenvalues."""


@dataclass(frozen=True)
class TolerancePolicy:
    """Relative tolerances used by every approximate comparison.

    ``tol_eq`` bounds equality defects (norm distances), ``tol_psd`` bounds
    how far below zero an eigenvalue may dip while still counting as
    nonnegative.  Both must lie in (0, 1e-2].
    """

    tol_eq: float = 1e-9
    tol_psd: float = 1e-9

    def __post_init__(self) -> None:
        for name in ("tol_eq", "tol_psd"):
            value = getattr(self, name)
            if not (0.0 < value <= 1e-2):
                raise ValueError(f"{name} must lie in (0, 1e-2], got {value!r}")

    def slack(self, norm: float) -> tuple[float, float]:
        """The equality and positivity slack granted at operator norm
        ``norm``: each tolerance times max(1, norm)."""
        scale = max(1.0, norm)
        return self.tol_eq * scale, self.tol_psd * scale


DEFAULT_POLICY = TolerancePolicy()


def as_matrix(a) -> np.ndarray:
    """Validate and convert to a square complex matrix.

    Accepts anything ``np.asarray`` does.  Rejects non-square shapes and
    non-finite entries.  The result may share memory with the input.
    """
    return _checked(np.asarray(a, dtype=complex), 2)


def _checked(m: np.ndarray, ndim: int) -> np.ndarray:
    if m.ndim != ndim or m.shape[-1] != m.shape[-2]:
        kind = "square matrix" if ndim == 2 else "stack of square matrices"
        raise MatrixError(f"expected a {kind}, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise NonFiniteError("matrix has non-finite entries")
    return m


def op_norm(a) -> float:
    """Operator norm: the largest singular value."""
    m = as_matrix(a)
    if m.shape[0] == 0:
        return 0.0
    # norm(m, 2) is the max of this same SVD, bit for bit, at less cost.
    return float(np.linalg.svd(m, compute_uv=False)[0])


def op_norms(stack) -> np.ndarray:
    """Operator norms of a (K, n, n) stack, one LAPACK call for all K, each
    bitwise equal to :func:`op_norm` of its row; validated likewise."""
    m = _checked(np.asarray(stack, dtype=complex), 3)
    if m.size == 0:
        return np.zeros(len(m))
    return np.linalg.svd(m, compute_uv=False)[:, 0]


def adjoint(a) -> np.ndarray:
    """Conjugate transpose; of each matrix in a stack."""
    return np.conj(np.asarray(a)).swapaxes(-1, -2)


def real_part(a) -> np.ndarray:
    """Hermitian part (a + a*) / 2."""
    return _hermitian_part(as_matrix(a))


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    """Symmetrized so that eigh sees an exactly Hermitian matrix; on a
    Hermitian input this changes no bit."""
    return (m + adjoint(m)) / 2


def hermitian_defect(m: np.ndarray) -> float:
    """||m - m*||, the one measure of how far ``m`` is from Hermitian."""
    return op_norm(m - adjoint(m))


def hermitian_defect_bound(m: np.ndarray) -> float:
    """An upper bound of :func:`hermitian_defect` at a fraction of its cost:
    the largest absolute row sum of m - m*.

    That difference is skew-Hermitian, so its largest row and column sums
    agree and bound its operator norm.  Unlike a Frobenius norm, the bound
    squares nothing, so it cannot underflow to 0 below a nonzero defect.
    A caller that finds it at most half of a slack knows the defect is
    within that slack, with room for the rounding of both computations,
    and skips the SVD.  It is inf or NaN when m - m* overflows.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.abs(m - adjoint(m)).sum(axis=-1).max(initial=0.0))


def _require_hermitian(m: np.ndarray, policy: TolerancePolicy) -> np.ndarray:
    # The equality slack is at least tol_eq, whatever the norm.
    if hermitian_defect_bound(m) <= policy.tol_eq / 2:
        return m
    defect = hermitian_defect(m)
    if defect > policy.slack(op_norm(m))[0]:
        raise NotHermitianError(
            f"matrix is not Hermitian: ||a - a*|| = {defect:.3e}")
    return m


def spectrum(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and eigenvectors of the Hermitian part of
    ``m`` (or of each matrix in a stack), which the caller has checked or
    knows to be Hermitian."""
    return np.linalg.eigh(_hermitian_part(m))


def spectrum_values(m: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian part of ``m``, unchecked as
    in :func:`spectrum`."""
    return np.linalg.eigvalsh(_hermitian_part(m))


def from_spectrum(v: np.ndarray, fw: np.ndarray) -> np.ndarray:
    """Reassemble v diag(fw) v* from eigenvectors and (new) eigenvalues."""
    return (v * fw) @ adjoint(v)


def hermitian_calculus(f, a, policy: TolerancePolicy = DEFAULT_POLICY
                       ) -> np.ndarray:
    """Apply a scalar function to a Hermitian matrix through its spectrum.

    ``f`` maps a real eigenvalue array to a real or complex array of the
    same shape.  The input must be Hermitian within ``tol_eq``; it is
    symmetrized before the eigendecomposition.
    """
    w, v = spectrum(_require_hermitian(as_matrix(a), policy))
    return from_spectrum(v, np.asarray(f(w)))


def matrix_exp(a) -> np.ndarray:
    """Matrix exponential of an arbitrary square matrix."""
    return scipy.linalg.expm(as_matrix(a))


def eigenvalues(a, policy: TolerancePolicy = DEFAULT_POLICY) -> np.ndarray:
    """Sorted real eigenvalues of a Hermitian matrix."""
    return spectrum_values(_require_hermitian(as_matrix(a), policy))


def min_eigenvalue(a, policy: TolerancePolicy = DEFAULT_POLICY) -> float:
    """Smallest eigenvalue of a Hermitian matrix."""
    return float(eigenvalues(a, policy)[0])


def max_eigenvalue(a, policy: TolerancePolicy = DEFAULT_POLICY) -> float:
    """Largest eigenvalue of a Hermitian matrix."""
    return float(eigenvalues(a, policy)[-1])


def fractional_power(a, exponent, policy: TolerancePolicy = DEFAULT_POLICY
                     ) -> np.ndarray:
    """Matrix power with a rational or real exponent.

    Integer exponents use repeated multiplication and work for any square
    matrix.  Non-integer exponents require a Hermitian matrix whose
    spectrum is nonnegative within ``tol_psd``; eigenvalues in the
    tolerance band below zero are clamped to zero before the power is
    taken.  Exponent 0 gives the identity.
    """
    m = as_matrix(a)
    t = Fraction(exponent).limit_denominator(10**12) if not isinstance(
        exponent, Fraction) else exponent
    if t.denominator == 1:
        n = int(t)
        if n < 0:
            raise ValueError("negative powers are not supported")
        return np.linalg.matrix_power(m, n)
    w, v = spectrum(_require_hermitian(m, policy))
    # The floor is negative, so only a negative eigenvalue can be below it.
    if w[0] < 0:
        floor = -policy.slack(op_norm(_hermitian_part(m)))[1]
        if w[0] < floor:
            raise NegativeSpectrumError(
                f"fractional power of a matrix with eigenvalue {w[0]:.3e} "
                f"below the positivity tolerance {floor:.3e}")
    return from_spectrum(v, np.clip(w, 0.0, None) ** float(t))


def direct_sum(mats) -> np.ndarray:
    """Block-diagonal direct sum of a nonempty sequence of matrices."""
    blocks = [as_matrix(m) for m in mats]
    if not blocks:
        raise ValueError("direct_sum needs at least one matrix")
    return scipy.linalg.block_diag(*blocks).astype(complex)


def block2(x, y, z) -> np.ndarray:
    """Assemble the 2x2 operator block [[y, x*], [x, z]].

    All three inputs must share one dimension d; the result is 2d x 2d.
    The block is Hermitian exactly when y and z are.
    """
    xm, ym, zm = as_matrix(x), as_matrix(y), as_matrix(z)
    if not (xm.shape == ym.shape == zm.shape):
        raise MatrixError(
            f"block2 needs equal shapes, got {xm.shape}, {ym.shape}, {zm.shape}")
    return np.block([[ym, adjoint(xm)], [xm, zm]])
