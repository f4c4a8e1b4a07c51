"""Finite-dimensional operator arithmetic on dense complex matrices.

Matrices are plain square numpy arrays of complex dtype.  All norms are
operator norms (largest singular value) and all spectral operations go
through Hermitian eigendecomposition, so anything fed to the functional
calculus must be Hermitian up to the active tolerance.

Tolerances are relative: a ``TolerancePolicy`` carries an equality
tolerance and a positivity tolerance, and :meth:`TolerancePolicy.slack`
is the one place that scales them, by tol * max(1, norm).  A relation
is checked at the largest operator norm in its assignment, a spectral
operation here at the norm of its own input.  Every shortcut that skips
a measurement asks the policy for its threshold too; nothing else reads
a tolerance.  Below norm 1 the slack is an absolute tol, and one large
variable widens the slack of every relation;
tests/test_scale_covariance.py pins the verdicts this gets wrong.

Every norm and spectrum, of a matrix or of a stack, reads an entry that
LAPACK takes for NaN alike (:func:`_quartered_on_nan`), and
:data:`MEASUREMENT_ERRORS` are what measuring a valid input can raise.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np


class MatrixError(ValueError):
    """Base class for matrix validation failures."""


class NonFiniteError(MatrixError):
    """Raised when a matrix has infinite or NaN entries."""


class NotHermitianError(MatrixError):
    """Raised when a spectral operation receives a non-Hermitian matrix."""


class NegativeSpectrumError(MatrixError):
    """Raised when a fractional power meets genuinely negative eigenvalues."""


# What a measurement of a valid input can meet: an overflow, or a
# fractional power of a matrix that is not Hermitian or not positive.
MEASUREMENT_ERRORS = (NonFiniteError, NotHermitianError, NegativeSpectrumError)


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
    return float(_quartered_on_nan(_singular_values, m)[0])


def _singular_values(m: np.ndarray) -> np.ndarray:
    return np.linalg.svd(m, compute_uv=False)


def _quartered_on_nan(f, m: np.ndarray):
    """``f(m)`` for a LAPACK ``f`` of a matrix or a stack, whose values
    (its result, or the first of its results) scale with the matrix.
    LAPACK reads a finite entry whose modulus overflows, such as
    1.5e308+1.5e308i, as NaN.  A quarter of a matrix has no such entry,
    so each matrix whose values have a NaN is taken again at a quarter:
    its values are four times those, or inf, and its eigenvectors are not
    scaled.  No other matrix of a stack changes a bit."""
    out = f(m)
    parts = out if isinstance(out, tuple) else (out,)
    nan = np.isnan(parts[0])
    if nan.any():
        bad = nan.any(axis=-1)
        again = f(m[bad] / 4)
        for part, new in zip(parts, again if isinstance(again, tuple)
                             else (again,)):
            part[bad] = new
        with np.errstate(over="ignore"):
            parts[0][bad] *= 4
    return out


# Relative room a computed bound leaves before it settles a comparison
# with a computed operator norm: every bound that skips an SVD does so
# when bound * (1 + BOUND_MARGIN) <= value.  Its users are
# Assignment.scale, hermitian_excess, unitary_defect and
# relations.residual_value.  LAPACK's largest singular value and the
# bound are each within about n^2 eps of exact, below 1e-10 at n = 512,
# so 1e-6 absorbs both roundings at every size here.
BOUND_MARGIN = 1e-6


def op_norm_bound(m: np.ndarray) -> float:
    """An upper bound of :func:`op_norm` at a fraction of its cost:
    sqrt(||m||_1 ||m||_inf), the largest absolute column and row sums
    (Golub and Van Loan, Matrix Computations, 2.3).  The two roots are
    taken apart, so only a sum overflows, and nothing underflows; a
    caller compares it with :data:`BOUND_MARGIN` to spare."""
    a = np.abs(m)
    with np.errstate(over="ignore"):
        return (float(np.sqrt(a.sum(axis=0).max(initial=0.0)))
                * float(np.sqrt(a.sum(axis=1).max(initial=0.0))))


def op_norms(stack) -> np.ndarray:
    """Operator norms of a (K, n, n) stack, one LAPACK call for all K, each
    bitwise equal to :func:`op_norm` of its row; validated likewise."""
    m = _checked(np.asarray(stack, dtype=complex), 3)
    if m.size == 0:
        return np.zeros(len(m))
    return _quartered_on_nan(_singular_values, m)[:, 0]


def adjoint(a) -> np.ndarray:
    """Conjugate transpose; of each matrix in a stack."""
    return np.conj(np.asarray(a)).swapaxes(-1, -2)


def real_part(a) -> np.ndarray:
    """Hermitian part (a + a*) / 2."""
    return _hermitian_part(as_matrix(a))


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    """Symmetrized so that eigh sees an exactly Hermitian matrix; on a
    Hermitian input this changes no bit.  Halving first keeps it finite."""
    h = m / 2
    h += adjoint(h)
    return h


def hermitian_defect(m: np.ndarray) -> float:
    """||m - m*||, the one measure of how far ``m`` is from Hermitian."""
    return op_norm(m - adjoint(m))


def hermitian_excess(m: np.ndarray, slack: float) -> float:
    """:func:`hermitian_defect` of ``m`` when it exceeds ``slack``, else 0.

    m - m* is skew-Hermitian, so its largest absolute row sum bounds the
    defect.  The sum squares nothing, so unlike a Frobenius norm it cannot
    underflow to 0 below a nonzero defect.  When it clears the slack with
    :data:`BOUND_MARGIN` to spare, no SVD is taken.  An overflowing m - m*
    settles nothing: its sum is inf or NaN, and the SVD raises."""
    with np.errstate(over="ignore", invalid="ignore"):
        bound = float(np.abs(m - adjoint(m)).sum(axis=-1).max(initial=0.0))
    if bound * (1.0 + BOUND_MARGIN) <= slack:
        return 0.0
    defect = hermitian_defect(m)
    return defect if defect > slack else 0.0


def unitary_defect(m: np.ndarray) -> float:
    """||m*m - 1|| of a square m: for m = W S V*, both m*m - 1 = V (S^2 - 1)
    V* and mm* - 1 = W (S^2 - 1) W* have norm max |s_i^2 - 1|.

    A zero column puts -1 on the diagonal of m*m - 1, and every s_i^2 - 1
    lies in [-1, ||m||^2 - 1].  So when :func:`op_norm_bound` puts
    ||m||^2 at most 2, the defect is exactly 1, with no product and no
    SVD.  That covers every cut corner of a contraction; capped at 2, the
    bound squares without overflow."""
    if (not m.any(axis=0).all()
            and min(op_norm_bound(m), 2.0) ** 2 * (1.0 + BOUND_MARGIN) <= 2.0):
        return 1.0
    return op_norm(adjoint(m) @ m - np.eye(len(m)))


def _require_hermitian(m: np.ndarray, policy: TolerancePolicy) -> np.ndarray:
    # The least slack is the one at norm 0; only a defect past it needs ||m||.
    defect = hermitian_excess(m, policy.slack(0.0)[0])
    if defect and defect > policy.slack(op_norm(m))[0]:
        raise NotHermitianError(
            f"matrix is not Hermitian: ||a - a*|| = {defect:.3e}")
    return m


def spectrum(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and eigenvectors of the Hermitian part of
    ``m`` (or of each matrix in a stack), which the caller has checked or
    knows to be Hermitian."""
    return _quartered_on_nan(lambda x: np.linalg.eigh(_hermitian_part(x)), m)


def spectrum_values(m: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian part of ``m``, unchecked as
    in :func:`spectrum`."""
    return _quartered_on_nan(
        lambda x: np.linalg.eigvalsh(_hermitian_part(x)), m)


def from_spectrum(v: np.ndarray, fw: np.ndarray) -> np.ndarray:
    """Reassemble v diag(fw) v* from eigenvectors and (new) eigenvalues;
    of each matrix in a stack when v is (K, n, n) and fw is (K, n)."""
    return (v * fw[..., None, :]) @ adjoint(v)


def hermitian_calculus(f, a, policy: TolerancePolicy = DEFAULT_POLICY
                       ) -> np.ndarray:
    """Apply a scalar function to a Hermitian matrix through its spectrum.

    ``f`` maps a real eigenvalue array to a real or complex array of the
    same shape.  The input must be Hermitian within the equality slack at
    its norm; it is symmetrized before the eigendecomposition.
    """
    w, v = spectrum(_require_hermitian(as_matrix(a), policy))
    return from_spectrum(v, np.asarray(f(w)))


def matrix_exp(a) -> np.ndarray:
    """Matrix exponential of an arbitrary square matrix, or of each matrix
    in a (K, n, n) stack, validated as by :func:`op_norms`; a stacked
    exponential equals the exponential of each row bit for bit."""
    # Imported here, not at module level: loading scipy.linalg takes
    # longer than a whole check, and only the exponential and direct_sum
    # need it.  expm is looked up on each call, so replacing
    # scipy.linalg.expm reaches every caller.
    import scipy.linalg
    m = np.asarray(a, dtype=complex)
    return scipy.linalg.expm(_checked(m, 3 if m.ndim == 3 else 2))


def eigenvalues(a, policy: TolerancePolicy = DEFAULT_POLICY) -> np.ndarray:
    """Sorted real eigenvalues of a Hermitian matrix."""
    return spectrum_values(_require_hermitian(as_matrix(a), policy))


def min_eigenvalue(a, policy: TolerancePolicy = DEFAULT_POLICY) -> float:
    """Smallest eigenvalue of a Hermitian matrix."""
    return float(eigenvalues(a, policy)[0])


def max_eigenvalue(a, policy: TolerancePolicy = DEFAULT_POLICY) -> float:
    """Largest eigenvalue of a Hermitian matrix."""
    return float(eigenvalues(a, policy)[-1])


def fractional_power(a, exponent, policy: TolerancePolicy = DEFAULT_POLICY,
                     decomposition=None) -> np.ndarray:
    """Matrix power with a nonnegative rational or real exponent.

    Integer exponents use repeated multiplication and work for any square
    matrix.  Non-integer exponents require a Hermitian matrix whose
    spectrum is nonnegative within ``tol_psd``; eigenvalues in the
    tolerance band below zero are clamped to zero before the power is
    taken.  Exponent 0 gives the identity, and a negative exponent of any
    matrix raises ValueError.  ``decomposition``, when given, is called
    with no arguments once the Hermitian check passes, and returns what
    :func:`spectrum` of ``a`` would, so that a caller that keeps that
    spectrum lends it instead of paying for a new one.
    """
    m = as_matrix(a)
    t = Fraction(exponent).limit_denominator(10**12) if not isinstance(
        exponent, Fraction) else exponent
    if t < 0:
        raise ValueError("negative powers are not supported")
    if t.denominator == 1:
        return np.linalg.matrix_power(m, int(t))
    _require_hermitian(m, policy)
    w, v = decomposition() if decomposition is not None else spectrum(m)
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
    import scipy.linalg  # on first use, as in matrix_exp
    blocks = [as_matrix(m) for m in mats]
    if not blocks:
        raise ValueError("direct_sum needs at least one matrix")
    return scipy.linalg.block_diag(*blocks)


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
