import numpy as np
import pytest

from matrel.matcalc import (
    MatrixError,
    NegativeSpectrumError,
    NotHermitianError,
    TolerancePolicy,
    block2,
    direct_sum,
    fractional_power,
    hermitian_calculus,
    matrix_exp,
    max_eigenvalue,
    min_eigenvalue,
    op_norm,
    op_norms,
    real_part,
)


def _ginibre(rng, d):
    return (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)


def test_op_norm_rank_one():
    assert abs(op_norm([[1, 1], [1, 1]]) - 2.0) < 1e-12


def test_op_norm_unitary_invariance():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = _ginibre(rng, 5)
        q, _ = np.linalg.qr(_ginibre(rng, 5))
        assert abs(op_norm(q @ a) - op_norm(a)) < 1e-10


def test_op_norm_rejects_bad_shapes():
    with pytest.raises(MatrixError):
        op_norm(np.zeros((2, 3)))
    with pytest.raises(MatrixError):
        op_norm([[np.inf, 0], [0, 0]])


def test_op_norm_is_bitwise_norm2():
    rng = np.random.default_rng(21)
    for d in (*range(1, 9), 64):
        for _ in range(5):
            m = _ginibre(rng, d)
            assert op_norm(m) == np.linalg.norm(m, 2), d
    assert op_norm(np.zeros((0, 0))) == 0.0
    assert op_norms(np.zeros((0, 3, 3))).shape == (0,)
    for bad in ([[np.inf, 0], [0, 0]], [[np.nan, 0], [0, 0]],
                np.zeros((2, 3)), np.zeros(4)):
        with pytest.raises(MatrixError):
            op_norm(bad)


def test_min_eigenvalue_closed_form():
    # Eigenvalues of [[3, 1], [1, 0]] solve t^2 - 3t - 1 = 0.
    expected = (3 - np.sqrt(13)) / 2
    assert abs(min_eigenvalue([[3, 1], [1, 0]]) - expected) < 1e-12
    assert abs(max_eigenvalue([[3, 1], [1, 0]]) - (3 + np.sqrt(13)) / 2) < 1e-12


def test_min_eigenvalue_requires_hermitian():
    with pytest.raises(NotHermitianError):
        min_eigenvalue([[0, 1], [0, 0]])


def test_hermitian_calculus_matches_direct_square():
    rng = np.random.default_rng(11)
    g = _ginibre(rng, 6)
    h = (g + g.conj().T) / 2
    sq = hermitian_calculus(lambda w: w ** 2, h)
    assert np.allclose(sq, h @ h, atol=1e-12)


def test_hermitian_calculus_exp_diagonal():
    out = hermitian_calculus(np.exp, np.diag([0.0, 1.0]))
    assert np.allclose(out, np.diag([1.0, np.e]), atol=1e-12)


def test_fractional_power_sqrt():
    root = fractional_power(np.diag([4.0, 9.0]), 0.5)
    assert np.allclose(root, np.diag([2.0, 3.0]), atol=1e-12)


def test_fractional_power_integer_any_matrix():
    n = np.array([[0, 1], [0, 0]], dtype=complex)
    assert np.allclose(fractional_power(n, 2), n @ n)
    assert np.allclose(fractional_power(n, 0), np.eye(2))
    with pytest.raises(ValueError, match="^negative powers are not supported$"):
        fractional_power(n, -1)


def test_fractional_power_rejects_negative_spectrum():
    with pytest.raises(NegativeSpectrumError):
        fractional_power(np.diag([1.0, -1.0]), 0.5)
    # The floor is -tol_psd times the norm of the Hermitian part.
    with pytest.raises(NegativeSpectrumError) as err:
        fractional_power(np.diag([3.0, -1.0]), 0.5)
    assert str(err.value) == (
        "fractional power of a matrix with eigenvalue -1.000e+00 "
        "below the positivity tolerance -3.000e-09")


def test_fractional_power_clamps_rounding_noise():
    out = fractional_power(np.diag([1.0, -1e-12]), 0.5)
    assert np.allclose(out, np.diag([1.0, 0.0]), atol=1e-6)
    assert min_eigenvalue(out) >= 0.0


def test_matrix_exp_known_values():
    assert np.allclose(matrix_exp(np.zeros((3, 3))), np.eye(3), atol=1e-14)
    n = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert np.allclose(matrix_exp(n), [[1.0, 1.0], [0.0, 1.0]], atol=1e-14)


def test_real_part():
    a = np.array([[1.0, 2.0], [0.0, 1.0]])
    re = real_part(a)
    assert np.allclose(re, re.conj().T)
    assert np.allclose(real_part(1j * np.eye(2)), np.zeros((2, 2)))


def test_direct_sum_blocks_and_norm():
    a = np.array([[2.0]])
    b = np.array([[0.0, 1.0], [0.0, 0.0]])
    s = direct_sum([a, b])
    assert s.shape == (3, 3)
    assert s[0, 0] == 2.0 and s[1, 2] == 1.0 and s[0, 1] == 0.0
    assert abs(op_norm(s) - max(op_norm(a), op_norm(b))) < 1e-14
    with pytest.raises(ValueError):
        direct_sum([])


def test_block2_identity_is_psd_with_kernel():
    eye = np.eye(2)
    b = block2(eye, eye, eye)
    assert b.shape == (4, 4)
    assert abs(min_eigenvalue(b)) < 1e-12
    assert abs(max_eigenvalue(b) - 2.0) < 1e-12


def test_block2_adjoint_corner():
    x = np.array([[0.0, 1.0], [0.0, 0.0]])
    b = block2(x, np.eye(2), np.eye(2))
    assert np.allclose(b[:2, 2:], x.conj().T)
    assert np.allclose(b, b.conj().T)
    with pytest.raises(MatrixError):
        block2(np.eye(2), np.eye(3), np.eye(2))


def test_tolerance_policy_validation():
    with pytest.raises(ValueError):
        TolerancePolicy(tol_eq=0.5)
    with pytest.raises(ValueError):
        TolerancePolicy(tol_psd=0.0)
    TolerancePolicy(tol_eq=1e-2, tol_psd=1e-12)


def test_tolerance_policy_scale_floor():
    pol = TolerancePolicy(tol_eq=1e-9, tol_psd=1e-6)
    assert pol.slack(op_norm(np.eye(2) * 0.25)) == (1e-9, 1e-6)
    eq, psd = pol.slack(max(op_norm(np.eye(2) * 3.0), op_norm(np.eye(2))))
    assert abs(eq / 1e-9 - 3.0) < 1e-14 and abs(psd / 1e-6 - 3.0) < 1e-14


def test_matrix_exp_looks_up_scipy_expm_on_each_call(monkeypatch):
    # The benchmark tracer counts exponentials by replacing this
    # attribute, so matrix_exp must not hold its own reference to it.
    import scipy.linalg
    calls = []
    real = scipy.linalg.expm

    def counting(m):
        calls.append(m.shape)
        return real(m)

    monkeypatch.setattr(scipy.linalg, "expm", counting)
    matrix_exp(np.eye(2))
    matrix_exp(np.zeros((3, 2, 2)))
    assert calls == [(2, 2), (3, 2, 2)]
