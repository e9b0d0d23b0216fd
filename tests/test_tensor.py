"""Hypermatrix construction and the multilinear operations."""

import json

import numpy as np
import pytest

import oracles
from qhyper import (
    DimensionMismatchError,
    Hypermatrix,
    ModePermutation,
    ValidationError,
    allclose,
    conjugate,
    frobenius_inner,
    frobenius_norm,
    k_mode_fold,
    k_mode_unfold,
    matrix_from_json,
    matrix_to_json,
    mode_permute,
    multilinear_multiply,
    outer_product,
    tensor_from_json,
    tensor_to_json,
)

TOL = 1e-12


def random_hyper(rng, dims):
    return Hypermatrix(
        rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
    )


# ---------------------------------------------------------------------------
# construction and validation


def test_construction_basic():
    H = Hypermatrix([[1, 2], [3, 4]])
    assert H.dims == (2, 2)
    assert H.order == 2
    assert H.data.dtype == np.complex128
    np.testing.assert_array_equal(H.ravel(), [1, 2, 3, 4])


def test_data_is_immutable():
    H = Hypermatrix(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        H.data[0, 0] = 1.0


def test_construction_copies_input():
    src = np.ones((2, 2), dtype=complex)
    H = Hypermatrix(src)
    src[0, 0] = 99.0
    assert H.data[0, 0] == 1.0


def test_order_limits():
    with pytest.raises(ValidationError):
        Hypermatrix(np.array(3.0))  # order 0
    with pytest.raises(ValidationError):
        Hypermatrix(np.zeros((2,) * 17))


def test_mode_length_limits():
    with pytest.raises(ValidationError):
        Hypermatrix(np.zeros((2, 0)))
    with pytest.raises(ValidationError):
        Hypermatrix(np.zeros((65,)))


def test_nonfinite_rejected():
    bad = np.zeros((2, 2))
    bad[0, 1] = np.nan
    with pytest.raises(ValidationError):
        Hypermatrix(bad)
    bad[0, 1] = np.inf
    with pytest.raises(ValidationError):
        Hypermatrix(bad)


# ---------------------------------------------------------------------------
# outer product


def test_outer_product_entry_formula():
    rng = np.random.default_rng(11)
    vecs = [
        rng.standard_normal(d) + 1j * rng.standard_normal(d) for d in (2, 3, 2)
    ]
    H = outer_product(vecs)
    assert H.dims == (2, 3, 2)
    for i in range(2):
        for j in range(3):
            for k in range(2):
                expect = vecs[0][i] * vecs[1][j] * vecs[2][k]
                assert abs(H.data[i, j, k] - expect) <= TOL


def test_outer_product_single_vector():
    H = outer_product([np.array([1.0, 2.0j])])
    assert H.dims == (2,)
    np.testing.assert_allclose(H.data, [1.0, 2.0j])


def test_outer_product_validation():
    with pytest.raises(ValidationError):
        outer_product([])
    with pytest.raises(ValidationError):
        outer_product([np.zeros((2, 2))])


# ---------------------------------------------------------------------------
# multilinear multiplication


def test_multilinear_matches_naive_oracle():
    rng = np.random.default_rng(7)
    dims = (2, 3, 2)
    H = random_hyper(rng, dims)
    mats = [
        rng.standard_normal((r, c)) + 1j * rng.standard_normal((r, c))
        for r, c in [(4, 2), (2, 3), (3, 2)]
    ]
    got = multilinear_multiply(mats, H)
    expect = oracles.naive_multilinear(mats, H.data)
    assert got.dims == (4, 2, 3)
    np.testing.assert_allclose(got.data, expect, atol=TOL)


def test_multilinear_identity_is_noop():
    rng = np.random.default_rng(8)
    H = random_hyper(rng, (2, 2, 2))
    out = multilinear_multiply([np.eye(2)] * 3, H)
    np.testing.assert_allclose(out.data, H.data, atol=TOL)


def test_multilinear_composition():
    # (A_k B_k) * H == (A_1,...) * ((B_1,...) * H)
    rng = np.random.default_rng(9)
    H = random_hyper(rng, (2, 2, 2))
    A = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(3)]
    B = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(3)]
    lhs = multilinear_multiply([a @ b for a, b in zip(A, B)], H)
    rhs = multilinear_multiply(A, multilinear_multiply(B, H))
    np.testing.assert_allclose(lhs.data, rhs.data, atol=TOL)


def test_multilinear_bilinearity():
    rng = np.random.default_rng(10)
    H = random_hyper(rng, (2, 2))
    K = random_hyper(rng, (2, 2))
    mats = [rng.standard_normal((2, 2)) for _ in range(2)]
    lhs = multilinear_multiply(mats, Hypermatrix(2.0 * H.data + 3.0j * K.data))
    rhs = (
        2.0 * multilinear_multiply(mats, H).data
        + 3.0j * multilinear_multiply(mats, K).data
    )
    np.testing.assert_allclose(lhs.data, rhs, atol=TOL)


def test_multilinear_outer_product_compatibility():
    # (A_1,...,A_N) * (u_1 o ... o u_N) == (A_1 u_1) o ... o (A_N u_N)
    rng = np.random.default_rng(12)
    vecs = [rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(3)]
    mats = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(3)]
    lhs = multilinear_multiply(mats, outer_product(vecs))
    rhs = outer_product([A @ u for A, u in zip(mats, vecs)])
    np.testing.assert_allclose(lhs.data, rhs.data, atol=TOL)


def test_multilinear_shape_errors():
    H = Hypermatrix(np.zeros((2, 2, 2)))
    with pytest.raises(DimensionMismatchError):
        multilinear_multiply([np.eye(2)] * 2, H)
    with pytest.raises(DimensionMismatchError, match="mode 2"):
        multilinear_multiply([np.eye(2), np.zeros((2, 3)), np.eye(2)], H)


# ---------------------------------------------------------------------------
# unfolding and folding


def test_unfold_fixed_2x2x2_layout():
    # Entry (i1,i2,i3) encoded as the one-based digits i1 i2 i3.
    data = np.zeros((2, 2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                data[i, j, k] = 100 * (i + 1) + 10 * (j + 1) + (k + 1)
    M = k_mode_unfold(Hypermatrix(data), 1)
    expect = np.array(
        [
            [111, 121, 112, 122],
            [211, 221, 212, 222],
        ],
        dtype=complex,
    )
    np.testing.assert_array_equal(M, expect)


@pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3, 2), (3, 2, 4, 2), (5,)])
def test_unfold_matches_index_formula(dims):
    rng = np.random.default_rng(13)
    H = random_hyper(rng, dims)
    for k in range(1, len(dims) + 1):
        got = k_mode_unfold(H, k)
        expect = oracles.unfold_by_formula(H.data, k)
        assert got.shape == expect.shape
        np.testing.assert_allclose(got, expect, atol=0)


@pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3, 2), (3, 2, 4)])
def test_fold_inverts_unfold(dims):
    rng = np.random.default_rng(14)
    H = random_hyper(rng, dims)
    for k in range(1, len(dims) + 1):
        back = k_mode_fold(k_mode_unfold(H, k), k, dims)
        np.testing.assert_allclose(back.data, H.data, atol=0)


def test_unfold_mode_out_of_range():
    H = Hypermatrix(np.zeros((2, 2)))
    with pytest.raises(DimensionMismatchError):
        k_mode_unfold(H, 0)
    with pytest.raises(DimensionMismatchError):
        k_mode_unfold(H, 3)


def test_fold_shape_validation():
    with pytest.raises(DimensionMismatchError):
        k_mode_fold(np.zeros((2, 3)), 1, (2, 2, 2))


# ---------------------------------------------------------------------------
# mode permutation


def test_mode_permute_entry_relation():
    rng = np.random.default_rng(15)
    dims = (2, 3, 4)
    H = random_hyper(rng, dims)
    perm = ModePermutation((3, 1, 2))
    out = mode_permute(H, perm)
    assert out.dims == (4, 2, 3)
    for i1 in range(2):
        for i2 in range(3):
            for i3 in range(4):
                # result position carries (i_pi(1), i_pi(2), i_pi(3))
                assert out.data[i3, i1, i2] == H.data[i1, i2, i3]


def test_mode_permute_identity():
    rng = np.random.default_rng(16)
    H = random_hyper(rng, (2, 2, 2))
    out = mode_permute(H, ModePermutation.identity(3))
    np.testing.assert_array_equal(out.data, H.data)


def test_mode_permute_composition_law():
    rng = np.random.default_rng(17)
    H = random_hyper(rng, (2, 2, 2, 2))
    p = ModePermutation((2, 4, 1, 3))
    q = ModePermutation((3, 1, 4, 2))
    lhs = mode_permute(mode_permute(H, p), q)
    rhs = mode_permute(H, p.compose(q))
    np.testing.assert_array_equal(lhs.data, rhs.data)


def test_mode_permute_inverse_roundtrip():
    rng = np.random.default_rng(18)
    H = random_hyper(rng, (2, 3, 2))
    p = ModePermutation((2, 3, 1))
    back = mode_permute(mode_permute(H, p), p.inverse())
    np.testing.assert_array_equal(back.data, H.data)


def test_mode_permute_preserves_entry_multiset_and_norm():
    rng = np.random.default_rng(19)
    H = random_hyper(rng, (2, 2, 2))
    out = mode_permute(H, (3, 2, 1))
    np.testing.assert_array_equal(
        np.sort_complex(out.ravel()), np.sort_complex(H.ravel())
    )
    assert abs(frobenius_norm(out) - frobenius_norm(H)) <= 1e-15


def test_mode_permutation_validation():
    with pytest.raises(ValidationError):
        ModePermutation((1, 1, 2))
    with pytest.raises(ValidationError):
        ModePermutation((0, 1))
    H = Hypermatrix(np.zeros((2, 2)))
    with pytest.raises(DimensionMismatchError):
        mode_permute(H, (1, 2, 3))


# ---------------------------------------------------------------------------
# inner products, norms, helpers


def test_frobenius_inner_matches_loop():
    rng = np.random.default_rng(20)
    H = random_hyper(rng, (2, 3))
    K = random_hyper(rng, (2, 3))
    manual = sum(
        np.conj(H.data[i, j]) * K.data[i, j] for i in range(2) for j in range(3)
    )
    assert abs(frobenius_inner(H, K) - manual) <= TOL
    assert abs(frobenius_inner(H, K) - np.conj(frobenius_inner(K, H))) <= TOL


def test_frobenius_norm_and_conjugate():
    rng = np.random.default_rng(21)
    H = random_hyper(rng, (2, 2, 2))
    assert abs(frobenius_norm(H) ** 2 - frobenius_inner(H, H).real) <= 1e-10
    np.testing.assert_array_equal(conjugate(H).data, np.conj(H.data))


def test_frobenius_inner_dims_mismatch():
    with pytest.raises(DimensionMismatchError):
        frobenius_inner(Hypermatrix(np.zeros((2, 2))), Hypermatrix(np.zeros((2, 3))))


def test_allclose_tolerance():
    H = Hypermatrix(np.zeros((2, 2)))
    K = Hypermatrix(np.full((2, 2), 1e-11))
    assert allclose(H, K, tol=1e-10)
    assert not allclose(H, K, tol=1e-12)
    assert not allclose(H, Hypermatrix(np.zeros((2, 2, 2))))


# ---------------------------------------------------------------------------
# JSON forms


def test_tensor_json_roundtrip_exact():
    rng = np.random.default_rng(22)
    signed_zero = Hypermatrix([[complex(-0.0, 1.0), complex(0.0, -0.0)]])
    for H in (random_hyper(rng, (2, 3, 2)), signed_zero):
        back = tensor_from_json(json.loads(json.dumps(tensor_to_json(H))))
        # byte comparison: assert_array_equal treats -0.0 and 0.0 as equal
        assert back.dims == H.dims and back.data.tobytes() == H.data.tobytes()


def test_tensor_json_validation():
    with pytest.raises(ValidationError):
        tensor_from_json({"dims": [2]})
    with pytest.raises(ValidationError):
        tensor_from_json({"dims": [2, 2], "entries": [{"re": 1.0, "im": 0.0}]})
    with pytest.raises(ValidationError):
        tensor_from_json({"dims": [2], "entries": [{"re": 1.0}, {"re": 0.0}]})


def test_matrix_json_roundtrip():
    rng = np.random.default_rng(23)
    M = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
    obj = matrix_to_json(M)
    assert obj["rows"] == 2 and obj["cols"] == 4
    np.testing.assert_array_equal(matrix_from_json(obj), M)


def test_matrix_json_validation():
    with pytest.raises(ValidationError):
        matrix_from_json({"rows": 2, "cols": 2, "entries": []})


def test_matrix_json_rejects_malformed_entries():
    one = {"re": 1.0, "im": 0.0}
    with pytest.raises(ValidationError):
        matrix_from_json({"rows": 1, "cols": 2, "entries": [one, 1.0]})
    with pytest.raises(ValidationError):
        matrix_from_json({"rows": 1, "cols": 2, "entries": [one, {"re": 1.0}]})
    with pytest.raises(ValidationError):
        matrix_from_json({"rows": "x", "cols": 2, "entries": [one, one]})
