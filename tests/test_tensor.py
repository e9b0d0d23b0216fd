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
    frobenius_norm,
    matrix_to_json,
    mode_permute,
    multilinear_multiply,
    tensor_to_json,
)
from qhyper.tensor import _complex_from_json, _json_int

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
    lhs = multilinear_multiply(mats, Hypermatrix(oracles.outer_product(vecs)))
    rhs = oracles.outer_product([A @ u for A, u in zip(mats, vecs)])
    np.testing.assert_allclose(lhs.data, rhs, atol=TOL)


def test_multilinear_shape_errors():
    H = Hypermatrix(np.zeros((2, 2, 2)))
    with pytest.raises(DimensionMismatchError):
        multilinear_multiply([np.eye(2)] * 2, H)
    with pytest.raises(DimensionMismatchError, match="mode 2"):
        multilinear_multiply([np.eye(2), np.zeros((2, 3)), np.eye(2)], H)


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
    out = mode_permute(H, ModePermutation((1, 2, 3)))
    np.testing.assert_array_equal(out.data, H.data)


def test_mode_permute_composition_law():
    rng = np.random.default_rng(17)
    H = random_hyper(rng, (2, 2, 2, 2))
    p = ModePermutation((2, 4, 1, 3))
    q = ModePermutation((3, 1, 4, 2))
    lhs = mode_permute(mode_permute(H, p), q)
    rhs = mode_permute(H, oracles.compose_mapping(p.mapping, q.mapping))
    np.testing.assert_array_equal(lhs.data, rhs.data)


def test_mode_permute_inverse_roundtrip():
    rng = np.random.default_rng(18)
    H = random_hyper(rng, (2, 3, 2))
    p = ModePermutation((2, 3, 1))
    back = mode_permute(mode_permute(H, p), oracles.inverse_mapping(p.mapping))
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
# norms


def test_frobenius_norm_matches_inner_product():
    rng = np.random.default_rng(21)
    H = random_hyper(rng, (2, 2, 2))
    assert abs(frobenius_norm(H) ** 2 - np.vdot(H.data, H.data).real) <= 1e-10


# ---------------------------------------------------------------------------
# JSON forms


def test_tensor_json_roundtrip_exact():
    rng = np.random.default_rng(22)
    signed_zero = Hypermatrix([[complex(-0.0, 1.0), complex(0.0, -0.0)]])
    for H in (random_hyper(rng, (2, 3, 2)), signed_zero):
        obj = json.loads(json.dumps(tensor_to_json(H)))
        back = oracles.complex_entries(obj["entries"]).reshape(obj["dims"])
        # byte comparison: assert_array_equal treats -0.0 and 0.0 as equal
        assert back.shape == H.dims and back.tobytes() == H.data.tobytes()


def test_tensor_json_validation():
    obj = tensor_to_json(Hypermatrix(np.eye(2)))
    with pytest.raises(ValidationError):
        _complex_from_json(None, 4)
    with pytest.raises(ValidationError):
        _complex_from_json(obj["entries"][:1], 4)
    with pytest.raises(ValidationError):
        _complex_from_json([{"re": 1.0}, {"re": 0.0}], 2)


def test_matrix_json_roundtrip():
    rng = np.random.default_rng(23)
    M = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
    obj = matrix_to_json(M)
    assert obj["rows"] == 2 and obj["cols"] == 4
    back = oracles.complex_entries(obj["entries"]).reshape(obj["rows"], obj["cols"])
    np.testing.assert_array_equal(back, M)


def test_matrix_json_validation():
    with pytest.raises(ValidationError):
        _complex_from_json([], 2 * 2)


def test_matrix_json_rejects_malformed_entries():
    one = {"re": 1.0, "im": 0.0}
    with pytest.raises(ValidationError):
        _complex_from_json([one, 1.0], 1 * 2)
    with pytest.raises(ValidationError):
        _complex_from_json([one, {"re": 1.0}], 1 * 2)
    with pytest.raises(ValidationError):
        _json_int("x", "rows")
