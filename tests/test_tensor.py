"""Hypermatrix construction and the multilinear operations."""

import io
import json
import math
import tracemalloc

import numpy as np
import pytest

import oracles
from qhyper import (
    DimensionMismatchError,
    Hypermatrix,
    ModePermutation,
    ValidationError,
    ent_matrix_dense,
    fact1_position,
    frobenius_norm,
    hosvd,
    mode_factor,
    mode_permute,
    mode_svals,
    multilinear_multiply,
    random_state,
    sign_string_ent,
    state_to_hypermatrix,
    verify_antidiagonal_identity,
)
from qhyper.cli import run_bench
from oracles import matrix_to_json, tensor_to_json
from qhyper.tensor import _complex_from_json, _inner, _json_int, _write_json

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


@pytest.mark.parametrize(
    "dims, shapes",
    [
        ((3,), [(5, 3)]),
        ((3, 2, 1, 4), [(1, 3), (4, 2), (2, 1), (3, 4)]),
        ((2, 3, 1, 2, 2), [(4, 2), (1, 3), (3, 1), (2, 2), (1, 2)]),
    ],
    ids=["order-1", "order-4", "order-5"],
)
def test_multilinear_rectangular_matches_naive_oracle(dims, shapes):
    # Every mode passes through the front once and the result is transposed
    # back at the end, so each mode must get the row count of its own matrix.
    rng = np.random.default_rng(len(dims))
    H = random_hyper(rng, dims)
    mats = [rng.standard_normal(s) + 1j * rng.standard_normal(s) for s in shapes]
    got = multilinear_multiply(mats, H)
    assert got.dims == tuple(r for r, _ in shapes)
    np.testing.assert_allclose(got.data, oracles.naive_multilinear(mats, H.data), atol=TOL)


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


def test_multilinear_product_that_overflows_is_rejected():
    # Every factor and entry is finite, but 1e200 * 1e200 is not.  The error comes
    # without NumPy's overflow warning, which the test configuration makes an error.
    H = Hypermatrix(np.full((2, 2), 1e200))
    with pytest.raises(ValidationError, match="^the product has non-finite entries$"):
        multilinear_multiply([np.full((2, 2), 1e200), np.eye(2)], H)


def test_multilinear_kronecker_block_that_overflows_is_rejected():
    # Two finite factors whose Kronecker block (1e200 * 1e200) is not.
    H = Hypermatrix(np.ones((2, 2)))
    with pytest.raises(ValidationError, match="^the product has non-finite entries$"):
        multilinear_multiply([np.full((2, 2), 1e200)] * 2, H)


def test_multilinear_row_cap_is_checked_before_any_product():
    # A (10**5, 2) factor would make a 10**5 x 8 intermediate (12.8 MB) before
    # the result's own mode-length check; the row count is refused up front.
    H = Hypermatrix(np.ones((2, 2, 2, 2)))
    mats = [np.ones((10**5, 2), dtype=np.complex128)] + [np.eye(2, dtype=np.complex128)] * 3
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match=r"^mode 1 length must be in 1\.\.64, got 100000$"):
            multilinear_multiply(mats, H)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "call",
    [
        lambda: Hypermatrix([["1", "x"], ["0", "1"]]),
        lambda: Hypermatrix([[1.0, 2.0], [3.0]]),
        lambda: multilinear_multiply([[["x", 0], [0, 1]]] * 2, Hypermatrix(np.eye(2))),
        lambda: multilinear_multiply([[[1, 0], [0]], np.eye(2)], Hypermatrix(np.eye(2))),
        lambda: multilinear_multiply(5, Hypermatrix(np.eye(2))),
    ],
    ids=["hypermatrix-string", "hypermatrix-ragged", "matrix-string", "matrix-ragged", "not-a-sequence"],
)
def test_conversion_errors_are_validation_errors(call):
    with pytest.raises(ValidationError, match="convert|sequence"):
        call()


def test_hosvd_reconstructs_at_14_and_16_qubits():
    # The core and reconstruct() both go through the blocked multiply; the core
    # is checked against a mode-at-a-time einsum that shares no code with it.
    for n in (14, 16):
        H = state_to_hypermatrix(random_state(n, 3000 + n))
        res = hosvd(H)
        core = oracles.multilinear_einsum(res.factors.conj().transpose(0, 2, 1), H.data)
        assert np.max(np.abs(res.core.data - core)) <= 1e-13
        assert np.max(np.abs(res.reconstruct().data - H.data)) <= 1e-13


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


@pytest.mark.parametrize("entry", [1e200, 1e-200, complex(0.0, -1e-200)])
def test_frobenius_norm_is_exact_at_the_ends_of_the_float_range(entry):
    # |entry|^2 overflows to inf, or underflows to 0, although the norm 2 * |entry| does not.
    assert frobenius_norm(Hypermatrix(np.full((2, 2), entry))) == 2 * abs(entry)


def test_frobenius_norm_of_an_in_range_input_keeps_its_bits():
    H = random_hyper(np.random.default_rng(22), (2, 2, 2, 2))
    assert frobenius_norm(H) == math.sqrt(_inner(H.data, H.data))
    assert frobenius_norm(Hypermatrix(np.zeros((2, 2)))) == 0.0
    assert frobenius_norm(Hypermatrix(np.full((2, 2), np.finfo(float).max))) == math.inf


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


@pytest.mark.parametrize(
    "stray", [np.int64(3), np.arange(3.0), {1, 2}], ids=["int64", "real-array", "set"]
)
def test_write_json_rejects_what_json_rejects(stray):
    # Only complex arrays are written as entries; everything else that json
    # cannot write fails with json's own TypeError, before any output.
    amps = np.ones(2, dtype=complex)
    with pytest.raises(TypeError) as expected:
        json.dumps({"amplitudes": [{"re": 1.0, "im": 0.0}] * 2, "stray": [stray]}, indent=2)
    fh = io.StringIO()
    with pytest.raises(TypeError) as got:
        _write_json({"amplitudes": amps, "stray": [stray]}, fh)
    assert str(got.value) == str(expected.value)
    assert fh.getvalue() == ""


def test_write_json_memory_is_bounded(tmp_path):
    # A 2^16-entry state: the dict list and json.dump peak at ~16x the 1 MiB vector.
    amps = random_state(16, 5).amplitudes
    with open(tmp_path / "state.json", "w") as fh:
        tracemalloc.start()
        try:
            _write_json({"num_qubits": 16, "amplitudes": amps}, fh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < amps.nbytes
    written = json.loads((tmp_path / "state.json").read_text())
    assert oracles.complex_entries(written["amplitudes"]).tobytes() == amps.tobytes()


_H = Hypermatrix(np.eye(2) / np.sqrt(2))


@pytest.mark.parametrize(
    "call",
    [
        lambda: mode_permute(_H, (1.5, 2)),
        lambda: ModePermutation(("2", "1")),
        lambda: ModePermutation((True, 2)),
        lambda: sign_string_ent(1.9),
        lambda: verify_antidiagonal_identity(2.5),
        lambda: ent_matrix_dense(1.5),
        lambda: fact1_position(1.9, 2),
        lambda: fact1_position(1, 2.0),
        lambda: mode_svals(_H, 1.5),
        lambda: mode_factor(_H, True),
        lambda: random_state(2.5, 0),
        lambda: run_bench(1.5, 1, 0),
        lambda: run_bench(1, 1.5, 0),
    ],
    ids=[
        "mode_permute-float",
        "ModePermutation-str",
        "ModePermutation-bool",
        "sign_string_ent",
        "verify_antidiagonal_identity",
        "ent_matrix_dense",
        "fact1_position-k",
        "fact1_position-length",
        "mode_svals",
        "mode_factor-bool",
        "random_state",
        "run_bench-n",
        "run_bench-reps",
    ],
)
def test_integer_arguments_reject_bools_floats_and_strings(call):
    # A float is not truncated and a bool or digit string is not read as
    # a number: every count, index and mode number must be an integer.
    with pytest.raises(ValidationError, match="must be"):
        call()


def test_integer_arguments_take_numpy_integers():
    assert mode_permute(_H, np.array([2, 1])).dims == (2, 2)
    assert len(sign_string_ent(np.int64(2))) == 16
    assert fact1_position(np.int32(2), np.int64(4)) == 3
    np.testing.assert_allclose(mode_svals(_H, np.int64(2)), [np.sqrt(0.5)] * 2)
    assert random_state(np.uint8(3), 0).num_qubits == 3
