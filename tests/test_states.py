"""Ket parsing, the state/hypermatrix isomorphism, spin flip, n-tangle."""

import json
import math
import tracemalloc

import numpy as np
import pytest

import oracles
from qhyper import (
    Hypermatrix,
    KetSyntaxError,
    QubitState,
    SizeCapError,
    ValidationError,
    apply_local_unitaries,
    hypermatrix_to_state,
    mode_permute,
    multilinear_multiply,
    n_tangle,
    parse_ket,
    random_state,
    random_su2,
    spin_flip,
    state_from_json,
    state_to_hypermatrix,
    state_to_json,
)
from qhyper.states import MAX_QUBITS

TOL = 1e-12


# ---------------------------------------------------------------------------
# QubitState


def test_state_basics():
    s = QubitState([1.0, 0.0, 0.0, 0.0])
    assert s.num_qubits == 2
    assert abs(s.norm() - 1.0) <= TOL
    with pytest.raises(ValueError):
        s.amplitudes[0] = 0.5


def test_state_length_validation():
    with pytest.raises(ValidationError):
        QubitState([1.0])
    with pytest.raises(ValidationError):
        QubitState([1.0, 0.0, 0.0])


def test_state_norm_validation():
    with pytest.raises(ValidationError):
        QubitState([1.0, 1.0])
    QubitState([1.0, 1.0], check_norm=False)  # diagnostics escape hatch
    with pytest.raises(ValidationError):
        QubitState([np.nan, 0.0])


# ---------------------------------------------------------------------------
# parsing


def test_parse_coefficient_forms():
    s = parse_ket("1/sqrt(2)|0> + 1/sqrt(2)|1>")
    np.testing.assert_allclose(s.amplitudes, [1 / math.sqrt(2)] * 2, atol=TOL)

    s = parse_ket("3/5|0> + 4/5|1>")
    np.testing.assert_allclose(s.amplitudes, [0.6, 0.8], atol=TOL)

    s = parse_ket("0.6|0> - 0.8|1>")
    np.testing.assert_allclose(s.amplitudes, [0.6, -0.8], atol=TOL)

    s = parse_ket("(0.6+0.8i)|1>")
    np.testing.assert_allclose(s.amplitudes, [0.0, 0.6 + 0.8j], atol=TOL)

    s = parse_ket("(0.6-0.8i)|0>")
    np.testing.assert_allclose(s.amplitudes, [0.6 - 0.8j, 0.0], atol=TOL)


def test_parse_bare_ket_and_star():
    np.testing.assert_allclose(parse_ket("|10>").amplitudes, [0, 0, 1, 0], atol=0)
    s = parse_ket("1/sqrt(2) * |00> + 1/sqrt(2)*|11>")
    np.testing.assert_allclose(
        s.amplitudes, [1 / math.sqrt(2), 0, 0, 1 / math.sqrt(2)], atol=TOL
    )


def test_parse_leading_sign_and_whitespace():
    s = parse_ket("  - 0.6|0>   +   0.8 |1> ")
    np.testing.assert_allclose(s.amplitudes, [-0.6, 0.8], atol=TOL)


def test_parse_duplicate_kets_are_summed():
    # 0.5 + 0.5 = 1.0 on |0>; the un-renormalized sum has norm^2 = 1.5
    raw = np.array([1.0, 1 / math.sqrt(2)])
    expect = raw / np.linalg.norm(raw)
    s = parse_ket("0.5|0> + 0.5|0> + 1/sqrt(2)|1>", renormalize=True)
    np.testing.assert_allclose(s.amplitudes, expect, atol=TOL)
    with pytest.raises(ValidationError):
        parse_ket("0.5|0> + 0.5|0> + 1/sqrt(2)|1>")


def test_parse_lexicographic_order_msb_first():
    s = parse_ket("|100>")
    assert np.argmax(np.abs(s.amplitudes)) == 4  # qubit 1 is the leftmost bit


def test_parse_syntax_errors_carry_position():
    with pytest.raises(KetSyntaxError) as err:
        parse_ket("0.5|00> + |2>")
    assert err.value.position == 10
    with pytest.raises(KetSyntaxError):
        parse_ket("")
    with pytest.raises(KetSyntaxError):
        parse_ket("|01")
    with pytest.raises(KetSyntaxError):
        parse_ket("0.5|0> 0.5|1>")
    with pytest.raises(KetSyntaxError):
        parse_ket("|0> + |00>")
    with pytest.raises(KetSyntaxError):
        parse_ket("1/0|0>")
    with pytest.raises(KetSyntaxError):
        parse_ket("1/sqrt(0)|0>")


def test_parse_norm_policy():
    with pytest.raises(ValidationError):
        parse_ket("0.6|0>")
    s = parse_ket("0.6|0>", renormalize=True)
    np.testing.assert_allclose(s.amplitudes, [1.0, 0.0], atol=TOL)
    with pytest.raises(ValidationError):
        parse_ket("|0> - |0>", renormalize=True)  # zero vector
    # small slack is cleaned up exactly
    s = parse_ket("0.70710678|00> + 0.70710678|11>")
    assert abs(np.vdot(s.amplitudes, s.amplitudes).real - 1.0) <= 1e-15


@pytest.mark.parametrize(
    "text, expect",
    [
        ("1e200|0> + 1e200|1>", [1 / math.sqrt(2), 1 / math.sqrt(2)]),
        ("1e-170|0>", [1.0, 0.0]),
        ("(1e-300+1e-300i)|0>", [complex(1, 1) / math.sqrt(2), 0.0]),
    ],
)
def test_parse_renormalize_survives_norm_overflow(text, expect):
    s = parse_ket(text, renormalize=True)
    np.testing.assert_allclose(s.amplitudes, expect, rtol=0, atol=1e-15)


def test_parse_tiny_state_is_not_the_zero_vector():
    with pytest.raises(ValidationError, match="not normalized"):
        parse_ket("1e-170|0>")
    assert parse_ket("1e-170|0>", check_norm=False).amplitudes[0] == 1e-170


def test_parse_renormalize_rejects_infinite_amplitude():
    with pytest.raises(ValidationError, match="finite"):
        parse_ket("1e400|0> + 1|1>", renormalize=True)


def test_parse_no_normalize_escape_hatch():
    s = parse_ket("0.6|0>", check_norm=False)
    np.testing.assert_allclose(s.amplitudes, [0.6, 0.0], atol=0)


def test_format_parse_roundtrip_is_exact():
    rng = np.random.default_rng(42)
    for n in (1, 2, 3, 4):
        s = random_state(n, rng.integers(2**63))
        back = parse_ket(oracles.format_ket(s.amplitudes))
        np.testing.assert_array_equal(back.amplitudes, s.amplitudes)


def test_format_parse_roundtrip_sparse_negative():
    s = parse_ket("-1/sqrt(2)|01> + 1/sqrt(2)|10>")
    back = parse_ket(oracles.format_ket(s.amplitudes))
    np.testing.assert_array_equal(back.amplitudes, s.amplitudes)


# ---------------------------------------------------------------------------
# isomorphism with hypermatrices


def test_state_hypermatrix_entry_correspondence():
    rng = np.random.default_rng(43)
    s = random_state(3, rng)
    H = state_to_hypermatrix(s)
    assert H.dims == (2, 2, 2)
    for j in range(8):
        bits = [(j >> 2) & 1, (j >> 1) & 1, j & 1]
        assert H.data[tuple(bits)] == s.amplitudes[j]
    back = hypermatrix_to_state(H)
    np.testing.assert_array_equal(back.amplitudes, s.amplitudes)


def test_state_to_hypermatrix_order_cap():
    basis = np.zeros(2**16, dtype=complex)
    basis[0] = 1.0
    assert state_to_hypermatrix(QubitState(basis)).order == 16
    with pytest.raises(SizeCapError, match="order 16"):
        state_to_hypermatrix(QubitState(np.append(basis, np.zeros(2**16))))


def test_hypermatrix_to_state_validation():
    with pytest.raises(ValidationError):
        hypermatrix_to_state(Hypermatrix(np.zeros((2, 3))))
    with pytest.raises(ValidationError):
        hypermatrix_to_state(Hypermatrix(np.zeros((2, 2))))  # zero norm


def test_local_action_commutes_with_multilinear():
    # Applying unitaries qubit-wise on amplitudes matches the multilinear
    # action on the reshaped hypermatrix.
    rng = np.random.default_rng(44)
    for n in (1, 2, 3, 4):
        s = random_state(n, rng.integers(2**63))
        Us = [random_su2(rng.integers(2**63)) for _ in range(n)]
        via_state = apply_local_unitaries(s, Us)
        via_tensor = multilinear_multiply(Us, state_to_hypermatrix(s))
        np.testing.assert_allclose(
            state_to_hypermatrix(via_state).data, via_tensor.data, atol=TOL
        )


def test_permutation_acts_on_basis_labels():
    # pi1 = (13) sends |100> to |001>; pi2 = (132) sends |100> to |010>
    # and |101> to |110>.
    def permuted(text, mapping):
        H = mode_permute(state_to_hypermatrix(parse_ket(text)), mapping)
        return hypermatrix_to_state(H)

    out = permuted("|100>", (3, 2, 1))
    assert np.argmax(np.abs(out.amplitudes)) == int("001", 2)
    out = permuted("|100>", (3, 1, 2))
    assert np.argmax(np.abs(out.amplitudes)) == int("010", 2)
    out = permuted("|101>", (3, 1, 2))
    assert np.argmax(np.abs(out.amplitudes)) == int("110", 2)


def test_apply_local_unitaries_validation():
    s = parse_ket("|00>")
    with pytest.raises(ValidationError):
        apply_local_unitaries(s, [np.eye(2)])
    with pytest.raises(ValidationError):
        apply_local_unitaries(s, [np.eye(2), 2.0 * np.eye(2)])


def test_apply_local_unitaries_preserves_norm():
    rng = np.random.default_rng(45)
    s = random_state(3, rng)
    Us = [random_su2(rng.integers(2**63)) for _ in range(3)]
    assert abs(apply_local_unitaries(s, Us).norm() - 1.0) <= TOL


# ---------------------------------------------------------------------------
# spin flip and tangle


@pytest.mark.parametrize("half_n", [1, 2, 3])
def test_spin_flip_matches_dense_oracle(half_n):
    rng = np.random.default_rng(46 + half_n)
    for _ in range(10):
        s = random_state(2 * half_n, rng.integers(2**63))
        got = spin_flip(s)
        expect = oracles.spin_flip_dense(s.amplitudes)
        np.testing.assert_allclose(got, expect, atol=TOL)


def test_spin_flip_is_exact_involution():
    rng = np.random.default_rng(47)
    s = random_state(4, rng)
    flipped = QubitState(spin_flip(s))
    again = spin_flip(flipped)
    np.testing.assert_array_equal(again, s.amplitudes)


def test_spin_flip_odd_qubits_rejected():
    with pytest.raises(ValidationError):
        spin_flip(parse_ket("|000>"))
    with pytest.raises(ValidationError):
        n_tangle(parse_ket("|000>"))


@pytest.mark.parametrize("half_n", [1, 2, 3])
def test_tangle_routes_agree(half_n):
    rng = np.random.default_rng(48 + half_n)
    for _ in range(20):
        s = random_state(2 * half_n, rng.integers(2**63))
        a = n_tangle(s, via="spinflip")
        b = n_tangle(s, via="hdet")
        assert abs(a - b) <= TOL
        assert -1e-15 <= a <= 1 + 1e-9


def test_tangle_known_values_from_enumeration():
    bell = parse_ket("1/sqrt(2)|00> + 1/sqrt(2)|11>")
    ghz4 = parse_ket("1/sqrt(2)|0000> + 1/sqrt(2)|1111>")
    prod = parse_ket("|0110>")
    for state in (bell, ghz4, prod):
        expect = oracles.tangle_enum(state.amplitudes)
        assert abs(n_tangle(state) - expect) <= TOL
    assert abs(n_tangle(bell) - 1.0) <= 1e-10
    assert abs(n_tangle(ghz4) - 1.0) <= 1e-10
    assert n_tangle(prod) == 0.0


def test_tangle_via_validation():
    with pytest.raises(ValidationError):
        n_tangle(parse_ket("|00>"), via="magic")


# ---------------------------------------------------------------------------
# random generators


def test_random_state_deterministic_and_normalized():
    a = random_state(3, 123)
    b = random_state(3, 123)
    c = random_state(3, 124)
    np.testing.assert_array_equal(a.amplitudes, b.amplitudes)
    assert np.any(a.amplitudes != c.amplitudes)
    assert abs(a.norm() - 1.0) <= TOL
    with pytest.raises(ValidationError):
        random_state(0, 1)


def test_random_su2_properties():
    U = random_su2(7)
    np.testing.assert_array_equal(U, random_su2(7))
    assert np.max(np.abs(U.conj().T @ U - np.eye(2))) <= TOL
    det = U[0, 0] * U[1, 1] - U[0, 1] * U[1, 0]
    assert abs(det - 1.0) <= TOL


# ---------------------------------------------------------------------------
# JSON


def test_state_json_roundtrip_exact():
    rng = np.random.default_rng(49)
    signed_zero = QubitState([complex(-0.0, 1.0), complex(0.0, -0.0)])
    for s in (random_state(3, rng), signed_zero):
        back = state_from_json(json.loads(json.dumps(state_to_json(s))))
        # byte comparison: assert_array_equal treats -0.0 and 0.0 as equal
        assert back.amplitudes.tobytes() == s.amplitudes.tobytes()


def test_state_json_validation():
    with pytest.raises(ValidationError):
        state_from_json({"num_qubits": 2})
    with pytest.raises(ValidationError):
        state_from_json({"num_qubits": 2, "amplitudes": [{"re": 1.0, "im": 0.0}]})
    with pytest.raises(ValidationError):
        state_from_json(
            {"num_qubits": 1, "amplitudes": [{"re": 1.0}, {"re": 0.0}]}
        )
    with pytest.raises(ValidationError):  # an entry that is not an object
        state_from_json({"num_qubits": 1, "amplitudes": [{"re": 1.0, "im": 0.0}, 1.0]})


@pytest.mark.parametrize("bad", ["1", None, True, [1.0], {"x": 1.0}])
def test_state_json_rejects_non_numeric_parts(bad):
    amps = [{"re": 1.0, "im": 0.0}, {"re": 0.0, "im": 0.0}]
    for part in ("re", "im"):
        obj = {"num_qubits": 1, "amplitudes": [dict(amps[0], **{part: bad}), amps[1]]}
        with pytest.raises(ValidationError):
            state_from_json(obj)


@pytest.mark.parametrize("n", ["two", None, -1, [1]])
def test_state_json_rejects_bad_num_qubits(n):
    with pytest.raises(ValidationError):
        state_from_json({"num_qubits": n, "amplitudes": []})


@pytest.mark.parametrize(
    "load",
    [
        lambda: parse_ket("|" + "0" * 40 + ">"),
        lambda: state_from_json({"num_qubits": 40, "amplitudes": []}),
        lambda: state_from_json({"num_qubits": 100_000_000, "amplitudes": []}),
        lambda: state_from_json({"num_qubits": MAX_QUBITS + 1, "amplitudes": []}),
        lambda: random_state(40, 0),
        lambda: random_state(100, 0),
    ],
    ids=["ket-40-bits", "json-40", "json-1e8", "json-cap-plus-1", "random-40", "random-100"],
)
def test_qubit_cap_checked_before_allocation(load):
    tracemalloc.start()
    try:
        with pytest.raises(SizeCapError):
            load()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_qubit_cap_admits_the_cap():
    with pytest.raises(ValidationError):  # wrong length, but not over the cap
        state_from_json({"num_qubits": MAX_QUBITS, "amplitudes": []})
