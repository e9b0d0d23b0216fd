"""Ket parsing, the state/hypermatrix isomorphism, the n-tangle."""

import json
import math
import sys
import tracemalloc

import numpy as np
import pytest

import oracles
from qhyper import (
    Hypermatrix,
    KetSyntaxError,
    QhyperError,
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
    state_from_json,
    state_to_hypermatrix,
)
from oracles import state_to_json
from qhyper.states import MAX_QUBITS, validate_unitary
from qhyper.tensor import _inner

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


@pytest.mark.parametrize("amp", [1e200, 1e-200])
def test_state_norm_is_exact_at_the_ends_of_the_float_range(amp):
    assert QubitState(np.full(4, amp), norm="skip").norm() == 2 * amp


def test_state_norm_of_a_unit_state_keeps_its_bits():
    amp = random_state(5, seed=3).amplitudes
    assert QubitState(amp).norm() == math.sqrt(_inner(amp, amp))


def test_state_norm_validation():
    with pytest.raises(ValidationError):
        QubitState([1.0, 1.0])
    QubitState([1.0, 1.0], norm="skip")  # diagnostics escape hatch
    with pytest.raises(ValidationError):
        QubitState([np.nan, 0.0])


@pytest.mark.parametrize(
    "call",
    [
        lambda: QubitState(["1", "x"]),
        lambda: QubitState([[1.0], [0.0, 0.0]]),
        lambda: validate_unitary([["1", "0"], ["0", "y"]]),
        lambda: validate_unitary([[1.0, 0.0], [0.0]]),
    ],
    ids=["state-string", "state-ragged", "unitary-string", "unitary-ragged"],
)
def test_conversion_errors_are_validation_errors(call):
    with pytest.raises(ValidationError, match="cannot convert"):
        call()


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
    s = parse_ket("0.5|0> + 0.5|0> + 1/sqrt(2)|1>", norm="renormalize")
    np.testing.assert_allclose(s.amplitudes, expect, atol=TOL)
    with pytest.raises(ValidationError):
        parse_ket("0.5|0> + 0.5|0> + 1/sqrt(2)|1>")


def test_parse_lexicographic_order_msb_first():
    s = parse_ket("|100>")
    assert np.argmax(np.abs(s.amplitudes)) == 4  # qubit 1 is the leftmost bit


# (text, position, message) of each ket syntax error, as the
# term-by-term parser reported them.
SYNTAX_ERRORS = [
    ("0.5|00> + |2>", 10, "expected '|bits>'"),
    ("", 0, "empty expression"),
    ("   ", 3, "empty expression"),
    ("|01", 0, "expected '|bits>'"),
    ("0.5|0> 0.5|1>", 7, "expected '+', '-' or end of input"),
    ("|0> + |00>", 6, "ket has 2 bits, earlier kets have 1"),
    ("1/0|0>", 0, "zero denominator in fraction"),
    ("1/sqrt(0)|0>", 0, "zero radicand in 1/sqrt(...)"),
    # missing sign between terms, trailing garbage
    ("|0>|1>", 3, "expected '+', '-' or end of input"),
    ("|0> + |1> x", 10, "expected '+', '-' or end of input"),
    # '*' with no coefficient, a lone or dangling sign
    ("*|0>", 0, "expected a coefficient or '|'"),
    ("+", 1, "expected a coefficient or '|'"),
    ("|0> +", 5, "expected a coefficient or '|'"),
    ("1/sqrt(2)|0> ++|1>", 14, "expected a coefficient or '|'"),
    # unclosed complex coefficient
    ("(0.1+0.2i|0>", 0, "expected a coefficient or '|'"),
    # zero radicand or denominator after whitespace, before a bad ket
    ("  1/0|0>", 2, "zero denominator in fraction"),
    ("|0> -\t1/sqrt( 0 )|1>", 6, "zero radicand in 1/sqrt(...)"),
    ("- 1/sqrt(00)*x", 2, "zero radicand in 1/sqrt(...)"),
    ("1/0 *", 0, "zero denominator in fraction"),
    # width mismatch in term 3
    ("|00> + |01> + |1>", 14, "ket has 1 bits, earlier kets have 2"),
    # a coefficient that matches, then no ket
    ("1/2/3|0>", 3, "expected '|bits>'"),
    ("1e|0>", 1, "expected '|bits>'"),
    ("0.5 * * |0>", 6, "expected '|bits>'"),
    ("|0> + (1e5-2.5e-3i) *|1x>", 21, "expected '|bits>'"),
    ("|0>\u00a0x", 4, "expected '+', '-' or end of input"),
    # a fraction or root whose runs are not all digits, or whose numerator is not '1'
    ("1.0/sqrt(2)|0>", 3, "expected '|bits>'"),
    ("01/sqrt(2)|0>", 2, "expected '|bits>'"),
    ("1/2.0|0>", 3, "expected '|bits>'"),
    # a complex coefficient without its operator or with a space after its
    # real part's sign, a second exponent or none after the 'e' of a later term,
    # a Unicode bit
    ("(1 2i)|0>", 0, "expected a coefficient or '|'"),
    ("(- 1+2i)|0>", 0, "expected a coefficient or '|'"),
    ("1e5e5|0>", 3, "expected '|bits>'"),
    ("0.5|0> + 1e|1>", 10, "expected '|bits>'"),
    ("|\u0661>", 0, "expected '|bits>'"),
]


def test_parse_syntax_errors_carry_position():
    for text, position, message in SYNTAX_ERRORS:
        with pytest.raises(KetSyntaxError) as err:
            parse_ket(text, norm="skip")
        assert (text, str(err.value)) == (text, f"{message} (at position {position})")
        assert err.value.position == position


def _long_ket(n, terms, seed):
    """``terms`` terms over n-qubit labels, which repeat once ``terms`` passes
    2^n, in every coefficient form, joined by ASCII and Unicode whitespace."""
    rng = np.random.default_rng(seed)
    coefficients = [
        lambda: "",
        lambda: repr(abs(float(rng.standard_normal()))),
        lambda: f"{rng.integers(1, 9)}e-05",
        lambda: "0.0",
        lambda: f"{rng.integers(0, 50)} / {rng.integers(1, 50)}",
        lambda: f"1/sqrt( {rng.integers(1, 50)} )",
        lambda: f"({rng.standard_normal()!r}-{abs(rng.standard_normal())!r}i)",
        lambda: "(-0.0-0.0i) *",
        lambda: "(+1.5E+2 +0.0i)",
        lambda: "\u0661",
    ]
    separators = [" + ", " - ", "\x1c+\u00a0", "\n-\t", "+"]
    text = []
    for j in range(terms):
        coef = coefficients[rng.integers(len(coefficients))]()
        text.append(separators[rng.integers(len(separators))] if j else "")
        text.append(f"{coef}|{j % 2**n:0{n}b}>")
    return "".join(text)


def _read(parse, text):
    try:
        return QubitState(parse(text), norm="skip").amplitudes.tobytes()
    except QhyperError as exc:
        return type(exc), str(exc), getattr(exc, "position", None)


def test_parse_long_kets_across_chunks_match_the_reference():
    for n, terms in ((10, 12000), (12, 12000), (14, 2**14)):
        text = _long_ket(n, terms, n)
        assert len(text) > 3 * 2**16  # several of the lexer's chunks
        got = parse_ket(text, norm="skip").amplitudes
        assert got.tobytes() == oracles.parse_ket_reference(text).tobytes()
        assert got.tobytes() == oracles.ket_amplitudes(text).tobytes()
    # errors in the last term of a long ket
    head = text[: text.rindex("+") - 1]
    for tail in [" + |" + "0" * 13 + "2>", " + |0>", " + 1/0|" + "0" * 14 + ">", " |" + "0" * 14 + ">", " + x"]:
        expect = _read(oracles.parse_ket_reference, head + tail)
        assert isinstance(expect, tuple) and expect[2] > 2**16
        assert _read(lambda t: parse_ket(t, norm="skip").amplitudes, head + tail) == expect


@pytest.mark.parametrize(
    "text",
    [
        "1/0|" + "0" * 30 + ">",  # the first term's value is read before its width is capped
        "|" + "0" * 30 + "> + 1/0|0>",  # the cap comes before any later term
        "|" + "0" * 29 + "2>",  # and its bits before that
        "1.2.3|" + "0" * 27 + ">",  # and its numbers before that
        "(1e5e5+1i)|" + "0" * 27 + ">",
        "|0> + 1/0|00>",  # a term's value is read before its width is checked
        "|0> + 1e|00>",  # and its syntax before that
        "|0> + |00> + 1/0|0>",
        "1.2.3|0> + 1/0|0>",  # a bad number before a fraction that does not read
        # a walk that searched forward would be quadratic in the digit run
        pytest.param("|0> + " + "1" * 10**5 + "x", id="long-digit-run"),
    ],
)
def test_parse_reports_the_first_error_in_term_order(text):
    expect = _read(oracles.parse_ket_reference, text)
    assert isinstance(expect, tuple)
    assert _read(lambda t: parse_ket(t, norm="skip").amplitudes, text) == expect


def test_parse_norm_policy():
    with pytest.raises(ValidationError):
        parse_ket("0.6|0>")
    s = parse_ket("0.6|0>", norm="renormalize")
    np.testing.assert_allclose(s.amplitudes, [1.0, 0.0], atol=TOL)
    with pytest.raises(ValidationError):
        parse_ket("|0> - |0>", norm="renormalize")  # zero vector
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
    s = parse_ket(text, norm="renormalize")
    np.testing.assert_allclose(s.amplitudes, expect, rtol=0, atol=1e-15)


def test_renormalize_keeps_the_bits_of_complex_division():
    # Scaling the float parts changes only the sign of zero parts.
    rng = np.random.default_rng(5)
    for n in range(1, 11):
        vec = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
        got = QubitState(vec, norm="renormalize").amplitudes
        assert got.tobytes() == (vec / math.sqrt(_inner(vec, vec))).tobytes()


def test_parse_slack_rescale_keeps_signed_zero():
    # The slack rescale under "check" scales the float parts as "renormalize"
    # does, so the -0.0 real part keeps its sign bit.
    text = "(-0.0+0.6i)|0> + 0.8000001|1>"
    got = parse_ket(text).amplitudes
    assert math.copysign(1.0, got[0].real) == -1.0
    assert got.tobytes() == parse_ket(text, norm="renormalize").amplitudes.tobytes()


def test_parse_tiny_state_is_not_the_zero_vector():
    with pytest.raises(ValidationError, match="not normalized"):
        parse_ket("1e-170|0>")
    assert parse_ket("1e-170|0>", norm="skip").amplitudes[0] == 1e-170


def test_parse_renormalize_rejects_infinite_amplitude():
    with pytest.raises(ValidationError, match="finite"):
        parse_ket("1e400|0> + 1|1>", norm="renormalize")


@pytest.mark.parametrize(
    "text, position",
    [
        ("9" * 400 + "/1|0>", 0),
        ("|1> - 1/sqrt(" + "9" * 700 + ")|0>", 6),
        ("1/" + "9" * 5000 + "|0>", 0),
    ],
)
def test_parse_huge_integer_is_a_validation_error(text, position):
    message = rf"number too large in coefficient \(at position {position}\)"
    for norm in ("check", "renormalize", "skip"):
        with pytest.raises(ValidationError, match=message):
            parse_ket(text, norm=norm)


@pytest.mark.parametrize(
    "radicand, root",
    [(10**400, 1e-200), (10**615, 10**-307.5), (2**2044, sys.float_info.min)],
    ids=["10^400", "10^615", "2^2044"],
)
def test_parse_inverse_root_past_the_float_range(radicand, root):
    # 1/sqrt(r) is returned while it is a normal float, r up to ~616 digits.
    got = parse_ket(f"1/sqrt({radicand})|0> + |1>", norm="skip").amplitudes[0]
    assert got.imag == 0.0 and abs(got.real - root) <= 4e-16 * root


@pytest.mark.parametrize("radicand", [2**2046, 10**616], ids=["2^2046", "10^616"])
def test_parse_inverse_root_below_the_normal_range_is_refused(radicand):
    with pytest.raises(ValidationError, match=r"number too large in coefficient \(at position 0\)"):
        parse_ket(f"1/sqrt({radicand})|0> + |1>", norm="skip")


def test_unknown_norm_policy_rejected():
    obj = {"num_qubits": 1, "amplitudes": [{"re": 1.0, "im": 0.0}, {"re": 0.0, "im": 0.0}]}
    message = "norm must be 'check', 'renormalize' or 'skip', got 'strict'"
    for read in (
        lambda: QubitState([1.0, 0.0], norm="strict"),
        lambda: parse_ket("|0>", norm="strict"),
        lambda: state_from_json(obj, norm="strict"),
    ):
        with pytest.raises(ValidationError, match=message):
            read()


def test_state_from_json_renormalize_rescales():
    obj = {"num_qubits": 1, "amplitudes": [{"re": 1.2, "im": 0.0}, {"re": 0.0, "im": 1.6}]}
    with pytest.raises(ValidationError, match="not normalized"):
        state_from_json(obj)
    s = state_from_json(obj, norm="renormalize")
    np.testing.assert_allclose(s.amplitudes, [0.6, 0.8j], rtol=0, atol=1e-15)
    assert state_from_json(obj, norm="skip").amplitudes.tolist() == [1.2, 1.6j]


def test_parse_no_normalize_escape_hatch():
    s = parse_ket("0.6|0>", norm="skip")
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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("whole", [False, True])
def test_unitaries_with_non_finite_entries_are_rejected(bad, whole):
    # NaN passes a defect test (NaN > tol is False); inf * 0 puts NaN in the product.
    U = np.full((2, 2), bad) if whole else np.array([[bad, 0.0], [0.0, 1.0]])
    with pytest.raises(ValidationError, match="finite"):
        validate_unitary(U)
    with pytest.raises(ValidationError, match="finite"):
        apply_local_unitaries(parse_ket("|00>"), [np.eye(2), U])


def test_apply_local_unitaries_accepts_its_own_output():
    # U passes validate_unitary with a defect of 9.8e-11, and each factor moves the
    # squared norm by about that much: two of them take |00> past NORM_TOL, which the
    # result used to fail.  It is rescaled instead; exact unitaries keep their bits.
    U = np.diag([1 + 4.9e-11, 1.0])
    validate_unitary(U)
    out = apply_local_unitaries(parse_ket("|00>"), [U, U])
    assert out.amplitudes.tolist() == [1.0, 0.0, 0.0, 0.0]
    s = random_state(3, 46)
    X = np.array([[0.0, 1.0], [1.0, 0.0]])
    flipped = apply_local_unitaries(s, [X, np.eye(2), X])
    np.testing.assert_array_equal(flipped.amplitudes, s.amplitudes.reshape(2, 2, 2)[::-1, :, ::-1].reshape(-1))
    with pytest.raises(ValidationError, match="not normalized"):  # beyond what the factors can move
        apply_local_unitaries(QubitState([1.0, 1e-4], norm="skip"), [U])


def test_apply_local_unitaries_preserves_norm():
    rng = np.random.default_rng(45)
    s = random_state(3, rng)
    Us = [random_su2(rng.integers(2**63)) for _ in range(3)]
    assert abs(apply_local_unitaries(s, Us).norm() - 1.0) <= TOL


# ---------------------------------------------------------------------------
# spin flip and tangle


@pytest.mark.parametrize("half_n", [1, 2, 3])
def test_spin_flip_matches_dense_oracle(half_n):
    # The looped entry formula behind the overlap test, against the
    # complex Kronecker power.
    rng = np.random.default_rng(46 + half_n)
    for _ in range(10):
        s = random_state(2 * half_n, rng.integers(2**63))
        got = oracles.spin_flip(s.amplitudes)
        expect = oracles.spin_flip_dense(s.amplitudes)
        np.testing.assert_allclose(got, expect, atol=TOL)


def test_spin_flip_odd_qubits_rejected():
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


def _tangle_cases(num_qubits, rng):
    """A random complex, a random real, a GHZ and a sparse state."""
    size = 2**num_qubits
    ghz = np.zeros(size)
    ghz[[0, -1]] = 1.0
    sparse = np.zeros(size, dtype=complex)
    picks = rng.choice(size, size=min(size, 6), replace=False)
    sparse[picks] = rng.standard_normal(picks.size) + 1j * rng.standard_normal(picks.size)
    sparse[size - 1 - picks[0]] += 0.5  # at least one complement pair
    vectors = (rng.standard_normal(size), ghz, sparse)
    return [random_state(num_qubits, rng.integers(2**63))] + [
        QubitState(v, norm="renormalize") for v in vectors
    ]


@pytest.mark.parametrize("num_qubits", range(2, 17, 2))
def test_spinflip_tangle_matches_an_independent_overlap(num_qubits):
    # n_tangle never forms the overlap; it is formed here from the full
    # spin-flipped vector of the looped oracle.
    rng = np.random.default_rng(50 + num_qubits)
    for s in _tangle_cases(num_qubits, rng):
        expect = abs(np.vdot(s.amplitudes, oracles.spin_flip(s.amplitudes))) ** 2
        got = n_tangle(s, via="spinflip")
        assert abs(got - expect) <= 1e-12 * expect
        assert got == n_tangle(s, via="hdet")  # one kernel: the same bits


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


@pytest.mark.parametrize("seed", [-1, 1.5, "x"])
def test_random_draws_reject_a_bad_seed(seed):
    # NumPy's own ValueError/TypeError leaves the library as a ValidationError.
    with pytest.raises(ValidationError, match="invalid seed"):
        random_state(2, seed)
    with pytest.raises(ValidationError, match="invalid seed"):
        random_su2(seed)


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
