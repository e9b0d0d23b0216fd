"""Sign strings, the antidiagonal identity, and hyperdeterminants."""

import numpy as np
import pytest

import oracles
from qhyper import (
    Hypermatrix,
    SizeCapError,
    ValidationError,
    chi,
    chi_signs,
    ent_matrix_dense,
    fact1_position,
    hdet_fast,
    hdet_general,
    hdet_reduced,
    parse_ket,
    random_state,
    sigma_y_dense,
    sign_string_ent,
    sign_string_sigma,
    state_to_hypermatrix,
    verify_antidiagonal_identity,
)
from qhyper.hyperdet import SignString, _parity

TOL = 1e-12


def random_cuboid(side, order, seed):
    rng = np.random.default_rng(seed)
    shape = (side,) * order
    return Hypermatrix(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


# ---------------------------------------------------------------------------
# chi and sign strings


def test_chi_values():
    assert chi("00") == 1
    assert chi("01") == -1
    assert chi("10") == -1
    assert chi("11") == 1
    assert chi("1001") == 1
    assert chi("0111") == -1


def test_chi_validation():
    with pytest.raises(ValidationError):
        chi("")
    with pytest.raises(ValidationError):
        chi("012")
    with pytest.raises(ValidationError):
        chi("0")


def test_exact_sign_strings():
    assert sign_string_ent(1).as_string() == "+--+"
    assert sign_string_sigma(1).as_string() == "-++-"
    assert sign_string_ent(2).as_string() == "+--+-++--++-+--+"
    assert sign_string_ent(3).block_string() == "PNNPNPPNNPPNPNNP"
    # sigma at n = 2 equals ent (the relating factor is (-1)^2 = +1)
    assert sign_string_sigma(2).block_string() == "PNNP"


@pytest.mark.parametrize("n", range(1, 7))
def test_ent_is_factor_times_sigma(n):
    ent = sign_string_ent(n).signs
    sig = sign_string_sigma(n).signs
    np.testing.assert_array_equal(ent, (-1) ** n * sig)


@pytest.mark.parametrize("n", range(1, 5))
def test_ent_matches_parity_of_ones(n):
    signs = sign_string_ent(n).signs
    for j in range(4**n):
        assert signs[j] == oracles.chi_py(j)
        assert signs[j] == chi(format(j, f"0{2 * n}b"))


@pytest.mark.parametrize("n", range(1, 9))
def test_ent_recursion_matches_popcount_formula(n):
    np.testing.assert_array_equal(sign_string_ent(n).signs, chi_signs(n))


@pytest.mark.parametrize("n", range(1, 7))
def test_sign_strings_are_palindromes(n):
    # complementing all 2n bits preserves the parity of the ones count
    for string in (sign_string_ent(n).signs, sign_string_sigma(n).signs):
        np.testing.assert_array_equal(string, string[::-1])


@pytest.mark.parametrize("n", range(2, 7))
def test_doubling_quarters(n):
    prev = sign_string_ent(n - 1).signs
    cur = sign_string_ent(n).signs
    q = 4 ** (n - 1)
    np.testing.assert_array_equal(cur[:q], prev)
    np.testing.assert_array_equal(cur[q : 2 * q], -prev)
    np.testing.assert_array_equal(cur[2 * q : 3 * q], -prev)
    np.testing.assert_array_equal(cur[3 * q :], prev)


def test_block_string_requires_pn_blocks():
    bad = SignString(signs=np.array([1, 1, 1, 1], dtype=np.int8), n=1, kind="ent")
    with pytest.raises(ValidationError):
        bad.block_string()


def test_sign_string_caps():
    with pytest.raises(SizeCapError):
        sign_string_ent(0)
    with pytest.raises(SizeCapError):
        sign_string_sigma(14)
    with pytest.raises(SizeCapError):
        chi_signs(14)


def test_sign_strings_are_immutable():
    with pytest.raises(ValueError):
        sign_string_ent(2).signs[0] = -1


# ---------------------------------------------------------------------------
# dense matrices


def test_ent_matrix_dense_n1_explicit():
    expect = 0.5 * np.array(
        [
            [0, 0, 0, 1],
            [0, 0, -1, 0],
            [0, -1, 0, 0],
            [1, 0, 0, 0],
        ],
        dtype=np.float64,
    )
    np.testing.assert_array_equal(ent_matrix_dense(1), expect)


def test_sigma_y_dense_matches_kron_oracle():
    for n in (1, 2, 3):
        op = oracles.pauli_y_power(2 * n)
        np.testing.assert_array_equal(op.imag, np.zeros_like(op.imag))
        np.testing.assert_array_equal(sigma_y_dense(n), op.real)


@pytest.mark.parametrize("n", range(1, 5))
def test_dense_half_pauli_identity(n):
    np.testing.assert_array_equal(
        ent_matrix_dense(n), ((-1) ** n / 2.0) * sigma_y_dense(n)
    )


def test_dense_caps():
    with pytest.raises(SizeCapError):
        ent_matrix_dense(8)
    with pytest.raises(SizeCapError):
        sigma_y_dense(0)


# ---------------------------------------------------------------------------
# the antidiagonal identity checker


@pytest.mark.parametrize("n", range(1, 9))
def test_verify_antidiagonal_identity_passes(n):
    report = verify_antidiagonal_identity(n)
    assert report.passed
    assert report.n == n
    assert report.factor == (-1) ** n
    assert report.string_ok and report.chi_ok
    assert report.first_mismatch is None
    if n <= 5:
        assert report.dense_ok is True
    else:
        assert report.dense_ok is None


def test_verify_dense_flag():
    assert verify_antidiagonal_identity(6, dense=True).dense_ok is True
    assert verify_antidiagonal_identity(2, dense=False).dense_ok is None
    with pytest.raises(SizeCapError):
        verify_antidiagonal_identity(8, dense=True)


def test_verify_factor_is_minus_one_for_single_pair():
    assert verify_antidiagonal_identity(1).factor == -1


# ---------------------------------------------------------------------------
# fact1_position


def test_fact1_position_by_enumeration():
    for length in (2, 4, 6, 8, 10):
        strings = [format(v, f"0{length}b") for v in range(2**length)]
        assert strings == sorted(strings)  # fixed width: binary == lexicographic
        for k in range(1, length + 1):
            target = format(1 << (k - 1), f"0{length}b")
            assert fact1_position(k, length) == strings.index(target) + 1


def test_fact1_position_validation():
    with pytest.raises(ValidationError):
        fact1_position(1, 3)
    with pytest.raises(ValidationError):
        fact1_position(0, 4)
    with pytest.raises(ValidationError):
        fact1_position(5, 4)


# ---------------------------------------------------------------------------
# permutation parity


def test_permutation_parity_matches_inversion_count():
    import itertools

    for m in (3, 4):
        for images in itertools.permutations(range(m)):
            assert _parity(images) == oracles.inversion_parity(images)


# ---------------------------------------------------------------------------
# hyperdeterminants


def test_hdet_general_matrix_is_determinant():
    for side, seed in ((2, 0), (3, 1)):
        H = random_cuboid(side, 2, seed)
        got = hdet_general(H)
        assert abs(got - np.linalg.det(H.data)) <= TOL
        assert abs(got - oracles.hdet_enum(H.data)) <= TOL


def test_hdet_general_odd_order_vanishes():
    for seed in range(5):
        H = random_cuboid(2, 3, 10 + seed)
        assert abs(hdet_general(H)) <= TOL


def test_hdet_general_matches_enumeration_oracle():
    H = random_cuboid(2, 4, 20)
    assert abs(hdet_general(H) - oracles.hdet_enum(H.data)) <= TOL
    H = random_cuboid(3, 4, 21)
    assert abs(hdet_general(H) - oracles.hdet_enum(H.data)) <= 1e-10


def test_hdet_general_caps():
    with pytest.raises(SizeCapError):
        hdet_general(random_cuboid(4, 2, 30))
    with pytest.raises(ValidationError):
        hdet_general(Hypermatrix(np.zeros((2, 3))))
    with pytest.raises(SizeCapError):
        hdet_general(Hypermatrix(np.zeros((3,) * 9)))  # 6^9 tuples
    with pytest.raises(SizeCapError):
        hdet_reduced(Hypermatrix(np.zeros((3,) * 10)))  # (3!)^9 = 10,077,696


def test_hdet_reduced_equals_general():
    for side, order, seed in ((2, 2, 40), (2, 4, 41), (3, 4, 42)):
        H = random_cuboid(side, order, seed)
        assert abs(hdet_reduced(H) - hdet_general(H)) <= 1e-10


def test_hdet_reduced_odd_order_rejected():
    with pytest.raises(ValidationError):
        hdet_reduced(random_cuboid(2, 3, 50))


def test_hdet_fast_equals_reduced():
    for num_qubits in (2, 4, 6):
        s = random_state(num_qubits, 60 + num_qubits)
        fast = hdet_fast(s)
        slow = hdet_reduced(state_to_hypermatrix(s))
        assert abs(fast - slow) <= TOL


def test_hdet_fast_odd_qubits_rejected():
    with pytest.raises(ValidationError):
        hdet_fast(parse_ket("|000>"))


def test_hdet_fast_eight_term_expansion():
    # For four qubits the pairing collapses to eight products with signs
    # + - - + - + + - on (a_j, a_{15-j}) for j = 0..7.
    s = random_state(4, 70)
    a = s.amplitudes
    signs = [1, -1, -1, 1, -1, 1, 1, -1]
    expect = sum(signs[j] * a[j] * a[15 - j] for j in range(8))
    assert abs(hdet_fast(s) - expect) <= TOL


def test_hdet_known_values():
    bell = parse_ket("1/sqrt(2)|00> + 1/sqrt(2)|11>")
    ghz4 = parse_ket("1/sqrt(2)|0000> + 1/sqrt(2)|1111>")
    assert abs(hdet_fast(bell) - 0.5) <= TOL
    assert abs(hdet_fast(ghz4) - 0.5) <= TOL
    assert hdet_fast(parse_ket("|0101>")) == 0.0
