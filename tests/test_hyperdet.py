"""Sign strings, the antidiagonal identity, and hyperdeterminants."""

import tracemalloc

import numpy as np
import pytest

import oracles
from qhyper import (
    Hypermatrix,
    QubitState,
    SizeCapError,
    ValidationError,
    chi,
    chi_signs,
    ent_matrix_dense,
    fact1_position,
    hdet_fast,
    hdet_general,
    hdet_reduced,
    n_tangle,
    parse_ket,
    random_state,
    sigma_y_dense,
    sign_string_ent,
    sign_string_sigma,
    state_to_hypermatrix,
    verify_antidiagonal_identity,
)
from qhyper import hyperdet
from qhyper.hyperdet import SignString, _perm_tables, _perm_words

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


@pytest.mark.parametrize("n", range(1, 6))
def test_sign_string_rendering_matches_character_loop(n):
    for string in (sign_string_ent(n), sign_string_sigma(n)):
        assert string.as_string() == oracles.render_signs(string.signs)
        assert string.block_string() == oracles.render_blocks(string.signs)


def test_as_string_renders_anything_not_positive_as_minus():
    signs = np.array([1, 0, -1, 127, -128, 2, 0, 1] * 2, dtype=np.int8)
    odd = SignString(signs=signs, n=2, kind="ent")
    assert odd.as_string() == oracles.render_signs(signs) == "+--+-+-+" * 2


def test_sign_string_rendering_peak_memory_at_n10():
    # 4^10 characters are 1 MiB of text; rendering them as a '<U1' array
    # and joining it one character at a time held over 100 MiB.
    string = sign_string_ent(10)
    tracemalloc.start()
    try:
        text, blocks = string.as_string(), string.block_string()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (len(text), len(blocks)) == (4**10, 4**9)
    assert text[:8] == "+--+-++-" and blocks[:4] == "PNNP"
    assert peak < 6 << 20


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


@pytest.mark.parametrize("n", range(1, 13))
def test_sign_strings_match_concatenated_doubling(n):
    for string, base, quarters in (
        (sign_string_ent(n), [1, -1, -1, 1], (1, -1, -1, 1)),
        (sign_string_sigma(n), [-1, 1, 1, -1], (-1, 1, 1, -1)),
    ):
        expect = oracles.sign_string_concat(n, base, quarters)
        assert string.signs.dtype == np.int8
        assert string.signs.tobytes() == expect.tobytes()
        assert not string.signs.flags.writeable


@pytest.mark.parametrize("n", range(1, 13))
def test_chi_signs_match_popcount_oracle(n):
    got = chi_signs(n)
    assert got.dtype == np.int8
    assert got.tobytes() == oracles.chi_signs_popcount(n).tobytes()
    assert not got.flags.writeable


@pytest.mark.parametrize("n", range(1, 6))
def test_chi_signs_match_pure_python_parity(n):
    assert chi_signs(n).tolist() == [oracles.chi_py(j) for j in range(4**n)]


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


@pytest.mark.parametrize("dense", ["no", "off", 0, 1, np.int8(1)])
def test_verify_dense_must_be_none_or_a_bool(dense):
    # n = 9 is past the dense cap, so a truthy non-bool used to raise
    # SizeCapError there for a check the caller meant to decline.
    for n in (3, 9):
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match="dense must be None or a bool"):
                verify_antidiagonal_identity(n, dense=dense)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 << 10
    assert verify_antidiagonal_identity(3, dense=np.bool_(False)).dense_ok is None


def test_verify_dense_cap_checked_before_allocation():
    # n = 12 builds three 4^12-entry strings when the cap is checked late.
    tracemalloc.start()
    try:
        with pytest.raises(SizeCapError):
            verify_antidiagonal_identity(12, dense=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_verify_peak_memory_at_n12():
    # Three 4^12-sign strings are 2 MiB each packed, 16 MiB each as int8.
    tracemalloc.start()
    try:
        report = verify_antidiagonal_identity(12, dense=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 8 << 20


def test_verify_passes_at_the_sign_cap_within_32_mib():
    n = hyperdet.MAX_SIGN_N
    tracemalloc.start()
    try:
        report = verify_antidiagonal_identity(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (report.n, report.factor, report.passed) == (n, (-1) ** n, True)
    assert report.first_mismatch is None and report.dense_ok is None
    assert peak < 32 << 20


def _flipped(bits, index):
    """A copy of the packed signs ``bits`` with sign ``index`` flipped."""
    out = np.array(bits)
    out[index // 8] ^= 0x80 >> (index % 8)
    return out


def _plant_chi(monkeypatch, index):
    real = hyperdet._chi_bits
    monkeypatch.setattr(hyperdet, "_chi_bits", lambda n: _flipped(real(n), index))


def _plant_sigma(monkeypatch, index):
    real = hyperdet._sigma_bits
    monkeypatch.setattr(hyperdet, "_sigma_bits", lambda n: _flipped(real(n), index))


# n = 10 is one comparison chunk of 2^20 signs: its first, a middle and its
# last sign.
PLANTED = (0, 4**10 // 2 + 3, 4**10 - 1)


@pytest.mark.parametrize("index", PLANTED)
def test_verify_reports_a_planted_chi_mismatch(monkeypatch, index):
    _plant_chi(monkeypatch, index)
    report = verify_antidiagonal_identity(10)
    assert (report.string_ok, report.chi_ok, report.passed) == (True, False, False)
    assert report.first_mismatch == index


@pytest.mark.parametrize("index", PLANTED)
def test_verify_reports_the_string_mismatch_first(monkeypatch, index):
    # A chi mismatch at another index, earlier or later, must not win.
    other = PLANTED[(PLANTED.index(index) + 1) % len(PLANTED)]
    _plant_chi(monkeypatch, other)
    _plant_sigma(monkeypatch, index)
    report = verify_antidiagonal_identity(10)
    assert (report.string_ok, report.chi_ok, report.passed) == (False, False, False)
    assert report.first_mismatch == index


# Odd n compares ent with the negated sigma; n = 1 and 2 are one chunk
# of 4 and 16 signs (one and two bytes); n = 3 is one 64-sign word; n = 11
# spans two chunks of 2^21 signs.  Signs 8k+7 and 8k+8 sit on each side of
# a byte boundary.
PLANTED_ANY_N = [
    (1, 0), (1, 3), (2, 5), (2, 7), (2, 8), (2, 15), (3, 63),
    (9, 4**9 // 2 + 1), (9, 8 * 1000 + 7), (9, 8 * 1000 + 8), (9, 4**9 - 1),
    (11, 0), (11, 2**21 - 1), (11, 2**21), (11, 4**11 // 2 + 3), (11, 4**11 - 1),
]


@pytest.mark.parametrize("n, index", PLANTED_ANY_N)
def test_verify_reports_a_planted_chi_mismatch_at_any_n(monkeypatch, n, index):
    _plant_chi(monkeypatch, index)
    report = verify_antidiagonal_identity(n)
    assert (report.string_ok, report.chi_ok, report.passed) == (True, False, False)
    assert report.first_mismatch == index


@pytest.mark.parametrize("n, index", PLANTED_ANY_N)
def test_verify_reports_a_planted_string_mismatch_at_any_n(monkeypatch, n, index):
    _plant_sigma(monkeypatch, index)
    report = verify_antidiagonal_identity(n)
    assert (report.string_ok, report.chi_ok, report.passed) == (False, True, False)
    assert report.first_mismatch == index


@pytest.mark.parametrize("n", [1, 2, 9, 10, 11])
@pytest.mark.parametrize("string_at, chi_at", [(3, 1), (1, 3), (2, 2)])
def test_verify_string_mismatch_wins_within_one_chunk(monkeypatch, n, string_at, chi_at):
    _plant_chi(monkeypatch, chi_at)
    _plant_sigma(monkeypatch, string_at)
    report = verify_antidiagonal_identity(n)
    assert (report.string_ok, report.chi_ok, report.passed) == (False, False, False)
    assert report.first_mismatch == string_at


@pytest.mark.parametrize("n", [1, 2, 3, 5, 9])
def test_verify_matches_an_int8_compare_of_random_plants(monkeypatch, n):
    # Up to three flips each in the packed sigma and chi, against the first
    # differences of the int8 strings from the oracles, string first.
    rng = np.random.default_rng(n)
    ent = oracles.sign_string_concat(n, [1, -1, -1, 1], (1, -1, -1, 1))
    sigma = oracles.sign_string_concat(n, [-1, 1, 1, -1], (-1, 1, 1, -1))
    chi_ = oracles.chi_signs_popcount(n)
    real = {name: getattr(hyperdet, name) for name in ("_sigma_bits", "_chi_bits")}
    for _ in range(20):
        expect = []
        for (name, build), signs in zip(real.items(), ((-1) ** n * sigma, chi_)):
            at = rng.choice(4**n, size=rng.integers(0, 4), replace=False)
            bits = build(n)
            for index in at:
                bits = _flipped(bits, index)
            monkeypatch.setattr(hyperdet, name, lambda n, bits=bits: bits)
            planted = signs.copy()
            planted[at] *= -1
            bad = np.flatnonzero(ent != planted)
            expect.append(int(bad[0]) if bad.size else None)
        report = verify_antidiagonal_identity(n, dense=False)
        string_at, chi_at = expect
        assert (report.string_ok, report.chi_ok) == (string_at is None, chi_at is None)
        assert report.first_mismatch == (chi_at if string_at is None else string_at)


@pytest.mark.parametrize("pad", [0x0, 0x5, 0xF])
def test_verify_ignores_the_pad_bits_at_n1(monkeypatch, pad):
    # The four signs of n = 1 fill the high half of one byte.  Odd n
    # compares ent with the inverted sigma bits, which inverts the pad
    # bits too; no pad pattern may read as a mismatch.
    assert [b(1).tolist() for b in (hyperdet._ent_bits, hyperdet._sigma_bits, hyperdet._chi_bits)] == [
        [0x60], [0x90], [0x60]
    ]
    real_sigma, real_chi = hyperdet._sigma_bits, hyperdet._chi_bits
    monkeypatch.setattr(hyperdet, "_sigma_bits", lambda n: real_sigma(n) | pad)
    monkeypatch.setattr(hyperdet, "_chi_bits", lambda n: real_chi(n) | pad)
    report = verify_antidiagonal_identity(1)
    assert (report.passed, report.first_mismatch) == (True, None)
    _plant_sigma(monkeypatch, 3)
    report = verify_antidiagonal_identity(1)
    assert (report.string_ok, report.chi_ok, report.first_mismatch) == (False, True, 3)


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
        words, signs = _perm_words(m)
        assert [tuple(w) for w in words.tolist()] == list(itertools.permutations(range(m)))
        assert words[0].tolist() == list(range(m))  # the identity first
        for images, sign in zip(words.tolist(), signs.tolist()):
            assert sign == oracles.inversion_parity(images)


@pytest.mark.parametrize("m, order", [(2, N) for N in range(1, 9)] + [(3, N) for N in range(1, 6)])
def test_perm_tables_match_loop_oracle(m, order):
    pos, sign = _perm_tables(m, order)
    expect_pos, expect_sign = oracles.perm_tables_loop(m, order)
    assert (pos.dtype, pos.shape) == (expect_pos.dtype, expect_pos.shape)
    assert (sign.dtype, sign.shape) == (expect_sign.dtype, expect_sign.shape)
    assert pos.tobytes() == expect_pos.tobytes()
    assert sign.tobytes() == expect_sign.tobytes()


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


ORACLE_SHAPES = [(1, order) for order in range(1, 9)]
ORACLE_SHAPES += [(2, order) for order in range(1, 9)]
ORACLE_SHAPES += [(3, order) for order in range(1, 6)]


@pytest.mark.parametrize("side, order", ORACLE_SHAPES)
def test_hdet_general_matches_oracle_at_every_order(side, order):
    H = random_cuboid(side, order, 100 * side + order)
    expect = oracles.hdet_enum(H.data)
    assert abs(hdet_general(H) - expect) <= TOL * max(1.0, abs(expect))
    if order % 2 == 0:
        assert abs(hdet_reduced(H) - hdet_general(H)) <= TOL * max(1.0, abs(expect))


def test_hdet_general_peak_memory_on_largest_side_three_cube():
    # 6^8 terms: the offsets of modes 2..8 hold 6^7 * 3 entries (~6.4 MiB).
    H = random_cuboid(3, 8, 90)
    tracemalloc.start()
    try:
        value = hdet_general(H)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(value)
    assert peak < 32 << 20


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


@pytest.mark.parametrize("num_qubits", [14, 16, 18, 20])
def test_pairing_kernels_match_full_vector_reference(num_qubits):
    # 14 qubits walk one row of 4^7 / 2 entries, 16, 18 and 20 qubits 2, 8
    # and 32 rows of 4^7 entries (1, 3 and 5 row-parity bits).
    rng = np.random.default_rng(80 + num_qubits)
    ghz = np.zeros(2**num_qubits)
    ghz[[0, -1]] = 2**-0.5
    states = [random_state(num_qubits, rng.integers(2**63)) for _ in range(3)]
    for s in states + [QubitState(ghz)]:
        pairing = oracles.pairing_full(s.amplitudes)
        assert abs(hdet_fast(s) - pairing / 2) <= 1e-12 * abs(pairing / 2)
        for via in ("spinflip", "hdet"):
            assert abs(n_tangle(s, via=via) - abs(pairing) ** 2) <= 1e-12 * abs(pairing) ** 2


@pytest.mark.parametrize("num_qubits", [18, 20])
def test_hdet_fast_signs_each_row_by_its_parity(num_qubits):
    # One complement pair a_j = a_{~j} per state, j in row i of the 8 or 32
    # rows of 4^7 entries: the pairing is the single product chi(j) a_j a_{~j},
    # so it is exact and any row sign other than chi(i) shows.
    width = 4**7
    rng = np.random.default_rng(num_qubits)
    seen = set()
    for i in range(2**num_qubits // 2 // width):
        j = i * width + int(rng.integers(width))
        amp = np.zeros(2**num_qubits)
        amp[[j, -1 - j]] = 2**-0.5
        s = QubitState(amp)
        sign = chi(format(j, f"0{num_qubits}b"))
        a = s.amplitudes
        assert hdet_fast(s) == sign * a[j] * a[-1 - j]
        seen.add((bin(i).count("1") % 2, sign))
    assert len(seen) == 4


@pytest.mark.parametrize("via", ["hdet_fast", "n_tangle"])
def test_pairing_kernels_peak_memory_at_20_qubits(via):
    # One full-length complex temporary at 20 qubits is 16 MiB; the row
    # walk holds two 256 KiB buffers.
    s = random_state(20, 90)
    call = hdet_fast if via == "hdet_fast" else lambda s: n_tangle(s, via="spinflip")
    tracemalloc.start()
    try:
        call(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20


def test_hdet_known_values():
    bell = parse_ket("1/sqrt(2)|00> + 1/sqrt(2)|11>")
    ghz4 = parse_ket("1/sqrt(2)|0000> + 1/sqrt(2)|1111>")
    assert abs(hdet_fast(bell) - 0.5) <= TOL
    assert abs(hdet_fast(ghz4) - 0.5) <= TOL
    assert hdet_fast(parse_ket("|0101>")) == 0.0
