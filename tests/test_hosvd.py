"""Closed-form qubit HOSVD, fingerprints, canonicalization, equivalence."""

import cmath
import dataclasses
import importlib
import itertools
import math
import re
import sys
from collections import Counter

import numpy as np
import pytest

import oracles
from qhyper import (
    DimensionMismatchError,
    Hypermatrix,
    LuTag,
    QubitState,
    ValidationError,
    apply_local_unitaries,
    canonicalize_core,
    frobenius_norm,
    hosvd,
    lu_equivalence,
    lu_fingerprint,
    mode_factor,
    mode_permute,
    mode_svals,
    multilinear_multiply,
    parse_ket,
    random_state,
    random_su2,
    state_to_hypermatrix,
)
from qhyper.hosvd import DEGENERACY_GAP, HosvdResult, _alignment_candidates, _plan
from test_lu_verdict_corpus import _amplitudes

TOL = 1e-10
CROSS_TOL = 1e-12


def random_qubit_tensor(rng, order, normalized=True):
    data = rng.standard_normal((2,) * order) + 1j * rng.standard_normal((2,) * order)
    if normalized:
        data = data / np.linalg.norm(data)
    return Hypermatrix(data)


def all_orthogonality_residual(core):
    worst = 0.0
    for k in range(1, core.order + 1):
        M = oracles.unfold_by_formula(core.data, k)
        G = M @ M.conj().T
        worst = max(worst, float(np.max(np.abs(G - np.diag(np.diag(G))))))
    return worst


def min_relative_gap(fingerprint):
    gaps = []
    for sv in fingerprint:
        if sv[0] <= 0:
            return 0.0
        gaps.append((sv[0] - sv[1]) / sv[0])
    return min(gaps)


# ---------------------------------------------------------------------------
# mode_factor: closed form vs independent oracles


@pytest.mark.parametrize("order", [2, 3, 4, 5])
def test_mode_svals_cross_validated(order):
    rng = np.random.default_rng(100 + order)
    for _ in range(50):
        H = random_qubit_tensor(rng, order)
        for k in range(1, order + 1):
            sv = mode_svals(H, k)
            M = oracles.unfold_by_formula(H.data, k)
            np.testing.assert_allclose(sv, oracles.svd_svals(M), atol=CROSS_TOL)
            np.testing.assert_allclose(sv, oracles.gram_svals(M), atol=CROSS_TOL)
            assert sv[0] >= sv[1] >= 0.0


@pytest.mark.parametrize("scale", [1e155, 1e200, 1e-170, 1e-300])
def test_spectra_survive_entries_whose_squares_leave_the_float_range(scale):
    # |entry|^2 overflows to inf above ~1e154 and underflows to 0 below ~1e-162;
    # the spectra used to read [[inf, nan], [inf, nan]] or all zeros here.
    H = Hypermatrix(scale * np.array([[1.0, 3.0], [1.0, 0.0]]))
    res = hosvd(H)
    for k in (1, 2):
        expect = oracles.svd_svals(oracles.unfold_by_formula(H.data, k))
        for got in (lu_fingerprint(H)[k - 1], mode_svals(H, k), res.mode_svals[k - 1]):
            np.testing.assert_allclose(got, expect, rtol=1e-14, atol=0)
    np.testing.assert_allclose(res.reconstruct().data, H.data, rtol=0, atol=1e-14 * scale)


@pytest.mark.parametrize(
    "entry_point",
    [lu_fingerprint, hosvd, lambda H: mode_svals(H, 1), lambda H: mode_factor(H, 2)],
    ids=["lu_fingerprint", "hosvd", "mode_svals", "mode_factor"],
)
def test_spectra_past_the_float_range_are_rejected(entry_point):
    # The top spectrum of this H is 2e308, past the largest float: a ValidationError,
    # not inf and not NumPy's overflow warning (an error under the test configuration).
    with pytest.raises(ValidationError, match="^a mode singular value is past the floating-point range$"):
        entry_point(Hypermatrix(np.full((2, 2), 1e308)))


def test_spectra_just_inside_the_float_range_are_kept():
    big = np.finfo(float).max
    np.testing.assert_array_equal(lu_fingerprint(Hypermatrix(np.array([[big, 0.0], [0.0, 0.0]]))), [[big, 0.0]] * 2)


def test_neighbour_floor_of_a_huge_core_reads_inf():
    # top^2 and the squared spectra overflow near 1e300; the floor must read inf, so
    # no neighbour pins a mode, and no NumPy overflow warning (an error here) is raised.
    res = hosvd(Hypermatrix(np.array([[1e300, 1e299], [2e299, 0.0]])))
    anchor, pin, walk = _plan(res.core.data, res.mode_svals, TOL / 4)
    assert anchor == 0 and not pin.any() and walk
    canon = canonicalize_core(res)
    assert np.isfinite(canon.core.data).all()
    np.testing.assert_allclose(canon.reconstruct().data, res.reconstruct().data, rtol=0, atol=1e285)


@pytest.mark.parametrize("order", [2, 3, 4])
def test_mode_factor_diagonalizes_gram(order):
    rng = np.random.default_rng(200 + order)
    for _ in range(25):
        H = random_qubit_tensor(rng, order)
        for k in range(1, order + 1):
            V, sv = mode_factor(H, k)
            assert np.max(np.abs(V.conj().T @ V - np.eye(2))) <= CROSS_TOL
            M = oracles.unfold_by_formula(H.data, k)
            G = M @ M.conj().T
            D = V.conj().T @ G @ V
            np.testing.assert_allclose(np.diag(D).real, sv**2, atol=CROSS_TOL)
            assert abs(D[0, 1]) <= CROSS_TOL


@pytest.mark.parametrize("dims", [(3, 2, 2), (2, 3, 2), (3, 2, 4, 2)])
def test_mode_factor_mixed_dims(dims):
    # A length-2 mode among modes of other lengths: the rows of the
    # unfolding must be read with the true leading size, not 2^(k-1).
    rng = np.random.default_rng(250 + len(dims))
    H = Hypermatrix(rng.standard_normal(dims) + 1j * rng.standard_normal(dims))
    for k in (k for k, n in enumerate(dims, start=1) if n == 2):
        M = oracles.unfold_by_formula(H.data, k)
        np.testing.assert_allclose(mode_svals(H, k), oracles.svd_svals(M), atol=CROSS_TOL)
        V, sv = mode_factor(H, k)
        D = V.conj().T @ (M @ M.conj().T) @ V
        np.testing.assert_allclose(np.diag(D).real, sv**2, atol=CROSS_TOL)
        assert abs(D[0, 1]) <= CROSS_TOL


def test_mode_factor_branch_stability():
    # Exercise both eigenvector branches and the c = 0 shortcut.
    top_heavy = Hypermatrix(np.array([[0.9, 0.1], [0.05, 0.4]], dtype=complex))
    bottom_heavy = Hypermatrix(np.array([[0.1, 0.05], [0.9, 0.4]], dtype=complex))
    diagonal = Hypermatrix(np.array([[0.8, 0.0], [0.0, 0.6]], dtype=complex))
    for H in (top_heavy, bottom_heavy, diagonal):
        V, sv = mode_factor(H, 1)
        M = oracles.unfold_by_formula(H.data, 1)
        np.testing.assert_allclose(sv, oracles.svd_svals(M), atol=CROSS_TOL)
        G = M @ M.conj().T
        np.testing.assert_allclose(G @ V[:, 0], sv[0] ** 2 * V[:, 0], atol=CROSS_TOL)


def test_mode_factor_zero_tensor_convention():
    V, sv = mode_factor(Hypermatrix(np.zeros((2, 2, 2))), 2)
    np.testing.assert_array_equal(V, np.eye(2))
    np.testing.assert_array_equal(sv, [0.0, 0.0])


def test_mode_factor_degenerate_spectrum_gives_identity():
    # Two orthogonal equal-norm rows: Gram is a multiple of the identity.
    H = Hypermatrix(np.array([[1.0, 0.0], [0.0, 1.0]]) / math.sqrt(2))
    V, sv = mode_factor(H, 1)
    np.testing.assert_array_equal(V, np.eye(2))
    np.testing.assert_allclose(sv, [1 / math.sqrt(2)] * 2, atol=CROSS_TOL)


@pytest.mark.parametrize(
    "data",
    [
        np.array([[0.9, 0.1], [0.05, 0.4]]),  # non-degenerate
        np.eye(2) / math.sqrt(2),  # degenerate spectrum
        np.zeros((2, 2)),  # zero spectrum
    ],
    ids=["generic", "degenerate", "zero"],
)
def test_mode_factor_returns_read_only_arrays(data):
    # lu_equivalence shares one input's factors across every relabeling.
    V, sv = mode_factor(Hypermatrix(data), 1)
    assert not V.flags.writeable
    assert not sv.flags.writeable


def test_mode_factor_rejects_mode_out_of_range():
    H = Hypermatrix(np.zeros((2, 2)))
    for k in (0, 3):
        with pytest.raises(ValidationError):
            mode_factor(H, k)


def test_mode_factor_rejects_long_modes():
    H = Hypermatrix(np.zeros((2, 3)))
    with pytest.raises(ValidationError):
        mode_factor(H, 2)


def _with_unentangled_qubit(rng, n, k):
    """A random n-qubit state whose qubit k is a product factor."""
    qubit = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    rest = random_qubit_tensor(rng, n - 1).data if n > 1 else np.ones(())
    return Hypermatrix(np.moveaxis(np.multiply.outer(qubit / np.linalg.norm(qubit), rest), 0, k - 1))


@pytest.mark.parametrize("unentangled", [False, True], ids=["generic", "unentangled"])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12, 16])
def test_single_mode_reads_equal_the_sweep_bit_for_bit(n, unentangled):
    # mode_factor solves one mode of the sweep that hosvd runs over all of them.
    rng = np.random.default_rng(260 + n)
    if unentangled:
        H = _with_unentangled_qubit(rng, n, int(rng.integers(1, n + 1)))
    else:
        H = random_qubit_tensor(rng, n)
    res = hosvd(H)
    assert lu_fingerprint(H).tobytes() == res.mode_svals.tobytes()
    for k in range(1, n + 1):
        V, sv = mode_factor(H, k)
        assert V.tobytes() == res.factors[k - 1].tobytes()
        assert sv.tobytes() == mode_svals(H, k).tobytes() == res.mode_svals[k - 1].tobytes()


@pytest.mark.parametrize("n", [8, 12, 16])
def test_sweep_spectra_match_svd_of_unfoldings(n):
    rng = np.random.default_rng(270 + n)
    for H in (random_qubit_tensor(rng, n), _with_unentangled_qubit(rng, n, n // 2)):
        spectra = lu_fingerprint(H)
        for k in range(1, n + 1):
            M = np.moveaxis(H.data, k - 1, 0).reshape(2, -1)
            np.testing.assert_allclose(spectra[k - 1], oracles.svd_svals(M), rtol=0, atol=CROSS_TOL)


def test_unentangled_qubit_reads_one_and_zero():
    # The lower eigenvalue is below 1e-8 of the trace, so the sweep reads it as
    # the norm of the projected unfolding instead of the root of roundoff.
    H = _with_unentangled_qubit(np.random.default_rng(280), 12, 3)
    for sv in (mode_svals(H, 3), hosvd(H).mode_svals[2]):
        assert abs(sv[0] - 1.0) <= 1e-15
        assert 0.0 <= sv[1] <= 1e-15


@pytest.mark.parametrize(
    "data, degenerate",
    [
        (np.eye(2) / math.sqrt(2), [1, 2]),  # Bell: every mode degenerate
        (np.zeros((2, 2, 2)), [1, 2, 3]),  # zero spectrum
        (np.multiply.outer(np.eye(2) / math.sqrt(2), [0.6, 0.8j]), [1, 2]),  # Bell x qubit
        (np.multiply.outer([0.8, 0.6], np.eye(2) / math.sqrt(2)), [2, 3]),  # qubit x Bell
    ],
    ids=["bell", "zero", "bell-qubit", "qubit-bell"],
)
def test_degenerate_modes_get_exactly_the_identity(data, degenerate):
    # +0.0 everywhere off the diagonal, also when other modes are solved alongside.
    H = Hypermatrix(data)
    eye = np.eye(2, dtype=np.complex128).tobytes()
    res = hosvd(H)
    for k in range(1, H.order + 1):
        assert (res.factors[k - 1].tobytes() == eye) is (k in degenerate)
        assert (mode_factor(H, k)[0].tobytes() == eye) is (k in degenerate)


# ---------------------------------------------------------------------------
# hosvd


@pytest.mark.parametrize("order", [2, 3, 4, 5])
def test_hosvd_invariants(order):
    rng = np.random.default_rng(300 + order)
    for _ in range(20):
        H = random_qubit_tensor(rng, order)
        res = hosvd(H)
        assert np.max(np.abs(res.reconstruct().data - H.data)) <= TOL
        assert all_orthogonality_residual(res.core) <= TOL
        for k, sv in enumerate(res.mode_svals, start=1):
            assert sv[0] >= sv[1] >= 0.0
            slices = oracles.unfold_by_formula(res.core.data, k)
            norms = np.linalg.norm(slices, axis=1)
            np.testing.assert_allclose(norms, sv, atol=TOL)
            # Parseval: squared svals in each mode sum to the squared norm.
            assert abs(sum(s**2 for s in sv) - frobenius_norm(H) ** 2) <= TOL


def test_hosvd_basis_tensor():
    basis = np.zeros((2, 2, 2), dtype=complex)
    basis[0, 0, 0] = 1.0
    res = hosvd(Hypermatrix(basis))
    for sv in res.mode_svals:
        np.testing.assert_allclose(sv, [1.0, 0.0], atol=CROSS_TOL)
    np.testing.assert_allclose(res.core.data, basis, atol=CROSS_TOL)
    for V in res.factors:
        np.testing.assert_allclose(np.abs(V), np.eye(2), atol=CROSS_TOL)


def test_hosvd_of_own_core_gives_identity_factors():
    # All-orthogonal, descending-norm tensor: factors are identity up to phase.
    data = np.zeros((2, 2, 2), dtype=complex)
    data[0, 0, 0] = 0.9
    data[1, 1, 1] = np.sqrt(1 - 0.81)
    res = hosvd(Hypermatrix(data))
    for V in res.factors:
        np.testing.assert_allclose(np.abs(V), np.eye(2), atol=CROSS_TOL)


def test_hosvd_record_is_stacked_and_read_only():
    H = random_qubit_tensor(np.random.default_rng(150), 4)
    res = hosvd(H)
    canon = canonicalize_core(res)
    assert res.factors.shape == canon.factors.shape == (4, 2, 2)
    assert res.mode_svals.shape == lu_fingerprint(H).shape == (4, 2)
    for arr in (res.factors, res.mode_svals, canon.factors, lu_fingerprint(H)):
        assert not arr.flags.writeable


@pytest.mark.parametrize("n", [3, 5, 8, 12])
def test_hosvd_record_commutes_with_mode_permutation(n):
    # The whole record, not only the spectra: relabelling the modes by sigma
    # indexes the factors and spectra by sigma and pi-transposes the core,
    # before and after canonicalization.
    rng = np.random.default_rng(150 + n)
    for _ in range(5):
        H = random_qubit_tensor(rng, n)
        sigma = tuple(int(j) + 1 for j in rng.permutation(n))
        idx = np.subtract(sigma, 1)
        res = hosvd(H)
        expect = HosvdResult(res.factors[idx], mode_permute(res.core, sigma), res.mode_svals[idx])
        got = hosvd(mode_permute(H, sigma))
        for a, b in ((got, expect), (canonicalize_core(got), canonicalize_core(expect))):
            np.testing.assert_allclose(a.factors, b.factors, rtol=0, atol=CROSS_TOL)
            np.testing.assert_allclose(a.mode_svals, b.mode_svals, rtol=0, atol=CROSS_TOL)
            np.testing.assert_allclose(a.core.data, b.core.data, rtol=0, atol=CROSS_TOL)


def test_hosvd_rejects_non_qubit_dims():
    with pytest.raises(ValidationError):
        hosvd(Hypermatrix(np.zeros((2, 3, 2))))


# ---------------------------------------------------------------------------
# fingerprints


def test_fingerprint_of_basis_state():
    basis = np.zeros((2, 2, 2, 2), dtype=complex)
    basis[0, 0, 0, 0] = 1.0
    fp = lu_fingerprint(Hypermatrix(basis))
    for sv in fp:
        np.testing.assert_allclose(sv, [1.0, 0.0], atol=CROSS_TOL)


@pytest.mark.parametrize("order", [2, 3, 4, 5, 6])
def test_fingerprint_su2_invariance(order):
    rng = np.random.default_rng(400 + order)
    for trial in range(10):
        H = random_qubit_tensor(rng, order)
        Us = [random_su2(rng.integers(2**63)) for _ in range(order)]
        rotated = multilinear_multiply(Us, H)
        fa = lu_fingerprint(H)
        fb = lu_fingerprint(rotated)
        for sa, sb in zip(fa, fb):
            np.testing.assert_allclose(sa, sb, atol=1e-9)


def test_fingerprint_mode_permutation_covariance():
    rng = np.random.default_rng(500)
    H = random_qubit_tensor(rng, 4)
    mapping = (3, 1, 4, 2)
    fp = lu_fingerprint(H)
    fp_perm = lu_fingerprint(mode_permute(H, mapping))
    for k, target in enumerate(mapping):
        np.testing.assert_allclose(fp_perm[k], fp[target - 1], atol=CROSS_TOL)


# ---------------------------------------------------------------------------
# canonicalize_core


def test_canonicalize_preserves_reconstruction_and_svals():
    rng = np.random.default_rng(600)
    H = random_qubit_tensor(rng, 3)
    res = hosvd(H)
    canon = canonicalize_core(res)
    assert np.max(np.abs(canon.reconstruct().data - H.data)) <= TOL
    for sa, sb in zip(res.mode_svals, canon.mode_svals):
        np.testing.assert_array_equal(sa, sb)
    for V in canon.factors:
        assert np.max(np.abs(V.conj().T @ V - np.eye(2))) <= CROSS_TOL


def test_canonicalize_idempotent():
    rng = np.random.default_rng(601)
    for trial in range(10):
        H = random_qubit_tensor(rng, 3)
        once = canonicalize_core(hosvd(H))
        twice = canonicalize_core(once)
        np.testing.assert_allclose(twice.core.data, once.core.data, atol=CROSS_TOL)


def test_canonicalize_anchor_is_real_positive():
    rng = np.random.default_rng(602)
    H = random_qubit_tensor(rng, 3)
    core = canonicalize_core(hosvd(H)).core.data
    flat = core.reshape(-1)
    top = flat[np.argmax(np.abs(flat))]
    assert abs(top.imag) <= 1e-12
    assert top.real > 0


def test_canonicalize_zero_core_is_noop():
    res = hosvd(Hypermatrix(np.zeros((2, 2))))
    canon = canonicalize_core(res)
    np.testing.assert_array_equal(canon.core.data, res.core.data)


@pytest.mark.parametrize("negligible", [0.0, -1.0, math.nan, math.inf])
def test_canonicalize_rejects_bad_negligible(negligible):
    # 0 would divide the neighbour floor by zero; the others give no gauge.
    res = hosvd(random_qubit_tensor(np.random.default_rng(607), 3))
    with pytest.raises(ValidationError, match="tolerance must be positive and finite"):
        canonicalize_core(res, negligible=negligible)


@pytest.mark.parametrize(
    "field, value, error, message",
    [
        ("mode_svals", np.array([0.9, 0.3, 0.1]), DimensionMismatchError,
         r"^mode_svals must have shape \(3, 2\) .*, got \(3,\)$"),
        ("factors", np.broadcast_to(np.eye(2, dtype=complex), (2, 2, 2)), DimensionMismatchError,
         r"^factors must have shape \(3, 2, 2\) .*, got \(2, 2, 2\)$"),
        ("core", np.ones((2, 2, 2), dtype=complex), ValidationError, r"^the core must be .*, got ndarray$"),
        ("core", Hypermatrix(np.ones((2, 3, 2))), ValidationError, r"^the core must be .*, got dims \(2, 3, 2\)$"),
    ],
    ids=["spectra-row", "two-factors", "ndarray-core", "length-3-mode"],
)
def test_canonicalize_checks_the_record_it_is_given(field, value, error, message):
    # A hand-built record used to fail inside the kernel with a bare IndexError
    # (spectra row), ValueError (phase broadcast) or AttributeError (ndarray core).
    res = hosvd(random_qubit_tensor(np.random.default_rng(609), 3))
    with pytest.raises(error, match=message):
        canonicalize_core(dataclasses.replace(res, **{field: value}))


def test_diagonal_phase_pairs_canonicalize_to_equal_cores():
    rng = np.random.default_rng(603)
    checked = 0
    for trial in range(20):
        H = random_qubit_tensor(rng, 3)
        if min_relative_gap(lu_fingerprint(H)) < 1e-3:
            continue
        phases = rng.uniform(0, 2 * np.pi, size=(3, 2))
        Ds = [np.diag(np.exp(1j * row)) for row in phases]
        K = multilinear_multiply(Ds, H)
        ca = canonicalize_core(hosvd(H)).core
        cb = canonicalize_core(hosvd(K)).core
        np.testing.assert_allclose(cb.data, ca.data, atol=TOL)
        checked += 1
    assert checked >= 10


def test_general_lu_pairs_canonicalize_to_equal_cores():
    rng = np.random.default_rng(604)
    checked = 0
    for trial in range(20):
        H = random_qubit_tensor(rng, 3)
        if min_relative_gap(lu_fingerprint(H)) < 1e-3:
            continue
        Us = [random_su2(rng.integers(2**63)) for _ in range(3)]
        K = multilinear_multiply(Us, H)
        ca = canonicalize_core(hosvd(H)).core
        cb = canonicalize_core(hosvd(K)).core
        np.testing.assert_allclose(cb.data, ca.data, atol=TOL)
        checked += 1
    assert checked >= 10


def _test_state(kind, n, rng):
    # generic, symmetric, w-like, sparse, product (qubit 1 unentangled),
    # near-degenerate (mode-1 relative gap 1e-5), ghz, cluster (linear),
    # bell-bell (n >= 4) or dicke (D(n, k), k drawn), as in the verdict corpus.
    return QubitState(_amplitudes(kind, n, rng))


@pytest.mark.parametrize("negligible", [2.5e-11, 1e-3, 0.05, 1.0])
@pytest.mark.parametrize(
    "kind",
    ["generic", "symmetric", "w-like", "sparse", "ghz", "cluster", "bell-bell", "dicke"],
)
def test_canonicalize_matches_per_entry_walk(kind, negligible):
    # Random SU(2)s mix the support; local diagonal phases keep it, and on the ghz,
    # bell-bell and dicke supports no entry is one mode from the anchor, so the walk
    # pins modes from entries that touch several.
    rng = np.random.default_rng(605)
    for n in range({"bell-bell": 4, "dicke": 2}.get(kind, 1), 9):
        psi = _test_state(kind, n, rng)
        mixed = apply_local_unitaries(psi, [random_su2(rng.integers(2**63)) for _ in range(n)])
        diagonal = [np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, 2))) for _ in range(n)]
        for state in (mixed, apply_local_unitaries(psi, diagonal)):
            res = hosvd(state_to_hypermatrix(state))
            expect = oracles.canonical_core_walk(res.core.data, negligible, res.mode_svals)
            got = canonicalize_core(res, negligible=negligible).core.data
            np.testing.assert_allclose(got, expect, rtol=0, atol=1e-13)


@pytest.mark.parametrize("negligible", [2.5e-11, 1e-3, 0.05, 1.0])
def test_canonicalize_matches_per_entry_walk_under_diagonal_phases(negligible):
    # The support {000, 011, 101, 110}: every entry differs from the anchor in two modes.
    rng = np.random.default_rng(608)
    family = np.zeros(8, dtype=complex)
    family[[0b000, 0b011, 0b101, 0b110]] = 0.7, 0.5, 0.4, math.sqrt(0.1)
    for _ in range(8):
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=(3, 2)))
        res = hosvd(Hypermatrix(family.reshape(2, 2, 2) * np.einsum("i,j,k->ijk", *phases)))
        expect = oracles.canonical_core_walk(res.core.data, negligible, res.mode_svals)
        got = canonicalize_core(res, negligible=negligible).core.data
        np.testing.assert_allclose(got, expect, rtol=0, atol=1e-13)


@pytest.mark.parametrize("n", [10, 12])
@pytest.mark.parametrize("kind", ["symmetric", "sparse"])
def test_canonicalize_matches_per_entry_walk_wide(kind, n):
    # Long tie groups and many of them: the visiting order must sort by
    # group first and by index only within a group.
    rng = np.random.default_rng(606 + n)
    psi = _test_state(kind, n, rng)
    psi = apply_local_unitaries(psi, [random_su2(rng.integers(2**63)) for _ in range(n)])
    res = hosvd(state_to_hypermatrix(psi))
    for negligible in (2.5e-11, 1e-3):
        expect = oracles.canonical_core_walk(res.core.data, negligible, res.mode_svals)
        got = canonicalize_core(res, negligible=negligible).core.data
        np.testing.assert_allclose(got, expect, rtol=0, atol=1e-13)


def test_canonicalize_planted_tie_groups():
    # The top group holds index 5 only; the next groups hold the smaller
    # indices 0, 2 and 3, which a key ignoring the groups would visit first.
    flat = np.zeros(8, dtype=complex)
    for i, mag, phase in [(5, 0.8, 0.3), (0, 0.5, 1.1), (6, 0.5, -0.7), (2, 0.3, 2.0), (3, 0.3, -2.5)]:
        flat[i] = mag * np.exp(1j * phase)
    res = HosvdResult(
        factors=(np.eye(2, dtype=complex),) * 3,
        core=Hypermatrix(flat.reshape(2, 2, 2)),
        mode_svals=(np.ones(2),) * 3,
    )
    got = canonicalize_core(res).core.data
    assert got.reshape(-1)[5] == pytest.approx(0.8)
    expect = oracles.canonical_core_walk(res.core.data, TOL / 4, res.mode_svals)
    np.testing.assert_allclose(got, expect, atol=1e-15)


def _planted(entries, n=3):
    # Mode spectra (0.9, 0.4) everywhere: the neighbour floor is ~1.3e-4 for a top of 0.8.
    flat = np.zeros(2**n, dtype=complex)
    for i, mag, phase in entries:
        flat[i] = mag * np.exp(1j * phase)
    return HosvdResult(
        factors=(np.eye(2, dtype=complex),) * n,
        core=Hypermatrix(flat.reshape((2,) * n)),
        mode_svals=(np.array([0.9, 0.4]),) * n,
    )


def _canonical_against_oracle(res, negligible=TOL / 4):
    got = canonicalize_core(res, negligible=negligible)
    expect = oracles.canonical_core_walk(res.core.data, negligible, res.mode_svals)
    np.testing.assert_allclose(got.core.data, expect, rtol=0, atol=1e-15)
    return got.core.data.reshape(-1)


def _real_positive(z):
    return abs(z.imag) <= 1e-12 and z.real > 0


def test_canonicalize_walk_pins_modes_whose_neighbour_is_below_the_floor():
    # Anchor 000.  Its neighbours 100 and 001 clear the floor; 010 is above
    # negligible but below the floor, so the walk pins mode 2 from 110.
    res = _planted([(0, 0.8, 0.3), (4, 0.5, 1.1), (1, 0.4, -0.7), (2, 1e-6, 2.0), (6, 0.3, -2.5)])
    assert oracles.neighbour_pins(res.core.data, TOL / 4, res.mode_svals) == {0: 4, 2: 1}
    got = _canonical_against_oracle(res)
    assert all(_real_positive(got[i]) for i in (0, 4, 1, 6))
    assert not _real_positive(got[2])


def test_canonicalize_tied_top_takes_the_walk():
    # 101 is the largest entry, but 011 lies within negligible of it: the
    # top is tied, so 011 anchors and no neighbour of 101 pins a mode.
    res = _planted(
        [(5, 0.6, 0.4), (3, 0.6 - 1e-12, -1.0), (1, 0.3, 2.2), (7, 0.2, 0.9), (0, 0.1, -0.3)]
    )
    assert int(np.argmax(np.abs(res.core.data))) == 5
    assert oracles.neighbour_pins(res.core.data, TOL / 4, res.mode_svals) == {}
    got = _canonical_against_oracle(res)
    assert all(_real_positive(got[i]) for i in (3, 1, 5, 0))
    assert not _real_positive(got[7])


@pytest.mark.parametrize("scale", [1.0, 0.5])
def test_canonicalize_neighbour_at_or_below_negligible_pins_nothing(scale):
    # 001 is the anchor's only entry in mode 3, at or below negligible, so
    # mode 3 keeps phase zero: 001 turns only by the anchor's phase.
    res = _planted([(0, 0.8, 0.3), (4, 0.5, 1.1), (2, 0.4, -0.7), (1, scale * TOL / 4, 2.0)])
    assert oracles.neighbour_pins(res.core.data, TOL / 4, res.mode_svals) == {0: 4, 1: 2}
    got = _canonical_against_oracle(res)
    assert got[1] == pytest.approx(scale * TOL / 4 * np.exp(1.7j), abs=1e-25)


@pytest.mark.parametrize("negligible", [0.05, 1.0])
@pytest.mark.parametrize("kind", ["generic", "symmetric", "w-like", "sparse"])
def test_canonicalize_leaves_modes_the_support_never_touches(kind, negligible):
    # A mode in which every entry above negligible (and the largest) has the
    # same index bit keeps its factor: nothing may pin it.
    rng = np.random.default_rng(609)
    for n in range(1, 9):
        psi = _test_state(kind, n, rng)
        psi = apply_local_unitaries(psi, [random_su2(rng.integers(2**63)) for _ in range(n)])
        res = hosvd(state_to_hypermatrix(psi))
        canon = canonicalize_core(res, negligible=negligible)
        support = oracles.canonical_order(res.core.data, negligible)
        for k in range(n):
            if len({i >> (n - 1 - k) & 1 for i in support}) == 1:
                # Mode 1 also carries the anchor's phase, on both columns.
                z = np.vdot(res.factors[k], canon.factors[k]) / 2 if k == 0 else 1.0
                assert abs(abs(z) - 1.0) <= 1e-15
                np.testing.assert_allclose(canon.factors[k], z * res.factors[k], rtol=0, atol=1e-15)


@pytest.mark.parametrize("n", [8, 10, 12, 14])
def test_wide_lu_pairs_canonicalize_to_equal_cores(n):
    # Generic cores at these sizes have every neighbour above the floor,
    # so the anchor's neighbours fix every phase.
    rng = np.random.default_rng(610 + n)
    H = random_qubit_tensor(rng, n)
    K = multilinear_multiply([random_su2(rng.integers(2**63)) for _ in range(n)], H)
    ra, rb = hosvd(H), hosvd(K)
    assert len(oracles.neighbour_pins(rb.core.data, TOL / 4, rb.mode_svals)) == n
    ca, cb = canonicalize_core(ra).core, canonicalize_core(rb).core
    np.testing.assert_allclose(cb.data, ca.data, rtol=0, atol=TOL)


# ---------------------------------------------------------------------------
# lu_equivalence


def hyper(text):
    return state_to_hypermatrix(parse_ket(text))


def test_result_types_are_slotted_and_frozen():
    psi = hyper("1/2|000> - 1/2|100> + 1/sqrt(2)|101>")
    verdict = lu_equivalence(psi, hyper("1/2|000> - 1/2|010> + 1/sqrt(2)|101>"))
    for obj in (verdict, verdict.certificate, hosvd(psi)):
        assert not hasattr(obj, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, dataclasses.fields(obj)[0].name, None)
    assert dataclasses.asdict(verdict.certificate) == {
        "mode": 1,
        "svals_a": verdict.certificate.svals_a,
        "svals_b": verdict.certificate.svals_b,
    }


def test_lu_equivalence_worked_example_triple():
    psi = hyper("1/2|000> - 1/2|100> + 1/sqrt(2)|101>")
    phi = hyper("1/2|000> - 1/2|010> + 1/sqrt(2)|101>")
    verdict = lu_equivalence(psi, phi)
    assert verdict.tag is LuTag.NOT_EQUIVALENT
    cert = verdict.certificate
    assert cert.mode == 1
    hi = math.sqrt(2 + math.sqrt(2)) / 2
    lo = math.sqrt(2 - math.sqrt(2)) / 2
    np.testing.assert_allclose(cert.svals_a, [hi, lo], atol=TOL)
    np.testing.assert_allclose(cert.svals_b, [1 / math.sqrt(2)] * 2, atol=TOL)
    for mapping in [(3, 2, 1), (3, 1, 2)]:
        verdict = lu_equivalence(psi, mode_permute(psi, mapping))
        assert verdict.tag is LuTag.EQUIVALENT_CORE_MATCH


def test_lu_equivalence_reflexive():
    rng = np.random.default_rng(700)
    for trial in range(10):
        H = random_qubit_tensor(rng, 3)
        verdict = lu_equivalence(H, H)
        assert verdict.tag is not LuTag.NOT_EQUIVALENT


def test_lu_equivalence_accepts_lu_pairs():
    rng = np.random.default_rng(701)
    checked = 0
    for trial in range(20):
        H = random_qubit_tensor(rng, 3)
        if min_relative_gap(lu_fingerprint(H)) < 1e-3:
            continue
        Us = [random_su2(rng.integers(2**63)) for _ in range(3)]
        K = multilinear_multiply(Us, H)
        assert lu_equivalence(H, K).tag is LuTag.EQUIVALENT_CORE_MATCH
        checked += 1
    assert checked >= 10


def test_lu_equivalence_accepts_relabeled_lu_pairs():
    rng = np.random.default_rng(702)
    checked = 0
    for trial in range(20):
        H = random_qubit_tensor(rng, 3)
        if min_relative_gap(lu_fingerprint(H)) < 1e-3:
            continue
        Us = [random_su2(rng.integers(2**63)) for _ in range(3)]
        K = mode_permute(multilinear_multiply(Us, H), (2, 3, 1))
        verdict = lu_equivalence(H, K)
        assert verdict.tag is LuTag.EQUIVALENT_CORE_MATCH
        checked += 1
    assert checked >= 10


def test_lu_equivalence_generic_states_differ():
    rng = np.random.default_rng(703)
    H = random_qubit_tensor(rng, 3)
    K = random_qubit_tensor(rng, 3)
    assert lu_equivalence(H, K).tag is LuTag.NOT_EQUIVALENT


def test_lu_equivalence_degenerate_is_inconclusive():
    bell = hyper("1/sqrt(2)|00> + 1/sqrt(2)|11>")
    verdict = lu_equivalence(bell, bell)
    assert verdict.tag is LuTag.INCONCLUSIVE
    assert "degenerate" in verdict.detail


def test_lu_equivalence_input_validation():
    H2 = hyper("|00>")
    H3 = hyper("|000>")
    with pytest.raises(DimensionMismatchError):
        lu_equivalence(H2, H3)
    unnormalized = Hypermatrix(2.0 * H3.data)
    with pytest.raises(ValidationError):
        lu_equivalence(unnormalized, H3)
    with pytest.raises(ValidationError):
        lu_equivalence(H3, unnormalized)


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0, 5e-324])
def test_lu_equivalence_rejects_bad_tolerance(tol):
    # 5e-324 is positive, but tol / 4, the canonicalization's negligible,
    # rounds to 0; the message must name the caller's value, not that 0.
    psi = hyper("1/2|000> - 1/2|100> + 1/sqrt(2)|101>")
    phi = hyper("1/2|000> - 1/2|010> + 1/sqrt(2)|101>")
    with pytest.raises(ValidationError, match=rf"^tolerance .*, got {re.escape(repr(tol))}$"):
        lu_equivalence(psi, phi, tol=tol)


@pytest.mark.parametrize("tol", [True, np.True_, "1e-10", None, 1j, [1e-10]])
@pytest.mark.parametrize("caller", ["lu_equivalence", "canonicalize_core"])
def test_tolerances_must_be_real_numbers(caller, tol):
    # A bool would run as 1.0 or 0.25; the others would raise a bare TypeError.
    psi = hyper("1/2|000> - 1/2|100> + 1/sqrt(2)|101>")
    with pytest.raises(ValidationError, match=rf"^tolerance .*, got {re.escape(repr(tol))}$"):
        if caller == "lu_equivalence":
            lu_equivalence(psi, psi, tol=tol)
        else:
            canonicalize_core(hosvd(psi), negligible=tol)


@pytest.mark.parametrize("tol", [1, 1e-10, np.float32(1e-6), np.float64(1e-10), np.int64(1)])
def test_tolerances_take_ints_floats_and_numpy_reals(tol):
    psi = hyper("1/2|000> - 1/2|100> + 1/sqrt(2)|101>")
    assert lu_equivalence(psi, psi, tol=tol).tag is LuTag.EQUIVALENT_CORE_MATCH
    canon = canonicalize_core(hosvd(psi), negligible=tol)
    np.testing.assert_allclose(canon.reconstruct().data, psi.data, atol=1e-12)


def test_lu_equivalence_never_not_equivalent_for_permuted_self():
    # Relabeling-aware: a permuted copy can never be proven inequivalent.
    rng = np.random.default_rng(704)
    for trial in range(10):
        H = random_qubit_tensor(rng, 4)
        K = mode_permute(H, (4, 1, 3, 2))
        assert lu_equivalence(H, K).tag is not LuTag.NOT_EQUIVALENT


def test_alignment_candidates_never_exceed_cap():
    match = np.ones((2, 2), dtype=bool)  # two modes with equal spectra: two candidates
    for cap, expect in ((0, True), (1, True), (2, False)):
        candidates = _alignment_candidates(match)
        found = list(itertools.islice(candidates, cap))
        assert found == [(1, 2), (2, 1)][:cap]
        capped = next(candidates, None) is not None
        assert capped is expect


def test_alignment_candidates_stop_when_a_mode_matches_nothing():
    # Only B's last mode lacks a partner, so every injective prefix of the
    # other 15 modes is a dead end: the search must not walk those 15!.
    match = np.ones((16, 16), dtype=bool)
    match[15] = False
    assert list(_alignment_candidates(match)) == []


@pytest.mark.parametrize("n", [3, 5, 8, 12])
def test_lu_equivalence_matches_copies_of_product_states(n):
    # Qubit 1 is unentangled: its mode has rank one, and a local unitary
    # mixes both rows of the unfolding, so a lower singular value taken
    # from the rounded eigenvalue would read ~1e-8 and miss the exact 0.
    rng = np.random.default_rng(720 + n)
    for _ in range(10):
        A, K = _relabelled_lu_copy("product", n, rng)
        assert lu_equivalence(A, K).tag is LuTag.EQUIVALENT_CORE_MATCH
        for H in (A, K):
            for k, sv in enumerate(lu_fingerprint(H), start=1):
                M = np.moveaxis(H.data, k - 1, 0).reshape(2, -1)
                np.testing.assert_allclose(sv, oracles.svd_svals(M), rtol=0, atol=1e-14)


def test_lu_equivalence_unmatched_mode_is_not_equivalent():
    # a|0^n> + b|1^n> vs a|0^n> + b|1^(n-1)0>: B's last qubit is |0>, so its
    # spectrum (1, 0) matches no mode of A.
    n = 12
    A = hyper(f"0.8|{'0' * n}> + 0.6|{'1' * n}>")
    B = hyper(f"0.8|{'0' * n}> + 0.6|{'1' * (n - 1)}0>")
    verdict = lu_equivalence(A, B)
    assert verdict.tag is LuTag.NOT_EQUIVALENT
    assert verdict.certificate.mode == n


HOSVD_MODULE = importlib.import_module("qhyper.hosvd")


def _w_and_ghz_like(n):
    """W_n and sqrt((n-1)/n)|0^n> + sqrt(1/n)|1^n>: every mode spectrum is
    (sqrt((n-1)/n), sqrt(1/n)), so all n! relabelings align, yet the
    states are not LU-equivalent."""
    w = hyper(" + ".join(f"1/sqrt({n})|{'0' * k}1{'0' * (n - k - 1)}>" for k in range(n)))
    ghz = np.zeros((2,) * n, dtype=complex)
    ghz[(0,) * n] = math.sqrt((n - 1) / n)
    ghz[(1,) * n] = math.sqrt(1 / n)
    return w, Hypermatrix(ghz)


def _relabelled_lu_copy(kind, n, rng):
    psi = _test_state(kind, n, rng)
    Us = [random_su2(rng.integers(2**63)) for _ in range(n)]
    mapping = tuple(int(j) + 1 for j in rng.permutation(n))
    K = mode_permute(state_to_hypermatrix(apply_local_unitaries(psi, Us)), mapping)
    return state_to_hypermatrix(psi), K


def _oracle_cases():
    rng = np.random.default_rng(706)
    for n in range(3, 9):
        for kind in ("generic", "symmetric", "w-like"):
            yield pytest.param(*_relabelled_lu_copy(kind, n, rng), id=f"{kind}-lu-{n}")
        independent = (
            random_qubit_tensor(rng, n),
            state_to_hypermatrix(_test_state("symmetric", n, rng)),
        )
        yield pytest.param(*independent, id=f"independent-{n}")
        ghz = np.zeros((2,) * n, dtype=complex)
        ghz[(0,) * n] = ghz[(1,) * n] = 1 / math.sqrt(2)
        yield pytest.param(Hypermatrix(ghz), Hypermatrix(ghz), id=f"degenerate-{n}")
        if n <= 7:  # n! alignments, none matching; capped at 7
            yield pytest.param(*_w_and_ghz_like(n), id=f"w-vs-ghz-like-{n}")


@pytest.mark.parametrize("A, B", list(_oracle_cases()))
def test_lu_equivalence_matches_recompute_oracle(A, B):
    got = lu_equivalence(A, B)
    expect = oracles.lu_equivalence_recompute(A, B, TOL)
    assert got.tag is expect.tag
    assert got.detail == expect.detail
    assert got.certificate == expect.certificate
    assert got.rule == expect.rule


def test_lu_equivalence_tries_each_transpose_with_its_own_canonicalization():
    # A tied pair of top entries sends both cores to the walk, whose row-major
    # tie-break does not commute with relabeling: A's canonical core transposed by
    # sigma misses the canonical core of A's sigma-copy by 0.208, so a search that
    # canonicalized A once and compared transposes would answer exhausted.  The
    # search replays B's pins on each transpose instead, which picks the entries
    # that the transpose's own canonicalization picks whenever its magnitudes are B's.
    terms = {0b1111: (0.995918, 4.046036), 0b0100: (0.995918, 2.915835),
             0b1010: (0.672104, 3.244322), 0b1000: (0.840127, 0.304254)}
    amp = np.zeros(16, dtype=complex)
    for index, (mag, phase) in terms.items():
        amp[index] = mag * cmath.exp(1j * phase)
    A = Hypermatrix((amp / np.linalg.norm(amp)).reshape(2, 2, 2, 2))
    sigma = (1, 3, 2, 4)
    B = mode_permute(A, sigma)
    once = mode_permute(canonicalize_core(hosvd(A)).core, sigma)
    assert np.max(np.abs(once.data - canonicalize_core(hosvd(B)).core.data)) > 0.2
    got = lu_equivalence(A, B)
    assert (got.tag, got.rule) == (LuTag.EQUIVALENT_CORE_MATCH, "core-match")
    expect = oracles.lu_equivalence_recompute(A, B, TOL)
    assert (got.tag, got.rule, got.detail) == (expect.tag, expect.rule, expect.detail)


def test_oracle_cases_reach_every_rule():
    rules = Counter(lu_equivalence(*case.values).rule for case in _oracle_cases())
    assert rules == {"degenerate": 6, "spectra": 6, "core-match": 18, "cap": 1, "exhausted": 4}


def test_lu_verdict_stays_small():
    # Callers such as the benchmark runner keep every verdict, so its four
    # slots must stay in CPython's 64-byte size class on a 64-bit build.
    verdict = lu_equivalence(*_w_and_ghz_like(3))
    assert verdict.rule == "exhausted"
    assert sys.getsizeof(verdict) <= 64


def test_lu_equivalence_decomposes_each_input_once(monkeypatch):
    # One sweep over the stack of both inputs, A's row first.
    calls = []
    real = HOSVD_MODULE._mode_sweep
    monkeypatch.setattr(HOSVD_MODULE, "_mode_sweep", lambda data: calls.append(data) or real(data))
    A, B = _relabelled_lu_copy("symmetric", 6, np.random.default_rng(707))
    assert lu_equivalence(A, B).tag is LuTag.EQUIVALENT_CORE_MATCH
    assert len(calls) == 1
    (stack,) = calls
    assert stack.shape == (2,) + A.dims
    assert stack[0].tobytes() == A.data.tobytes() and stack[1].tobytes() == B.data.tobytes()


def test_lu_equivalence_capped_search(monkeypatch):
    # W_7 against its GHZ-like twin: 7! = 5040 alignments, none matches.
    calls = Counter()
    for name in ("_plan", "_replay"):
        real = getattr(HOSVD_MODULE, name)
        monkeypatch.setattr(HOSVD_MODULE, name, lambda *a, name=name, real=real: calls.update([name]) or real(*a))
    verdict = lu_equivalence(*_w_and_ghz_like(7))
    assert verdict.tag is LuTag.INCONCLUSIVE
    assert "capped at 720 candidates" in verdict.detail
    assert calls["_plan"] == 1  # B's, once per call
    assert calls["_replay"] == 721  # B once, then one per tried alignment


def _tied_sparse_amplitudes(n, rng):
    # 3-8 nonzero entries with random phases, the two largest equal in magnitude.
    k = int(rng.integers(3, min(8, 2**n) + 1))
    mags = np.sort(rng.uniform(0.1, 1.0, k))[::-1]
    mags[1] = mags[0]
    amp = np.zeros(2**n, dtype=complex)
    amp[rng.choice(2**n, k, replace=False)] = mags * np.exp(1j * rng.uniform(0, 2 * np.pi, k))
    return amp / np.linalg.norm(amp)


def test_lu_equivalence_on_tied_sparse_copies_matches_recompute_oracle():
    # A tied top sends both cores to the walk.  Replaying B's plan on each transpose
    # must reach the rule that canonicalizing every transpose afresh reaches.  On two
    # of these copies (5 and 7 qubits) a search that canonicalized A once and compared
    # its transposes would answer exhausted where the oracle answers core-match.
    rng = np.random.default_rng(2037)
    rules = Counter()
    for n in range(3, 9):
        for _ in range(8):
            amp = _tied_sparse_amplitudes(n, rng)
            A = Hypermatrix(amp.reshape((2,) * n))
            Us = [random_su2(rng.integers(2**63)) for _ in range(n)]
            mapping = tuple(int(j) + 1 for j in rng.permutation(n))
            B = mode_permute(state_to_hypermatrix(apply_local_unitaries(QubitState(amp), Us)), mapping)
            got = lu_equivalence(A, B)
            expect = oracles.lu_equivalence_recompute(A, B, TOL)
            assert (got.tag, got.rule) == (expect.tag, expect.rule), (n, amp)
            rules[got.rule] += 1
    assert rules["core-match"] and rules["exhausted"]  # both sides of the walk's zeroed phases
