"""Closed-form qubit HOSVD, fingerprints, canonicalization, equivalence."""

import importlib
import itertools
import math

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
from qhyper.hosvd import DEGENERACY_GAP, _alignment_candidates

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
    z = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    if kind == "symmetric":
        z = z[np.bitwise_count(np.arange(2**n))]  # depends on Hamming weight only
    elif kind == "w-like":
        z[np.bitwise_count(np.arange(2**n)) != 1] = 0.0
    elif kind == "sparse":
        z[rng.random(2**n) < 0.7] = 0.0
        z[0] += 1.0
    return QubitState(z / np.linalg.norm(z))


@pytest.mark.parametrize("negligible", [2.5e-11, 1e-3, 0.05, 1.0])
@pytest.mark.parametrize("kind", ["generic", "symmetric", "w-like", "sparse"])
def test_canonicalize_matches_per_entry_walk(kind, negligible):
    rng = np.random.default_rng(605)
    for n in range(1, 9):
        psi = _test_state(kind, n, rng)
        psi = apply_local_unitaries(psi, [random_su2(rng.integers(2**63)) for _ in range(n)])
        res = hosvd(state_to_hypermatrix(psi))
        expect = oracles.canonical_core_walk(res.core.data, negligible)
        got = canonicalize_core(res, negligible=negligible).core.data
        np.testing.assert_allclose(got, expect, rtol=0, atol=1e-13)


# ---------------------------------------------------------------------------
# lu_equivalence


def hyper(text):
    return state_to_hypermatrix(parse_ket(text))


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


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
def test_lu_equivalence_rejects_bad_tolerance(tol):
    psi = hyper("1/2|000> - 1/2|100> + 1/sqrt(2)|101>")
    phi = hyper("1/2|000> - 1/2|010> + 1/sqrt(2)|101>")
    with pytest.raises(ValidationError, match="tolerance"):
        lu_equivalence(psi, phi, tol=tol)


def test_lu_equivalence_never_not_equivalent_for_permuted_self():
    # Relabeling-aware: a permuted copy can never be proven inequivalent.
    rng = np.random.default_rng(704)
    for trial in range(10):
        H = random_qubit_tensor(rng, 4)
        K = mode_permute(H, (4, 1, 3, 2))
        assert lu_equivalence(H, K).tag is not LuTag.NOT_EQUIVALENT


def test_alignment_candidates_never_exceed_cap():
    sv = np.array([0.8, 0.6])  # two modes with equal spectra: two candidates
    for cap, expect in ((0, True), (1, True), (2, False)):
        candidates = _alignment_candidates((sv, sv), (sv, sv), TOL)
        found = list(itertools.islice(candidates, cap))
        assert found == [(1, 2), (2, 1)][:cap]
        capped = next(candidates, None) is not None
        assert capped is expect


def test_alignment_candidates_stop_when_a_mode_matches_nothing():
    # Only B's last mode lacks a partner, so every injective prefix of the
    # other 15 modes is a dead end: the search must not walk those 15!.
    sv = np.array([0.8, 0.6])
    fa = (sv,) * 16
    fb = (sv,) * 15 + (np.array([1.0, 0.0]),)
    assert list(_alignment_candidates(fa, fb, TOL)) == []


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


def test_lu_equivalence_decomposes_each_input_once(monkeypatch):
    calls = []
    real = HOSVD_MODULE.mode_factor
    monkeypatch.setattr(HOSVD_MODULE, "mode_factor", lambda H, k: calls.append(k) or real(H, k))
    A, B = _relabelled_lu_copy("symmetric", 6, np.random.default_rng(707))
    assert lu_equivalence(A, B).tag is LuTag.EQUIVALENT_CORE_MATCH
    assert calls == list(range(1, 7)) * 2


def test_lu_equivalence_capped_search(monkeypatch):
    # W_7 against its GHZ-like twin: 7! = 5040 alignments, none matches.
    calls = []
    real = HOSVD_MODULE.canonicalize_core
    monkeypatch.setattr(
        HOSVD_MODULE, "canonicalize_core", lambda *a, **kw: calls.append(1) or real(*a, **kw)
    )
    verdict = lu_equivalence(*_w_and_ghz_like(7))
    assert verdict.tag is LuTag.INCONCLUSIVE
    assert "capped at 720 candidates" in verdict.detail
    assert len(calls) == 721  # B once, then one per tried alignment
