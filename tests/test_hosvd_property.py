"""Property tests for canonicalize_core, for lu_equivalence on
LU-transformed, relabelled copies, and for the stacked HOSVD kernels.

Needs the optional ``hypothesis`` package (``pip install .[test]``); the
module is skipped without it so the other test modules still run.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import oracles  # noqa: E402
from qhyper import (  # noqa: E402
    LuTag,
    apply_local_unitaries,
    canonicalize_core,
    hosvd,
    lu_equivalence,
    lu_fingerprint,
    random_su2,
    state_to_hypermatrix,
)
from qhyper.hosvd import DEFAULT_TOL, DEGENERACY_GAP, _cores, _mode_sweep  # noqa: E402
from test_hosvd import _relabelled_lu_copy, _test_state, min_relative_gap  # noqa: E402


@settings(max_examples=108, deadline=None, derandomize=True, database=None)
@given(
    kind=st.sampled_from(
        ["symmetric", "w-like", "generic", "product", "near-degenerate"]
        + ["ghz", "cluster", "bell-bell", "dicke"]
    ),
    n=st.integers(4, 8),
    seed=st.integers(0, 2**32 - 1),
)
def test_lu_relabeled_copies_property(kind, n, seed):
    # Cores equal in exact arithmetic must canonicalize alike whatever
    # the roundoff, so symmetric states (every relabeling aligns) match.
    # A product state's unentangled qubit has spectrum (1, 0) in both
    # copies to rounding, so it aligns; a near-degenerate mode (relative
    # gap 1e-5, above DEGENERACY_GAP) still fixes its factor well enough.
    # GHZ, cluster and Bell pairs have a maximally mixed qubit, so they end
    # Inconclusive; a Dicke state D(n, k) has a degenerate spectrum only at
    # 2k = n.
    H, K = _relabelled_lu_copy(kind, n, np.random.default_rng(seed))
    tag = lu_equivalence(H, K).tag
    assert tag is not LuTag.NOT_EQUIVALENT
    if min_relative_gap(lu_fingerprint(H)) >= DEGENERACY_GAP:
        assert tag is LuTag.EQUIVALENT_CORE_MATCH


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    kind=st.sampled_from(["generic", "symmetric", "w-like", "sparse"]),
    n=st.integers(1, 9),
    seed=st.integers(0, 2**32 - 1),
)
def test_canonicalize_core_property(kind, n, seed):
    rng = np.random.default_rng(seed)
    psi = _test_state(kind, n, rng)
    H = state_to_hypermatrix(
        apply_local_unitaries(psi, [random_su2(rng.integers(2**63)) for _ in range(n)])
    )
    res = hosvd(H)
    once = canonicalize_core(res)
    # The anchor and every neighbour-pinned entry come out real positive.
    core, negligible = res.core.data, DEFAULT_TOL / 4
    pinned = [oracles.canonical_order(core, negligible)[0]]
    pinned += oracles.neighbour_pins(core, negligible, res.mode_svals).values()
    flat = once.core.data.reshape(-1)
    for i in pinned:
        assert abs(flat[i].imag) <= 1e-12 and flat[i].real > 0
    assert np.max(np.abs(once.reconstruct().data - H.data)) <= DEFAULT_TOL
    twice = canonicalize_core(once)
    assert np.max(np.abs(twice.core.data - once.core.data)) <= 1e-12


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    kinds=st.tuples(*[st.sampled_from(["generic", "symmetric", "w-like", "sparse", "product"])] * 2),
    n=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_sweep_and_cores_match_stacks_of_one(kinds, n, seed):
    # lu_equivalence decomposes both inputs as one stack; each row must keep the bits
    # that hosvd, which runs the same kernels on a stack of one, gives that input alone.
    rng = np.random.default_rng(seed)
    Us = [[random_su2(rng.integers(2**63)) for _ in range(n)] for _ in kinds]
    states = [apply_local_unitaries(_test_state(kind, n, rng), U) for kind, U in zip(kinds, Us)]
    data = np.stack([state_to_hypermatrix(psi).data for psi in states])
    factors, spectra = _mode_sweep(data)
    cores = _cores(data, factors)
    assert factors.shape == (2, n, 2, 2) and spectra.shape == (2, n, 2) and cores.shape == data.shape
    for i in range(2):
        one = data[i : i + 1]
        f1, s1 = _mode_sweep(one)
        assert factors[i].tobytes() == f1[0].tobytes() and spectra[i].tobytes() == s1[0].tobytes()
        assert cores[i].tobytes() == _cores(one, f1)[0].tobytes()
