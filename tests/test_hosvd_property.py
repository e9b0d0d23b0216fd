"""Property test for lu_equivalence on LU-transformed, relabelled copies.

Needs the optional ``hypothesis`` package (``pip install .[test]``); the
module is skipped without it so the other test modules still run.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from qhyper import (  # noqa: E402
    LuTag,
    apply_local_unitaries,
    lu_equivalence,
    lu_fingerprint,
    mode_permute,
    random_su2,
    state_to_hypermatrix,
)
from qhyper.hosvd import DEGENERACY_GAP  # noqa: E402
from test_hosvd import _test_state, min_relative_gap  # noqa: E402


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    kind=st.sampled_from(["symmetric", "w-like", "generic"]),
    n=st.integers(4, 8),
    seed=st.integers(0, 2**32 - 1),
)
def test_lu_relabeled_copies_property(kind, n, seed):
    # Cores equal in exact arithmetic must canonicalize alike whatever
    # the roundoff, so symmetric states (every relabeling aligns) match.
    rng = np.random.default_rng(seed)
    psi = _test_state(kind, n, rng)
    Us = [random_su2(rng.integers(2**63)) for _ in range(n)]
    mapping = tuple(int(j) + 1 for j in rng.permutation(n))
    H = state_to_hypermatrix(psi)
    K = mode_permute(state_to_hypermatrix(apply_local_unitaries(psi, Us)), mapping)
    tag = lu_equivalence(H, K).tag
    assert tag is not LuTag.NOT_EQUIVALENT
    if min_relative_gap(lu_fingerprint(H)) >= DEGENERACY_GAP:
        assert tag is LuTag.EQUIVALENT_CORE_MATCH
