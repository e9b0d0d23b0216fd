"""Property test for lu_equivalence on LU-transformed, relabelled copies.

Needs the optional ``hypothesis`` package (``pip install .[test]``); the
module is skipped without it so the other test modules still run.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from qhyper import LuTag, lu_equivalence, lu_fingerprint  # noqa: E402
from qhyper.hosvd import DEGENERACY_GAP  # noqa: E402
from test_hosvd import _relabelled_lu_copy, min_relative_gap  # noqa: E402


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    kind=st.sampled_from(["symmetric", "w-like", "generic"]),
    n=st.integers(4, 8),
    seed=st.integers(0, 2**32 - 1),
)
def test_lu_relabeled_copies_property(kind, n, seed):
    # Cores equal in exact arithmetic must canonicalize alike whatever
    # the roundoff, so symmetric states (every relabeling aligns) match.
    H, K = _relabelled_lu_copy(kind, n, np.random.default_rng(seed))
    tag = lu_equivalence(H, K).tag
    assert tag is not LuTag.NOT_EQUIVALENT
    if min_relative_gap(lu_fingerprint(H)) >= DEGENERACY_GAP:
        assert tag is LuTag.EQUIVALENT_CORE_MATCH
