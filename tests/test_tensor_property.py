"""Property test for the Kronecker merge rule of multilinear_multiply.

Needs the optional ``hypothesis`` package (``pip install .[test]``); the
module is skipped without it so the other test modules still run.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import oracles  # noqa: E402
from qhyper import multilinear_multiply  # noqa: E402
from test_tensor import TOL, random_hyper  # noqa: E402


def _merge_runs(shapes):
    """The runs of consecutive modes merged into one Kronecker block, with the
    bound that ended each run (``None`` for the last): the rule that
    multilinear_multiply states, rows and columns each at most 8."""
    runs, rows, cols = [[0]], shapes[0][0], shapes[0][1]
    for k, (r, c) in enumerate(shapes[1:], 1):
        if rows * r <= 8 and cols * c <= 8:
            runs[-1].append(k)
            rows, cols = rows * r, cols * c
        else:
            stop = "rows" if cols * c <= 8 else "cols" if rows * r <= 8 else "both"
            runs[-1] = (runs[-1], stop)
            runs.append([k])
            rows, cols = r, c
    runs[-1] = (runs[-1], None)
    return runs


@st.composite
def merge_cases(draw):
    # "rows" and "cols" make modes 1 and 2 overflow one bound only; "lone"
    # gives modes 1-3 three or four rows, so mode 2 makes a block alone.
    # The free modes after them keep the looped oracle small: the input and
    # output entry counts multiply to at most 2^12.
    kind = draw(st.sampled_from(["free", "rows", "cols", "lone"]))
    few, many = st.integers(1, 2), st.integers(3, 4)
    shapes = {
        "free": [],
        "rows": [(draw(many), draw(few)) for _ in range(2)],
        "cols": [(draw(few), draw(many)) for _ in range(2)],
        "lone": [(draw(many), draw(few)) for _ in range(3)],
    }[kind]
    budget = 2**12 // math.prod(r * c for r, c in shapes)
    for _ in range(draw(st.integers(1 if kind == "free" else 0, 5 - len(shapes)))):
        c = draw(st.integers(1, min(4, budget)))
        r = draw(st.integers(1, min(4, budget // c)))
        shapes.append((r, c))
        budget //= r * c
    return kind, shapes, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(case=merge_cases())
def test_multilinear_merge_rule_matches_naive_oracle(case):
    kind, shapes, seed = case
    runs = _merge_runs(shapes)
    stops = {stop for _, stop in runs}
    lone = any(len(modes) == 1 for modes, _ in runs)
    assert {"rows": "rows" in stops, "cols": "cols" in stops, "lone": lone}.get(kind, True)
    rng = np.random.default_rng(seed)
    H = random_hyper(rng, [c for _, c in shapes])
    mats = [rng.standard_normal(s) + 1j * rng.standard_normal(s) for s in shapes]
    got = multilinear_multiply(mats, H)
    assert got.dims == tuple(r for r, _ in shapes)
    np.testing.assert_allclose(got.data, oracles.naive_multilinear(mats, H.data), atol=TOL)
