"""The CLI's streamed JSON writer against the JSON builders in ``oracles``.

For each shape the CLI writes (a state from ``parse`` and ``permute``,
the core and factor list of the ``hosvd`` report), the bytes must equal
``json.dumps(<builder>(x), indent=2) + "\\n"``.  Needs the optional
``hypothesis`` package; the module is skipped without it.
"""

import contextlib
import io
import json

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from oracles import matrix_to_json, state_to_json, tensor_to_json  # noqa: E402
from qhyper import (  # noqa: E402
    Hypermatrix,
    QubitState,
    hosvd,
    hypermatrix_to_state,
    mode_permute,
    random_state,
    state_to_hypermatrix,
)
from qhyper.cli import main  # noqa: E402
from qhyper.tensor import _write_json  # noqa: E402

# Signed zeros, the smallest subnormal and normal, the overflow limit,
# where repr switches to exponent form, and integral floats.
EDGES = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
         -1.7976931348623157e308, 1e16, 1e-05, 1e15, 0.0001, 3.0, -2.0, 1.0]
# Parts small enough that one unit amplitude keeps the state normalized.
TINY = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-16, -1e-20]

parts = st.sampled_from(EDGES) | st.floats(allow_nan=False, allow_infinity=False)


def complex_arrays(shape, part=parts):
    size = int(np.prod(shape))
    pairs = st.lists(st.tuples(part, part), min_size=size, max_size=size)
    return pairs.map(lambda p: np.array([complex(*z) for z in p]).reshape(shape))


def cli_json(argv, tmp):
    """Bytes that ``argv`` writes to stdout and to ``--out``, which must agree."""
    out = tmp / "cli_out.json"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(argv) == 0
        assert main(argv + ["--out", str(out)]) == 0
    assert out.read_text() == stdout.getvalue()
    return stdout.getvalue()


def write_state(tmp, state):
    path = tmp / "cli_in.json"
    path.write_text(json.dumps(state_to_json(state)))
    return str(path)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(amps=st.integers(1, 4).flatmap(lambda n: complex_arrays((2**n,))))
def test_parse_writes_the_state_json_bytes(tmp_path_factory, amps):
    tmp = tmp_path_factory.getbasetemp()
    state = QubitState(amps, norm="skip")
    got = cli_json(["parse", "--in", write_state(tmp, state), "--no-normalize"], tmp)
    assert got == json.dumps(state_to_json(state), indent=2) + "\n"


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 4),
    unit=st.sampled_from([1.0, -1.0, 1j]),
    rest=st.lists(st.tuples(st.sampled_from(TINY), st.sampled_from(TINY)), min_size=15, max_size=15),
    data=st.data(),
)
def test_permute_writes_the_state_json_bytes(tmp_path_factory, n, unit, rest, data):
    tmp = tmp_path_factory.getbasetemp()
    state = QubitState([unit] + [complex(*z) for z in rest[: 2**n - 1]])
    perm = data.draw(st.permutations(range(1, n + 1)))
    want = hypermatrix_to_state(mode_permute(state_to_hypermatrix(state), perm))
    argv = ["permute", "--state", write_state(tmp, state), "--perm", ",".join(map(str, perm))]
    assert cli_json(argv, tmp) == json.dumps(state_to_json(want), indent=2) + "\n"


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 5), seed=st.integers(0, 2**32))
def test_hosvd_writes_the_report_json_bytes(tmp_path_factory, n, seed):
    tmp = tmp_path_factory.getbasetemp()
    state = random_state(n, seed)
    res = hosvd(state_to_hypermatrix(state))
    report = {
        "mode_svals": [sv.tolist() for sv in res.mode_svals],
        "factors": [matrix_to_json(V) for V in res.factors],
        "core": tensor_to_json(res.core),
    }
    argv = ["hosvd", "--state", write_state(tmp, state), "--output", "json"]
    assert cli_json(argv, tmp) == json.dumps(report, indent=2) + "\n"


shapes = st.sampled_from([(1,), (2,), (1, 1), (1, 2), (2, 1), (2, 2), (2, 2, 2), (3, 1, 2)])


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    core=shapes.flatmap(complex_arrays),
    factors=st.lists(shapes.filter(lambda s: len(s) == 2).flatmap(complex_arrays), max_size=3),
)
def test_core_and_factor_payloads_match_the_builders(core, factors):
    # The hosvd payload layout, with edge-case entries and size-1 and size-2 arrays.
    fh = io.StringIO()
    _write_json({
        "factors": [{"rows": V.shape[0], "cols": V.shape[1], "entries": V} for V in factors],
        "core": {"dims": list(core.shape), "entries": core},
    }, fh)
    want = {
        "factors": [matrix_to_json(V) for V in factors],
        "core": tensor_to_json(Hypermatrix(core)),
    }
    assert fh.getvalue() == json.dumps(want, indent=2)
