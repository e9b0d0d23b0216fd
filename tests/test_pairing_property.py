"""Property test of the antidiagonal pairing kernel at small sizes.

Up to 14 qubits ``hdet_fast`` and both ``n_tangle`` routes walk a single
row of 4^n / 2 entries; at 2-10 qubits they are checked against the
enumeration oracles on dense, sparse and real states.  Needs the optional
``hypothesis`` package; the module is skipped without it.
"""

import numpy as np
import pytest

import oracles

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from qhyper import QubitState, hdet_fast, n_tangle  # noqa: E402

TOL = 1e-12  # absolute: |pairing| <= sum |a_j a_~j| <= 1 on a unit vector


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    num_qubits=st.sampled_from([2, 4, 6, 8, 10]),
    density=st.sampled_from([1.0, 0.5, 0.05]),
    real=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_pairing_kernels_match_enumeration(num_qubits, density, real, seed):
    rng = np.random.default_rng(seed)
    size = 2**num_qubits
    amp = rng.standard_normal(size) + (0.0 if real else 1j * rng.standard_normal(size))
    amp[rng.random(size) >= density] = 0.0
    amp[rng.integers(size)] = 1.0  # never the zero vector
    state = QubitState(amp, norm="renormalize")
    a = state.amplitudes
    tangle = oracles.tangle_enum(a)
    assert abs(hdet_fast(state) - oracles.hdet_enum(a.reshape((2,) * num_qubits))) <= TOL
    assert abs(n_tangle(state, via="spinflip") - tangle) <= TOL
    assert abs(n_tangle(state, via="hdet") - tangle) <= TOL
