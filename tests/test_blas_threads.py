"""The same bits whatever the BLAS thread count.

One script runs in two child processes, one with OpenBLAS and OpenMP
pinned to one thread and one with two; only the children's environment
changes.  Each child prints a SHA-256 of every result below, and the two
sets must agree digest for digest.  The HOSVD cores and ``reconstruct()``
also cover ``multilinear_multiply``, whose matrix products merge up to three
qubit modes into one Kronecker block and so have an inner length of up to 8.
"""

import json
import os
import pathlib
import subprocess
import sys

import qhyper

SCRIPT = r"""
import hashlib, json
import numpy as np
from qhyper import (apply_local_unitaries, frobenius_norm, hdet_fast, hosvd, lu_equivalence,
                    mode_permute, n_tangle, random_state, random_su2, state_to_hypermatrix, QubitState)

out = {}

def put(name, *values):
    h = hashlib.sha256()
    for v in values:
        h.update(np.asarray(v).tobytes() if isinstance(v, np.ndarray) else repr(v).encode())
    out[name] = h.hexdigest()

for n in (14, 16):
    s = random_state(n, 1000 + n)
    put(f"random_state/{n}", s.amplitudes)
    H = state_to_hypermatrix(s)
    put(f"frobenius_norm/{n}", frobenius_norm(H))
    res = hosvd(H)
    put(f"hosvd/{n}", *res.factors, res.core.data, *res.mode_svals)
    put(f"reconstruct/{n}", res.reconstruct().data)
    twin = apply_local_unitaries(s, [random_su2(2000 + k) for k in range(n)])
    B = mode_permute(state_to_hypermatrix(twin), list(range(n, 0, -1)))
    for name, other in (("lu_copy", B), ("conjugate", state_to_hypermatrix(QubitState(np.conj(s.amplitudes))))):
        v = lu_equivalence(H, other)
        put(f"lu_equivalence/{name}/{n}", v.tag.value, v.certificate, v.detail)
s = random_state(20, 1020)
put("n_tangle/20", n_tangle(s))
put("n_tangle_hdet/20", n_tangle(s, via="hdet"))
put("hdet_fast/20", hdet_fast(s))
print(json.dumps(out))
"""


def _digests(threads):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads))
    src = str(pathlib.Path(qhyper.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=300
    )
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout)


def test_results_do_not_depend_on_the_blas_thread_count():
    one, two = _digests(1), _digests(2)
    assert len(one) == 15
    assert {k for k in one if one[k] != two[k]} == set()
