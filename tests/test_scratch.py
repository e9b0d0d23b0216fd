"""The qubit kernels' per-thread scratch buffers (``tensor._scratch``).

On qubit hypermatrices, ``hosvd``, ``mode_factor``, ``lu_fingerprint`` and
``lu_equivalence`` keep their large working arrays in byte buffers that
belong to the calling thread and persist between calls.  These tests pin what that must not
change: no returned array is scratch, threads never share a buffer, the
order cap bounds what a thread keeps, and an LU test allocates little
beyond its scratch once the buffers have grown.
"""

import sys
import threading
import tracemalloc

import numpy as np
import pytest

from qhyper import (
    Hypermatrix,
    LuTag,
    canonicalize_core,
    hosvd,
    lu_equivalence,
    lu_fingerprint,
    mode_factor,
    multilinear_multiply,
)
from qhyper.errors import ValidationError
from qhyper.hosvd import _cores, _mode_sweep, _plan, _replay
from qhyper.tensor import _local
from test_lu_verdict_corpus import _amplitudes, _hyper, _lu_relabelled


def _lu_copy(n, seed):
    rng = np.random.default_rng(seed)
    amp = _amplitudes("generic", n, rng)
    return _hyper(amp), _lu_relabelled(amp, rng)


def test_no_result_aliases_the_scratch():
    kept = []  # (array, whether the public API hands it out read-only)
    for n in range(3, 15):
        A = _lu_copy(n, 500 + n)[0]
        res = hosvd(A)
        canon = canonicalize_core(res)
        data = A.data[None]
        factors, spectra = _mode_sweep(data)
        core = _cores(data, factors)[0]
        kept += [(res.factors, True), (res.core.data, True), (res.mode_svals, True)]
        kept += [(res.reconstruct().data, True), (canon.factors, True), (canon.core.data, True)]
        kept += [(multilinear_multiply(res.factors, res.core).data, True), (lu_fingerprint(A), True)]
        kept += [(arr, True) for k in (1, n) for arr in mode_factor(A, k)]
        kept += [(core, False), (_replay(core, _plan(core, spectra[0], 2.5e-11))[0], False)]
    frozen = [arr.tobytes() for arr, _ in kept]
    for buf in vars(_local).values():
        assert not any(np.shares_memory(arr, buf) for arr, _ in kept)
    for n in (16, 2, 9, 13):  # other sizes, so the buffers are both overwritten and grown
        A, B = _lu_copy(n, 600 + n)
        assert lu_equivalence(A, B).tag is LuTag.EQUIVALENT_CORE_MATCH
        hosvd(B)
    for (arr, read_only), before in zip(kept, frozen):
        assert arr.tobytes() == before
        assert arr.flags.writeable is not read_only


def test_each_thread_has_its_own_scratch():
    # Matmul and copyto release the GIL, so threads that shared one buffer would
    # overwrite each other's stacks and passes; four threads, more than the cores.
    inputs = [_lu_copy(n, 700 + n) for n in (6, 9, 12, 13)]
    serial = [(lu_equivalence(A, B), hosvd(A).core.data.tobytes()) for A, B in inputs]
    errors = []

    def run(A, B, expect):
        try:
            for _ in range(20):
                got = (lu_equivalence(A, B), hosvd(A).core.data.tobytes())
                if got != expect:
                    errors.append((A.order, got[0]))
        except Exception as exc:  # reported by the assertion below
            errors.append((A.order, exc))

    threads = [threading.Thread(target=run, args=(A, B, expect)) for (A, B), expect in zip(inputs, serial)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert all(verdict.tag is LuTag.EQUIVALENT_CORE_MATCH for verdict, _ in serial)


def test_lu_test_allocates_at_most_twice_one_input():
    # Once the buffers have grown, what a call still allocates is its plan, the
    # phase table and small arrays: 1.7x and 1.6x one input here, about 8x when
    # every working array was allocated afresh.
    for n in (12, 14):
        A, B = _lu_copy(n, 800 + n)
        assert lu_equivalence(A, B).tag is LuTag.EQUIVALENT_CORE_MATCH
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            lu_equivalence(A, B)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= 2 * A.data.nbytes, (n, peak / A.data.nbytes)


def test_what_a_thread_keeps_is_bounded_by_the_order_cap():
    # Three buffers of at most a stack of two 16-qubit hypermatrices, 2 MiB, however
    # large the other inputs: mode_factor of a length-2 mode of a (2, 48, 48, 48)
    # hypermatrix (3.4 MiB), general products and failed LU tests keep nothing.
    kept = {}

    def run():
        big = Hypermatrix(np.full((2, 48, 48, 48), 1 / np.sqrt(2 * 48**3)))
        mode_factor(big, 1)
        multilinear_multiply([np.eye(2), np.ones((64, 48)), np.eye(48), np.eye(48)], big)
        with pytest.raises(ValidationError, match="needs length 2"):
            lu_equivalence(big, big)
        assert vars(_local) == {}
        A, B = _lu_copy(16, 916)
        assert lu_equivalence(A, B).tag is LuTag.EQUIVALENT_CORE_MATCH
        hosvd(A).reconstruct()
        mode_factor(big, 1)
        kept.update((slot, buf.nbytes) for slot, buf in vars(_local).items())

    thread = threading.Thread(target=run)
    thread.start()
    thread.join(timeout=120)
    assert kept == {"stack": 2 << 20, "x": 2 << 20, "y": 2 << 20}
