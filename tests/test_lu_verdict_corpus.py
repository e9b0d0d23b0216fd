"""Pinned ``lu_equivalence`` verdicts on a seeded corpus at 3-12 qubits.

Each pair's tag is compared with the one stored in
``lu_verdict_corpus.json``.  The corpus holds, at every size:

* generic, permutation-symmetric, W-like, sparse and near-degenerate
  (one mode with relative spectral gap 1e-5) states, each against an
  LU-and-relabelled copy and against its complex conjugate;
* a generic state against an independent one;

and at 3 qubits the even-parity family 0.7|000> + 0.5|011> + 0.4|101>
+ sqrt(0.1)|110> against local-phase and LU copies.  The stored tags
pin the verdicts as they are, right or not, so a change that moves one
shows here.  ``sparse-lu-3`` (one qubit unentangled) is tagged
EquivalentCoreMatch since a rank-one mode's lower singular value reads 0
to rounding rather than ~1e-8.  After a deliberate change of verdicts,
rewrite the file with

    PYTHONPATH=src python tests/test_lu_verdict_corpus.py
"""

import json
import math
import pathlib
from collections import Counter

import numpy as np
import pytest

from qhyper import (
    Hypermatrix,
    QubitState,
    apply_local_unitaries,
    lu_equivalence,
    mode_permute,
    random_su2,
    state_to_hypermatrix,
)

PINNED = pathlib.Path(__file__).with_name("lu_verdict_corpus.json")
KINDS = ("generic", "symmetric", "w-like", "sparse", "near-degenerate")
NEAR_GAP = 1e-5


def _amplitudes(kind, n, rng, gap=NEAR_GAP):
    z = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    weight = np.bitwise_count(np.arange(2**n))
    if kind == "symmetric":
        z = z[weight]  # depends on Hamming weight only
    elif kind == "w-like":
        z[weight != 1] = 0.0
    elif kind == "sparse":
        z[rng.random(2**n) < 0.7] = 0.0
        z[0] += 1.0
    elif kind == "product":
        z[2 ** (n - 1) :] = 0.0  # qubit 1 is |0>, unentangled
    elif kind == "near-degenerate":
        # Orthogonal qubit-1 halves with norms 1 and 1 - gap: the mode-1
        # singular values then have relative gap ``gap``.
        if n < 2:
            raise ValueError("near-degenerate states need n >= 2: a one-entry half has no orthogonal partner")
        a, b = z[: 2 ** (n - 1)], z[2 ** (n - 1) :]
        a /= np.linalg.norm(a)
        b -= np.vdot(a, b) * a
        b *= (1 - gap) / np.linalg.norm(b)
    elif kind == "ghz":
        z = (np.arange(2**n) % (2**n - 1) == 0) + 0j  # |0^n> + |1^n>
    elif kind == "cluster":
        # Linear cluster state: CZ on each neighbouring pair of |+>^n.
        bits = np.arange(2**n)
        z = (-1.0) ** np.bitwise_count(bits & bits >> 1) + 0j
    elif kind == "bell-bell":
        # (|00> + |11>)(|00> + |11>) on qubits 1-4, the rest |0>.
        z = np.zeros(2**n, dtype=complex)
        z[np.array([0b0000, 0b0011, 0b1100, 0b1111]) << (n - 4)] = 1.0
    elif kind == "dicke":
        z = (weight == rng.integers(1, n)) + 0j  # D(n, k) for a drawn 1 <= k < n
    return z / np.linalg.norm(z)


def _lu_relabelled(amp, rng):
    n = int(amp.size).bit_length() - 1
    Us = [random_su2(rng.integers(2**63)) for _ in range(n)]
    mapping = tuple(int(j) + 1 for j in rng.permutation(n))
    return mode_permute(state_to_hypermatrix(apply_local_unitaries(QubitState(amp), Us)), mapping)


def _hyper(amp):
    n = int(amp.size).bit_length() - 1
    return Hypermatrix(amp.reshape((2,) * n))


def corpus():
    """Yield (name, A, B) for every pinned pair, in a fixed order."""
    rng = np.random.default_rng(1616)
    for n in range(3, 13):
        for kind in KINDS:
            amp = _amplitudes(kind, n, rng)
            yield f"{kind}-lu-{n}", _hyper(amp), _lu_relabelled(amp, rng)
            yield f"{kind}-conj-{n}", _hyper(amp), _hyper(amp.conj())
        a, b = _amplitudes("generic", n, rng), _amplitudes("generic", n, rng)
        yield f"independent-{n}", _hyper(a), _hyper(b)
    family = np.zeros(8, dtype=complex)
    family[[0b000, 0b011, 0b101, 0b110]] = 0.7, 0.5, 0.4, math.sqrt(0.1)
    for i in range(4):
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=(3, 2)))
        copy = family.reshape(2, 2, 2) * np.einsum("i,j,k->ijk", *phases)
        yield f"even-parity-phase-{i}", _hyper(family), Hypermatrix(copy)
        yield f"even-parity-lu-{i}", _hyper(family), _lu_relabelled(family, rng)


def _tags():
    return {name: lu_equivalence(A, B).tag.value for name, A, B in corpus()}


def test_corpus_verdicts_are_pinned():
    expect = json.loads(PINNED.read_text())
    got = _tags()
    assert list(got) == list(expect)
    assert {name: tag for name, tag in got.items() if tag != expect[name]} == {}


def test_near_degenerate_lu_copies_keep_matching():
    # Just above DEGENERACY_GAP the factor of the near-degenerate mode is
    # fixed only to ~eps / 4e-6, which mixes its two slices in every entry;
    # a neighbour trusted on entry roundoff alone then turns some of these
    # copies Inconclusive.
    rng = np.random.default_rng(1617)
    tags = Counter()
    for n in range(4, 8):
        for _ in range(40):
            amp = _amplitudes("near-degenerate", n, rng, gap=2e-6)
            tags[lu_equivalence(_hyper(amp), _lu_relabelled(amp, rng)).tag.value] += 1
    assert tags == {"EquivalentCoreMatch": 160}



def test_near_degenerate_needs_two_qubits():
    with pytest.raises(ValueError, match="n >= 2"):
        _amplitudes("near-degenerate", 1, np.random.default_rng(0))


if __name__ == "__main__":
    PINNED.write_text(json.dumps(_tags(), indent=1) + "\n")
