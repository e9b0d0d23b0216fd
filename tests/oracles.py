"""Independent reference implementations used as oracles by the tests.

Everything here is written directly from the defining formulas with
naive loops or well-tested numpy routines (svd, eigvalsh, kron) and
shares no code with the package: permutation parity is counted by
inversions instead of cycles, unfoldings use the explicit column-index
formula, the spin flip builds the actual complex Kronecker power.
"""

import cmath
import itertools
import math

import numpy as np


def naive_multilinear(mats, data):
    """(A_1, ..., A_N) * H by the entry formula, all loops explicit."""
    out_dims = tuple(A.shape[0] for A in mats)
    out = np.zeros(out_dims, dtype=complex)
    for i in itertools.product(*[range(d) for d in out_dims]):
        acc = 0.0 + 0.0j
        for j in itertools.product(*[range(d) for d in data.shape]):
            term = data[j]
            for k, A in enumerate(mats):
                term = term * A[i[k], j[k]]
            acc += term
        out[i] = acc
    return out


def unfold_by_formula(data, k):
    """k-mode unfolding via j = sum_{l != k} i_l * prod_{m < l, m != k} n_m."""
    dims = data.shape
    rows = dims[k - 1]
    cols = 1
    for l, d in enumerate(dims):
        if l != k - 1:
            cols *= d
    out = np.zeros((rows, cols), dtype=complex)
    for idx in itertools.product(*[range(d) for d in dims]):
        col = 0
        for l in range(len(dims)):
            if l == k - 1:
                continue
            weight = 1
            for m in range(l):
                if m != k - 1:
                    weight *= dims[m]
            col += idx[l] * weight
        out[idx[k - 1], col] = data[idx]
    return out


def svd_svals(M):
    """Singular values via LAPACK, descending."""
    return np.linalg.svd(np.asarray(M, dtype=complex), compute_uv=False)


def gram_svals(M):
    """Singular values via Gram-matrix eigenvalues, descending."""
    M = np.asarray(M, dtype=complex)
    lams = np.linalg.eigvalsh(M @ M.conj().T)
    return np.sqrt(np.clip(lams[::-1], 0.0, None))


def inversion_parity(perm):
    """Permutation sign by counting inversions."""
    inv = 0
    for x in range(len(perm)):
        for y in range(x + 1, len(perm)):
            if perm[x] > perm[y]:
                inv += 1
    return -1 if inv % 2 else 1


def hdet_enum(data):
    """Combinatorial hyperdeterminant straight from the definition."""
    data = np.asarray(data, dtype=complex)
    m = data.shape[0]
    order = data.ndim
    perms = list(itertools.permutations(range(m)))
    total = 0.0 + 0.0j
    for tup in itertools.product(perms, repeat=order):
        sign = 1
        for p in tup:
            sign *= inversion_parity(p)
        prod = 1.0 + 0.0j
        for j in range(m):
            prod *= data[tuple(p[j] for p in tup)]
        total += sign * prod
    return total / math.factorial(m)


def chi_py(index):
    """Parity sign of an integer's popcount, pure Python."""
    return 1 if bin(index).count("1") % 2 == 0 else -1


def pauli_y_power(num_qubits):
    """Complex Kronecker power of [[0, -i], [i, 0]]."""
    sy = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    op = np.array([[1.0 + 0.0j]])
    for _ in range(num_qubits):
        op = np.kron(op, sy)
    return op


def spin_flip_dense(amplitudes):
    """Pauli-y Kronecker power applied to the conjugated amplitudes."""
    amplitudes = np.asarray(amplitudes, dtype=complex)
    num_qubits = int(math.log2(amplitudes.size))
    return pauli_y_power(num_qubits) @ np.conj(amplitudes)


def tangle_enum(amplitudes):
    """Squared antidiagonal pairing |sum_j chi(j) a_j a_{~j}|^2, looped."""
    amplitudes = np.asarray(amplitudes, dtype=complex)
    size = amplitudes.size
    acc = 0.0 + 0.0j
    for j in range(size):
        acc += chi_py(j) * amplitudes[j] * amplitudes[size - 1 - j]
    return float(abs(acc) ** 2)


def random_sl2(rng):
    """Random 2x2 complex matrix scaled to determinant one.

    Redraws while the determinant is small so the scaling stays
    well-conditioned; deterministic for a given generator state.
    """
    while True:
        A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        det = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
        if abs(det) > 0.3:
            return A / np.sqrt(det)


def canonical_core_walk(core, negligible):
    """Phase-canonical qubit HOSVD core by a per-entry walk.

    The largest entry and every entry above ``negligible`` are sorted by
    descending magnitude into tie groups (a new group wherever the
    magnitude drops by more than ``negligible``), smaller row-major index
    first within a group.  The first entry is made real positive.  Each
    later entry whose index differs from the first in at most one
    unpinned mode pins that mode so the entry becomes real positive;
    when no pending entry qualifies, every unpinned mode of the first
    pending entry but the smallest is pinned to phase zero.
    """
    n = core.ndim
    flat = core.reshape(-1)
    mags = np.abs(flat)
    biggest = int(np.argmax(mags))
    kept = sorted(
        (i for i in range(flat.size) if mags[i] > negligible or i == biggest),
        key=lambda i: -mags[i],
    )
    group, prev, keyed = 0, mags[biggest], []
    for i in kept:
        if prev - mags[i] > negligible:
            group += 1
        prev = mags[i]
        keyed.append((group, i))
    order = [i for _, i in sorted(keyed)]
    anchor = order[0]
    g = -cmath.phase(flat[anchor])

    def differ(i):
        return [k for k in range(n) if (i ^ anchor) >> (n - 1 - k) & 1]

    rho = [None] * n
    pending = order[1:]
    while pending:
        for i in pending:
            free = [k for k in differ(i) if rho[k] is None]
            if len(free) <= 1:
                break
        else:
            free = [k for k in differ(pending[0]) if rho[k] is None]
            for k in free[1:]:
                rho[k] = 0.0
            continue
        pending.remove(i)
        if free:
            theta = cmath.phase(flat[i]) + g
            rho[free[0]] = -(theta + sum(rho[m] for m in differ(i) if m != free[0]))
    rho = [0.0 if r is None else r for r in rho]
    out = np.empty_like(flat)
    for i in range(flat.size):
        out[i] = flat[i] * cmath.exp(1j * (g + sum(rho[k] for k in differ(i))))
    return out.reshape(core.shape)
