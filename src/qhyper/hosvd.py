"""Higher-order SVD for qubit hypermatrices and local-unitary tests.

For an order-N hypermatrix with every mode length 2, the mode-k factor
is the unitary of eigenvectors of the 2x2 Gram matrix G = M M^H of the
k-mode unfolding M, ordered by descending eigenvalue; the mode-k
singular values are the square roots of those eigenvalues.  The core is
obtained by applying the conjugate-transposed factors to the input, so

    H = (V_1, ..., V_N) * core

holds by construction.  The core is all-orthogonal (slices along any
mode at distinct indices have zero Frobenius inner product) and the
norms of the mode-k slices are the mode-k singular values.

The per-mode singular values are invariant under local unitaries and
are therefore used as a cheap fingerprint: fingerprints that cannot be
aligned by any relabeling of the qubit slots prove two states
inequivalent.  An alignment plus matching cores after a deterministic
phase canonicalization certifies equivalence (a permuted tensor with
the same core is reachable by local unitaries); the remaining cases
are reported as inconclusive rather than guessed.

The equivalence test decomposes each input once.  The HOSVD commutes
with mode permutation, so the HOSVD of a relabelled copy of A is A's
factors and spectra re-indexed and A's core permuted.  Alignments are
generated lazily in lexicographic order and the search stops at the
first core match; after ``RELABEL_CAP`` tried alignments it gives up,
and the verdict says the search was capped only when a further
alignment exists.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DimensionMismatchError, ValidationError
from .tensor import (
    Hypermatrix,
    frobenius_norm,
    mode_permute,
    multilinear_multiply,
)

__all__ = [
    "DEFAULT_TOL",
    "DEGENERACY_GAP",
    "HosvdResult",
    "LuTag",
    "SvalCertificate",
    "LuVerdict",
    "mode_factor",
    "mode_svals",
    "hosvd",
    "lu_fingerprint",
    "canonicalize_core",
    "lu_equivalence",
]

DEFAULT_TOL = 1e-10

# Relative gap (s1 - s2) / s1 below which a mode spectrum is treated as
# degenerate; the factor is then not determined up to phase and core
# comparison is not meaningful.
DEGENERACY_GAP = 1e-6

# Bound on how many fingerprint-aligning relabelings are tried before
# the equivalence test gives up with Inconclusive.
RELABEL_CAP = 720


@dataclass(frozen=True)
class HosvdResult:
    """Factors, core and per-mode singular values of a HOSVD.

    ``factors[k-1]`` is the 2x2 unitary for mode k; ``mode_svals[k-1]``
    is the descending pair of mode-k singular values.
    """

    factors: tuple
    core: Hypermatrix
    mode_svals: tuple

    def reconstruct(self) -> Hypermatrix:
        """(V_1, ..., V_N) * core, equal to the input within roundoff."""
        return multilinear_multiply(self.factors, self.core)


def _require_qubit_mode(H, k):
    if not 1 <= k <= H.order:
        raise ValidationError(f"mode must be in 1..{H.order}, got {k}")
    if H.dims[k - 1] != 2:
        raise ValidationError(
            f"mode {k} has length {H.dims[k - 1]}; this decomposition needs length 2"
        )


def mode_factor(H: Hypermatrix, k: int):
    """Mode-k factor and singular values for a length-2 mode.

    Returns
    -------
    V : (2, 2) complex ndarray
        Unitary whose columns are eigenvectors of the Gram matrix of the
        k-mode unfolding, descending eigenvalue order.
    svals : (2,) float ndarray
        Descending mode-k singular values.

    Notes
    -----
    The Gram matrix G = M M^H is Hermitian positive semidefinite, so its
    eigensystem is computed in closed form.  The eigenvector branch is
    chosen by the sign of G_00 - G_11 to avoid cancellation; for a
    degenerate spectrum (including the zero hypermatrix) the factor is
    the identity by convention.
    """
    _require_qubit_mode(H, k)
    # The rows of the k-mode unfolding are the i_k = 0 and i_k = 1 halves
    # of this view, in another column order, which G does not depend on.
    X = H.data.reshape(math.prod(H.dims[: k - 1]), 2, -1)
    a = float(np.vdot(X[:, 0], X[:, 0]).real)
    b = float(np.vdot(X[:, 1], X[:, 1]).real)
    c = complex(np.vdot(X[:, 1], X[:, 0]))  # G_01 = row0 . conj(row1)
    d = a - b
    s = a + b
    r = math.hypot(d, 2.0 * abs(c))
    lam_hi = 0.5 * (s + r)
    lam_lo = max(0.5 * (s - r), 0.0)
    svals = np.array([math.sqrt(lam_hi), math.sqrt(lam_lo)])
    if r <= 1e-15 * s or s == 0.0:
        # Degenerate (or zero) spectrum: any orthonormal basis works.
        V = np.eye(2, dtype=np.complex128)
    else:
        if d >= 0.0:
            v1 = np.array([0.5 * (r + d), c.conjugate()], dtype=np.complex128)
        else:
            v1 = np.array([c, 0.5 * (r - d)], dtype=np.complex128)
        v1 /= np.linalg.norm(v1)
        v2 = np.array([-np.conj(v1[1]), np.conj(v1[0])])
        V = np.column_stack([v1, v2])
    V.setflags(write=False)
    svals.setflags(write=False)
    return V, svals


def mode_svals(H: Hypermatrix, k: int) -> np.ndarray:
    """Descending mode-k singular values (no factor computed)."""
    return mode_factor(H, k)[1]


def _mode_pairs(H):
    return [mode_factor(H, k) for k in range(1, H.order + 1)]


def _hosvd_from_pairs(H, pairs) -> HosvdResult:
    """HOSVD of H from its ``(V, svals)`` pairs, one per mode."""
    factors = tuple(V for V, _ in pairs)
    core = multilinear_multiply([V.conj().T for V in factors], H)
    return HosvdResult(factors=factors, core=core, mode_svals=tuple(sv for _, sv in pairs))


def hosvd(H: Hypermatrix) -> HosvdResult:
    """Higher-order SVD of a hypermatrix with every mode of length 2."""
    return _hosvd_from_pairs(H, _mode_pairs(H))


def lu_fingerprint(H: Hypermatrix):
    """Per-mode singular value pairs, the local-unitary invariant.

    Cheap relative to a full decomposition: no core is formed.
    """
    return tuple(mode_svals(H, k) for k in range(1, H.order + 1))


def canonicalize_core(result: HosvdResult, *, negligible: float = DEFAULT_TOL / 4):
    """Fix the residual per-mode phase freedom of a HOSVD core.

    The factors of a non-degenerate HOSVD are unique only up to a unit
    phase per column, which multiplies core entries by phases of the form
    g * prod_{k in F} rho_k, where F is the set of modes in which an
    entry's index differs from a reference entry.  This routine chooses
    those phases deterministically from the core itself.  Every mode
    must have length 2 (as for :func:`hosvd`), so F is the set of bits
    in which two row-major indices differ.

    Entries with magnitude above ``negligible`` are sorted by
    descending magnitude and cut into tie groups: a new group starts
    wherever the next magnitude is smaller by more than ``negligible``.
    Within a group the smaller row-major index comes first, so cores
    that are equal in exact arithmetic are visited in the same order
    whatever their roundoff.  Then:

    * the first entry (the smallest index of the top group) is made
      real positive and serves as the reference;
    * the remaining entries are visited in that order; each visit pins
      the phase of one still-free mode so the visited entry becomes
      real positive, zeroing the extra phases first when an entry
      involves more than one free mode;
    * phases of modes never touched by the support stay at zero.

    The factors are rescaled by the conjugate phases so that
    ``reconstruct()`` is unchanged.  Because the visiting order depends
    only on entry magnitudes, two cores that differ by such phases
    canonicalize to the same entries whenever the tie groups are
    separated by gaps well above ``negligible``.

    Returns a new :class:`HosvdResult`.
    """
    core = np.array(result.core.data)
    n = core.ndim
    flat = core.reshape(-1)
    mags = np.abs(flat)
    top = float(mags.max())
    if top <= 0.0:
        return result
    # The largest entry always counts, so there is an anchor even when
    # every entry is negligible.
    keep = mags > negligible
    keep[np.argmax(mags)] = True
    support = np.flatnonzero(keep)
    support = support[np.argsort(-mags[support])]
    # A new tie group starts wherever the magnitude drops by more than
    # ``negligible``; within a group the smaller index comes first.
    group = np.cumsum(np.diff(mags[support], prepend=top) < -negligible)
    support = support[np.lexsort((support, group))]
    anchor = int(support[0])
    support = support[1:]
    g = -cmath.phase(flat[anchor])

    # Mode k is bit n-1-k of a row-major index, so the modes in which
    # entry i differs from the anchor are the set bits of i ^ anchor.
    flips = support ^ anchor
    rho = [0.0] * n
    free = (1 << n) - 1  # bits of the modes not yet pinned
    for _ in range(n):  # every round pins at least one mode
        counts = np.bitwise_count(flips & free)
        single = np.flatnonzero(counts == 1)
        if single.size:
            j = int(single[0])
            flip = int(flips[j])
            k = n - (flip & free).bit_length()
            theta = cmath.phase(flat[support[j]]) + g
            theta += sum(rho[m] for m in range(n) if m != k and flip >> (n - 1 - m) & 1)
            rho[k] = -theta
            free &= ~flip
        elif counts.any():
            # The largest remaining entry touches several free modes:
            # keep only its smallest free mode adjustable, zero the others.
            mask = int(flips[np.argmax(counts > 0)]) & free
            free &= ~mask | 1 << (mask.bit_length() - 1)
        else:
            break

    canon = core
    new_factors = []
    for k in range(n):
        pk = np.ones(2, dtype=np.complex128)
        pk[1 - (anchor >> (n - 1 - k) & 1)] = cmath.exp(1j * rho[k])
        if k == 0:
            pk = pk * cmath.exp(1j * g)
        shape = [1] * n
        shape[k] = 2
        canon = canon * pk.reshape(shape)
        new_factors.append(result.factors[k] * np.conj(pk)[None, :])
    return HosvdResult(
        factors=tuple(new_factors),
        core=Hypermatrix(canon),
        mode_svals=result.mode_svals,
    )


class LuTag(Enum):
    NOT_EQUIVALENT = "NotEquivalent"
    EQUIVALENT_CORE_MATCH = "EquivalentCoreMatch"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class SvalCertificate:
    """Witness of inequivalence: a mode whose singular values differ."""

    mode: int
    svals_a: tuple
    svals_b: tuple


@dataclass(frozen=True)
class LuVerdict:
    tag: LuTag
    certificate: SvalCertificate | None = None
    detail: str = ""


def _alignment_candidates(fa, fb, tol):
    """Mode mappings sigma with fa[sigma(k)] = fb[k] within tol.

    A lazy generator of one-based mapping tuples (as in
    :class:`ModePermutation`) in lexicographic order; it yields nothing
    at once when some mode of B matches no spectrum of A.
    """
    N = len(fa)
    options = [
        [j for j in range(N) if float(np.max(np.abs(fa[j] - fb[k]))) <= tol]
        for k in range(N)
    ]
    if not all(options):
        return

    def extend(prefix):
        if len(prefix) == N:
            yield tuple(j + 1 for j in prefix)
            return
        for j in options[len(prefix)]:
            if j not in prefix:
                yield from extend(prefix + (j,))

    yield from extend(())


def lu_equivalence(A: Hypermatrix, B: Hypermatrix, tol: float = DEFAULT_TOL) -> LuVerdict:
    """Three-valued equivalence test under local unitaries and qubit
    relabeling.

    ``NotEquivalent`` means no relabeling of the modes aligns the two
    singular-value fingerprints; the certificate reports the first mode
    where the unpermuted fingerprints differ.  ``EquivalentCoreMatch``
    means some alignment exists under which the phase-canonicalized
    cores agree entrywise within ``tol``, with every mode spectrum
    non-degenerate.  Everything else is ``Inconclusive``; the test never
    guesses.  At most ``RELABEL_CAP`` alignments are tried, first match
    wins.

    Both inputs must have equal dims and unit Frobenius norm within
    ``tol`` (no silent renormalization); ``tol`` must be positive and
    finite.
    """
    if not 0.0 < tol < math.inf:
        raise ValidationError(f"tolerance must be positive and finite, got {tol!r}")
    if A.dims != B.dims:
        raise DimensionMismatchError(f"dims differ: {A.dims} vs {B.dims}")
    for name, T in (("first", A), ("second", B)):
        if abs(frobenius_norm(T) - 1.0) > tol:
            raise ValidationError(
                f"{name} input is not normalized (norm {frobenius_norm(T)!r})"
            )
    pairs_a = _mode_pairs(A)
    pairs_b = _mode_pairs(B)
    fa = tuple(sv for _, sv in pairs_a)
    fb = tuple(sv for _, sv in pairs_b)
    candidates = _alignment_candidates(fa, fb, tol)
    first = next(candidates, None)
    if first is None:
        for k, (sa, sb) in enumerate(zip(fa, fb), start=1):
            if np.max(np.abs(sa - sb)) > tol:
                return LuVerdict(
                    tag=LuTag.NOT_EQUIVALENT,
                    certificate=SvalCertificate(
                        mode=k, svals_a=tuple(sa), svals_b=tuple(sb)
                    ),
                    detail="no relabeling aligns the singular-value fingerprints",
                )
    for k, sv in enumerate(fb, start=1):
        if sv[0] <= 0.0 or (sv[0] - sv[1]) / sv[0] < DEGENERACY_GAP:
            return LuVerdict(
                tag=LuTag.INCONCLUSIVE,
                detail=(
                    f"mode {k} spectrum is degenerate; the core comparison "
                    "is not phase-determined"
                ),
            )
    # The HOSVD commutes with mode permutation, so A is decomposed once
    # and each candidate only re-indexes its factors and permutes its core.
    ra = _hosvd_from_pairs(A, pairs_a)
    cb = canonicalize_core(_hosvd_from_pairs(B, pairs_b), negligible=tol / 4).core
    best_gap = None
    for sigma in itertools.islice(itertools.chain((first,), candidates), RELABEL_CAP):
        permuted = HosvdResult(
            factors=tuple(ra.factors[j - 1] for j in sigma),
            core=mode_permute(ra.core, sigma),
            mode_svals=tuple(ra.mode_svals[j - 1] for j in sigma),
        )
        ca = canonicalize_core(permuted, negligible=tol / 4).core
        gap = float(np.max(np.abs(ca.data - cb.data)))
        if gap <= tol:
            is_id = sigma == tuple(range(1, len(sigma) + 1))
            return LuVerdict(
                tag=LuTag.EQUIVALENT_CORE_MATCH,
                detail="" if is_id else f"after relabeling modes by {sigma}",
            )
        best_gap = gap if best_gap is None else min(best_gap, gap)
    detail = (
        "fingerprints align but canonical cores differ "
        f"(best max entry gap {best_gap:.3e})"
    )
    # Capped only when an alignment beyond the RELABEL_CAP tried exists.
    if next(candidates, None) is not None:
        detail += f"; relabeling search capped at {RELABEL_CAP} candidates"
    return LuVerdict(tag=LuTag.INCONCLUSIVE, detail=detail)
