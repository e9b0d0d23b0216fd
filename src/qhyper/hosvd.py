"""Higher-order SVD for qubit hypermatrices and local-unitary tests.

For an order-N hypermatrix with every mode length 2, the mode-k factor
is the unitary of eigenvectors of the 2x2 Gram matrix G = M M^H of the
k-mode unfolding M, ordered by descending eigenvalue; the mode-k
singular values are the square roots of those eigenvalues.  The core is
obtained by applying the conjugate-transposed factors to the input,

    core = (V_1^H, ..., V_N^H) * H,

by the product kernel behind ``multilinear_multiply``, which applies each
run of three consecutive factors as one 8x8 Kronecker block.  So
H = (V_1, ..., V_N) * core holds by construction, and ``reconstruct``
goes back the same way.  The core is all-orthogonal (slices along any
mode at distinct indices have zero Frobenius inner product) and the
norms of the mode-k slices are the mode-k singular values.  All modes
are solved in one sweep: their Gram diagonals come from one |entry|^2
table folded a mode at a time, and their closed forms run together.

The per-mode singular values are invariant under local unitaries and
are therefore used as a cheap fingerprint: fingerprints that cannot be
aligned by any relabeling of the qubit slots prove two states
inequivalent (rule ``spectra``).  An alignment plus matching cores
after a deterministic phase canonicalization certifies equivalence
(``core-match``: a permuted tensor with the same core is reachable by
local unitaries).  The other rules report inconclusive rather than
guess: a degenerate spectrum (``degenerate``), or no core match among
the alignments tried, with (``cap``) or without (``exhausted``) one
more past the cap.  The canonical phases come from the largest core
entry and its single-flip neighbours where those are large enough, and
from a magnitude-ordered walk otherwise.

The equivalence test decomposes each input once, and both together: A and
B go through the sweep as one (2, 2, ..., 2) stack, and their cores come
from one stacked product.  Every public function runs the same kernels on
a stack of one, and a row's bits do not depend on the stack it is in.  The
stack, the sweep's |entry|^2 table and conjugated copy, the product's
passes, and the canonical cores that the search compares all live in the
calling thread's three scratch buffers (``tensor._scratch``), kept between
calls so that a stream of tests reuses its memory.  The product's first
pass is the last read of the stack, so the cores overwrite it.  Nothing a
function returns is scratch: records, factors, spectra and verdicts are
fresh.  The HOSVD commutes with mode permutation, so the core of a
relabelled copy of A is A's core transposed by the relabeling, and its
spectra are A's indexed by it.
Canonicalization is two steps: a plan picks the anchor and the entries
that pin each mode's phase, from entry magnitudes and mode spectra only,
and a replay makes those entries real positive.  Both inputs are
LU-invariant, so any transpose of A's core that can match B's has B's
plan; the search plans once, on B, and replays that plan on B's core and
on each candidate transpose.  A's canonical core, transposed, would not
do: where the walk breaks ties by row-major index, it does not commute
with relabeling.
Alignments are generated lazily in lexicographic order, and the search
stops at the first core match or after ``RELABEL_CAP`` of them.

Arguments are checked once, by the public function a caller reaches.
Below it the library runs on arrays it built from checked inputs and
does not check them again: the core's product checks only that it is
finite, and the search replays its plan on bare core arrays.
"""

from __future__ import annotations

import cmath
import itertools
import math
import numbers
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DimensionMismatchError, ValidationError
from .tensor import Hypermatrix, _fresh, _inner, _int_arg, _multiply, _scratch, frobenius_norm, multilinear_multiply

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


@dataclass(frozen=True, slots=True)
class HosvdResult:
    """Factors, core and per-mode singular values of a HOSVD.

    ``factors`` is a read-only (N, 2, 2) array whose ``factors[k-1]`` is the
    mode-k unitary; ``mode_svals`` is a read-only (N, 2) array whose row
    k-1 is the descending pair of mode-k singular values.
    """

    factors: np.ndarray
    core: Hypermatrix
    mode_svals: np.ndarray

    def reconstruct(self) -> Hypermatrix:
        """(V_1, ..., V_N) * core, equal to the input within roundoff."""
        return multilinear_multiply(self.factors, self.core)


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
    the identity by convention.  A lower eigenvalue below 1e-8 of the
    trace is mostly the trace's roundoff, and its root would read ~1e-8
    where the exact value is 0; there the lower singular value is the
    norm of the unfolding projected on column 2, so an unentangled
    qubit's spectrum reads (1, 0) to rounding.  This is row k-1 of the
    sweep that :func:`hosvd` runs over every mode, bit for bit.
    """
    k = _int_arg(k, "mode")
    if not 1 <= k <= H.order:
        raise ValidationError(f"mode must be in 1..{H.order}, got {k}")
    factors, spectra = _mode_sweep(H.data[None], (k - 1,))
    return factors[0, 0], spectra[0, 0]


def mode_svals(H: Hypermatrix, k: int) -> np.ndarray:
    """Descending mode-k singular values, the spectrum of :func:`mode_factor`."""
    return mode_factor(H, k)[1]


def _work(dims):
    """Where the kernels of a (b, *dims) stack keep their working arrays: this thread's
    scratch (``tensor._scratch``) when every mode has length 2, so that the order cap
    bounds what a thread keeps, and new arrays otherwise (``mode_factor`` of one
    length-2 mode of a larger hypermatrix)."""
    return _scratch if dims.count(2) == len(dims) else _fresh


def _mode_sweep(data, modes=None):
    """Factors and singular values of the zero-based ``modes`` (default: all) of
    each row of a (b, *dims) stack, as read-only (b, len(modes), 2, 2) and
    (b, len(modes), 2) arrays.

    Every step runs on the whole stack.  The |entry|^2 table is folded one mode
    at a time: read as (b, n_k, rest), its row sums are mode k's G_00 and G_11
    in every row and its column sums the next table.  G_01 is one einsum per
    mode over the stack, mode k's halves against one conjugated copy.  No sum
    goes through BLAS.  The closed forms, and the rank-one fallback below, run
    over all b * len(modes) modes at once.  The table, each entry's squared
    parts and the conjugated copy go to the ``x`` and ``y`` buffers of
    :func:`_work`; the factors and spectra are new arrays.

    When the stack's largest part is outside 2^-450..2^450, so that the table
    would overflow or lose entries to underflow, the entries are first divided
    by a power of two near it, which is exact, and the spectra multiplied
    back; a spectrum that this would take past the float range is a
    ValidationError.  One exponent serves the whole stack, so rows of unit
    norm are never rescaled.  A row then has the bits that a stack of one
    gives it; only a rescale driven by another row's peak can change them.
    """
    count, dims = len(data), data.shape[1:]
    modes = range(len(dims)) if modes is None else modes
    for k in modes:
        if dims[k] != 2:
            raise ValidationError(f"mode {k + 1} has length {dims[k]}; this decomposition needs length 2")
    e, work = 0, _work(dims)
    parts = data.view(np.float64)  # [..., ::2] and [..., 1::2]: real and imaginary parts
    sq = np.abs(parts, out=work("x", parts.shape, np.float64))
    peak = sq.max()
    if peak and not 2.0**-450 <= peak <= 2.0**450:
        e = math.frexp(peak)[1]
        parts = np.ldexp(parts, -e)
        data = parts.view(np.complex128)
    np.square(parts, out=sq)
    fold = np.add(sq[..., ::2], sq[..., 1::2], out=work("y", data.shape, np.float64))
    slot = {k: i for i, k in enumerate(modes)}
    diag = np.empty((count, len(modes), 2))  # [row, i]: G_00 and G_11 of mode modes[i]
    for k, n in enumerate(dims[: max(modes) + 1]):
        F = fold.reshape(count, n, -1)
        if k in slot:
            np.add.reduce(F, axis=2, out=diag[:, slot[k]])
        fold = np.add.reduce(F, axis=1)
    a, b = diag.reshape(-1, 2).T  # count * len(modes) entries, row-major (row, mode)
    # The rows of the k-mode unfolding are the i_k = 0 and i_k = 1 halves of
    # these views, in another column order, which G does not depend on.
    halves = [data.reshape(count, math.prod(dims[:k]), 2, -1) for k in modes]
    conj = np.conjugate(data, out=work("y", data.shape, np.complex128))
    c = np.empty((count, len(modes)), dtype=np.complex128)
    for i, X in enumerate(halves):
        c[:, i] = np.einsum("bij,bij->b", X[:, :, 0], conj.reshape(X.shape)[:, :, 1])
    c = c.reshape(-1)
    d, s = a - b, a + b
    r = np.hypot(d, 2.0 * np.abs(c))
    lam = np.empty((len(s), 2))
    lam[:, 0], lam[:, 1] = 0.5 * (s + r), np.maximum(0.5 * (s - r), 0.0)
    eye = (r <= 1e-15 * s) | (s == 0.0)  # degenerate (or zero): any basis works
    # The top eigenvector (x, y) is column 1 and (-conj(y), conj(x)) column 2.  To avoid
    # cancellation it is (v, conj(c)) for d >= 0, else (c, v), with v = (r + |d|) / 2.
    top = d >= 0.0
    v, u = 0.5 * (r + np.abs(d)), np.where(top, c.conj(), c)
    h = np.where(eye, 1.0, np.hypot(v, np.abs(u)))
    v, u = v / h, (u.view(np.float64) / h.repeat(2)).view(np.complex128)  # each part / h
    x, y = np.where(top, v, u), np.where(top, u, v)
    # C order whatever b, so that a one-qubit core's product takes one matmul path at every b.
    factors = np.empty((len(s), 2, 2), dtype=np.complex128)
    factors[:, 0, 0], factors[:, 0, 1], factors[:, 1, 0], factors[:, 1, 1] = x, -y.conj(), y, x.conj()
    factors[eye] = np.eye(2)
    for j in (lam[:, 1] < 1e-8 * s).nonzero()[0]:  # never a degenerate mode
        X = halves[j % len(modes)][j // len(modes)]
        w = x[j] * X[:, 1] - y[j] * X[:, 0]  # the unfolding projected on column 2
        lam[j, 1] = _inner(w, w)
    spectra = np.sqrt(lam)
    if e > 0 and spectra.max() >= 2.0 ** (1024 - e):  # times 2^e it reaches 2^1024
        raise ValidationError("a mode singular value is past the floating-point range")
    spectra = np.ldexp(spectra, e) if e else spectra
    factors, spectra = factors.reshape(count, -1, 2, 2), spectra.reshape(count, -1, 2)
    for arr in (factors, spectra):
        arr.setflags(write=False)
    return factors, spectra


def _cores(data, factors, out=None):
    """The (b, *dims) stack of cores (V_1^H, ..., V_N^H) * H, one per row of a stack
    and of its sweep's (b, N, 2, 2) factors, by one stacked product whose passes
    run in this thread's scratch; the cores go to ``out`` (which may be ``data``)
    when given, else to a new array."""
    return _multiply(factors.conj().transpose(1, 0, 3, 2), data, out, _scratch)


def hosvd(H: Hypermatrix) -> HosvdResult:
    """Higher-order SVD of a hypermatrix with every mode of length 2."""
    data = H.data[None]
    factors, spectra = _mode_sweep(data)
    return HosvdResult(factors[0], Hypermatrix._wrap(_cores(data, factors)[0]), spectra[0])


def lu_fingerprint(H: Hypermatrix) -> np.ndarray:
    """Per-mode singular values, the LU invariant, as a read-only (N, 2) array (no core)."""
    return _mode_sweep(H.data[None])[1][0]


def canonicalize_core(result: HosvdResult, *, negligible: float = DEFAULT_TOL / 4):
    """Fix the residual per-mode phase freedom of a HOSVD core.

    The factors of a non-degenerate HOSVD are unique only up to a unit
    phase per column, which multiplies core entries by phases of the form
    g * prod_{k in F} rho_k, where F is the set of modes in which an
    entry's index differs from a reference entry, the anchor, which is
    made real positive.  Every mode must have length 2 (as for
    :func:`hosvd`), so F is the set of bits in which two indices differ.

    When no other entry lies within ``negligible`` of the largest, that
    entry is the anchor, and each mode k whose single-flip neighbour (the
    anchor's index with mode k's bit flipped) exceeds ``negligible`` and
    top^2 * 4 eps * (1 + sum_m 1/gap_m) / negligible, with gap_m =
    (s1^2 - s2^2) / (s1^2 + s2^2), is pinned to make that neighbour real
    positive.  This floor keeps the phase error that a neighbour carries
    into any entry below ``negligible``: its roundoff is a few eps, and
    each mode-m factor, fixed to about eps / gap_m, mixes in that share
    of the other mode-m slice.  The floor is near 1e-3 of top for generic
    12-16-qubit states; a degenerate spectrum leaves every mode to the walk.

    The modes left free (all of them when the top is tied) are pinned
    by a walk.  Entries with magnitude above ``negligible`` are sorted
    by descending magnitude and cut into tie groups: a new group starts
    wherever the next magnitude is smaller by more than ``negligible``.
    Within a group the smaller row-major index comes first, so cores
    that are equal in exact arithmetic are visited in the same order
    whatever their roundoff.  The first entry (the smallest index of the
    top group) is the anchor.  Each round takes the first entry in this
    order that differs from the anchor in exactly one free mode, or
    failing that in any free mode, pins its smallest free mode so that
    the entry becomes real positive, and retires its other free modes at
    phase zero.  Modes that no entry of the support touches stay at zero.

    The factors are rescaled by the conjugate phases so that
    ``reconstruct()`` is unchanged.  The pinning depends only on entry
    magnitudes and the mode spectra, yet two cores that differ by such
    phases need not canonicalize alike: a phase zeroed above is a
    choice, not a gauge fix (on the support {000, 011, 101, 110}, say,
    no entry differs from the anchor in one mode only).

    ``negligible`` must be a positive finite real number, not a bool.  The
    record's core must be a :class:`Hypermatrix` with every mode of length 2
    (else ValidationError), and its factors and spectra must have shapes
    (N, 2, 2) and (N, 2) for an order-N core (else DimensionMismatchError).
    Returns a new :class:`HosvdResult`.
    """
    real = isinstance(negligible, numbers.Real) and not isinstance(negligible, bool)
    if not real or not 0.0 < negligible < math.inf:
        raise ValidationError(f"tolerance must be positive and finite, got {negligible!r}")
    core = result.core
    if not isinstance(core, Hypermatrix) or core.dims != (2,) * core.order:
        what = f"dims {core.dims}" if isinstance(core, Hypermatrix) else type(core).__name__
        raise ValidationError(f"the core must be a Hypermatrix with every mode of length 2, got {what}")
    n = core.order
    for name, shape in (("factors", (n, 2, 2)), ("mode_svals", (n, 2))):
        if (got := np.shape(getattr(result, name))) != shape:
            raise DimensionMismatchError(f"{name} must have shape {shape} for an order-{n} core, got {got}")
    plan = _plan(core.data, result.mode_svals, negligible)
    if plan is None:  # a zero core has no phases to fix
        return result
    canon, phases = _replay(core.data, plan)
    # Column j of V_k takes conj(phases[k, j]), all modes in one broadcast.
    factors = np.asarray(result.factors) * phases.conj()[:, None, :]
    factors.setflags(write=False)
    return HosvdResult(factors, Hypermatrix._wrap(canon), result.mode_svals)


def _plan(core, spectra, negligible):
    """Which entries of a core array fix its canonical phases (:func:`canonicalize_core`),
    read from its magnitudes and (N, 2) spectra only: the anchor, the (N,) mask of the modes
    its single-flip neighbours pin, and the walk's ordered (entry, mode) pins; None if it is 0."""
    n = core.ndim
    mags = np.abs(core.reshape(-1))
    anchor = int(np.argmax(mags))
    top = float(mags[anchor])
    if top <= 0.0:
        return None
    pin, walk = np.zeros(n, dtype=bool), []
    free = (1 << n) - 1  # bits of the modes not yet pinned
    # The walk's tie-group test below: no second entry in the top group.
    if np.count_nonzero(mags - top >= -negligible) == 1:
        # cond is scale-free: the spectra are first divided by a power of two near
        # their largest (exact), so no square overflows; the floor is formed in
        # Python floats, where an overflow reads inf (no neighbour pin) and warns nothing.
        spectra = np.asarray(spectra, dtype=float)
        lam = np.square(np.ldexp(spectra, -math.frexp(float(spectra.max()))[1]))
        gap = lam[:, 0] - lam[:, 1]
        cond = 1.0 + float(np.sum(lam.sum(axis=1) / gap)) if gap.all() else math.inf
        floor = top * top * 4 * sys.float_info.epsilon * cond / negligible
        bits = 1 << np.arange(n - 1, -1, -1)  # mode k is bit n-1-k of an index
        pin = mags[anchor ^ bits] > max(negligible, floor)
        free ^= int(bits[pin].sum())
    if free:
        keep = mags > negligible  # and the largest entry, however small
        keep[anchor] = True
        support = np.flatnonzero(keep)
        support = support[np.argsort(-mags[support])]
        # A new tie group starts wherever the magnitude drops by more than ``negligible``;
        # within a group the smaller index comes first.  The group numbers are non-decreasing
        # and every index is below 2^n, so one key orders by group, then by index.
        group = np.cumsum(np.diff(mags[support], prepend=top) < -negligible)
        support = support[np.argsort(group << n | support)]
        anchor = int(support[0])  # its flip below is 0, so it pins no mode
        flips = support ^ anchor  # entry i differs from the anchor in the modes set here
        for _ in range(n):  # every round pins at least one mode
            counts = np.bitwise_count(flips & free)
            single = np.flatnonzero(counts == 1)
            touched = single if single.size else np.flatnonzero(counts)
            if not touched.size:
                break
            flip = int(flips[touched[0]])
            walk.append((anchor ^ flip, n - (flip & free).bit_length()))  # the entry, its smallest free mode
            free &= ~flip  # its other free modes keep phase 0
    return anchor, pin, walk


def _replay(core, plan, out=None):
    """Make each entry that a :func:`_plan` pins real positive, in its order: the canonical
    core array, in ``out`` when given (a C-contiguous array of the core's shape, which
    may be ``core`` itself) and else in a new array, and the (N, 2) phase table."""
    anchor, pin, walk = plan
    n = core.ndim
    flat = core.reshape(-1)
    g = -cmath.phase(flat[anchor])
    bits = 1 << np.arange(n - 1, -1, -1)  # mode k is bit n-1-k of an index
    rho = np.where(pin, -(np.angle(flat[anchor ^ bits]) + g), 0.0).tolist()
    for entry, k in walk:  # each adds the pinned phases of the other modes it differs in
        theta = cmath.phase(flat[entry]) + g
        theta += sum(rho[m] for m in range(n) if m != k and (entry ^ anchor) >> (n - 1 - m) & 1)
        rho[k] = -theta

    phases = np.ones((n, 2), dtype=np.complex128)
    for k in range(n):
        phases[k, 1 - (anchor >> (n - 1 - k) & 1)] = cmath.exp(1j * rho[k])
    phases[0] *= cmath.exp(1j * g)
    # Entry i gets the product of phases[k, bit k of i], built from the last (fastest) mode up.
    table = np.ones(1, dtype=np.complex128)
    for pk in phases[::-1]:
        table = (pk[:, None] * table).ravel()
    return np.multiply(flat, table, out=None if out is None else out.reshape(-1)).reshape(core.shape), phases


class LuTag(Enum):
    NOT_EQUIVALENT = "NotEquivalent"
    EQUIVALENT_CORE_MATCH = "EquivalentCoreMatch"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True, slots=True)
class SvalCertificate:
    """Witness of inequivalence: a mode whose singular values differ."""

    mode: int
    svals_a: tuple
    svals_b: tuple


@dataclass(frozen=True, slots=True)
class LuVerdict:
    tag: LuTag
    certificate: SvalCertificate | None = None
    detail: str = ""
    rule: str = ""  # the key of _RULES that decided


_DIFFER = "fingerprints align but canonical cores differ (best max entry gap {gap:.3e})"
_RULES = {  # each rule that decides lu_equivalence: its tag and detail template
    "spectra": (LuTag.NOT_EQUIVALENT, "no relabeling aligns the singular-value fingerprints"),
    "degenerate": (
        LuTag.INCONCLUSIVE,
        "mode {mode} spectrum is degenerate; the core comparison is not phase-determined",
    ),
    "core-match": (LuTag.EQUIVALENT_CORE_MATCH, "after relabeling modes by {sigma}"),
    "exhausted": (LuTag.INCONCLUSIVE, _DIFFER),
    "cap": (LuTag.INCONCLUSIVE, _DIFFER + "; relabeling search capped at {cap} candidates"),
}


def _alignment_candidates(match):
    """Injective mode mappings sigma with ``match[k, sigma(k) - 1]`` for
    every mode k of the boolean N x N table ``match``.

    A lazy generator of one-based mapping tuples (as in
    :class:`ModePermutation`) in lexicographic order; it yields nothing
    at once when some row of ``match`` is all False.
    """
    N = len(match)
    options = [np.flatnonzero(row).tolist() for row in match]
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
    relabeling; the verdict's ``rule`` names the rule that decided it.

    ``NotEquivalent`` (``spectra``): no relabeling of the modes aligns
    the two singular-value fingerprints; the certificate names the first
    mode whose spectra differ in place.  ``EquivalentCoreMatch``
    (``core-match``): under some alignment the phase-canonicalized cores
    agree entrywise within ``tol``, every mode spectrum non-degenerate.
    Everything else is ``Inconclusive``, never a guess: a degenerate
    spectrum of B (``degenerate``), or no match among the first
    ``RELABEL_CAP`` alignments, with one more left (``cap``) or not
    (``exhausted``).

    Both inputs must have equal dims and unit Frobenius norm within
    ``tol`` (no silent renormalization); ``tol`` must be a real number
    (not a bool), finite, and above 1e-323 so that ``tol / 4``, the
    canonicalization's ``negligible``, is not 0.
    """
    real = isinstance(tol, numbers.Real) and not isinstance(tol, bool)
    if not real or not 0.0 < tol / 4 < math.inf:
        raise ValidationError(f"tolerance must be positive, finite and above 1e-323, got {tol!r}")
    if A.dims != B.dims:
        raise DimensionMismatchError(f"dims differ: {A.dims} vs {B.dims}")
    for name, T in (("first", A), ("second", B)):
        if abs(frobenius_norm(T) - 1.0) > tol:
            raise ValidationError(f"{name} input is not normalized (norm {frobenius_norm(T)!r})")
    data = _work(A.dims)("stack", (2,) + A.dims, np.complex128)  # other dims fail the sweep
    data[0], data[1] = A.data, B.data
    factors, (fa, fb) = _mode_sweep(data)
    # match[k, j]: mode k of B has the spectrum of mode j of A.
    match = np.abs(fb[:, None] - fa[None]).max(axis=2) <= tol
    candidates = _alignment_candidates(match)
    sigma, best_gap = next(candidates, None), math.inf
    degenerate = (k for k, (s1, s2) in enumerate(fb, 1) if s1 <= 0.0 or (s1 - s2) / s1 < DEGENERACY_GAP)
    if sigma is None:  # the identity is no alignment: some mode's spectra differ in place
        rule, mode = "spectra", int(np.argmin(match.diagonal())) + 1
    elif mode := next(degenerate, 0):
        rule = "degenerate"
    else:  # B's plan, replayed on B's core and on A's transposed by each candidate (module docstring)
        core_a, core_b = _cores(data, factors, out=data)  # the stack is dead after the first pass
        plan = _plan(core_b, fb, tol / 4)
        cb = _replay(core_b, plan, core_b)[0]
        ca, diff = _scratch("x", A.dims, np.complex128), _scratch("y", A.dims, np.float64)
        for sigma in itertools.islice(itertools.chain((sigma,), candidates), RELABEL_CAP):
            np.copyto(ca, core_a.transpose(np.subtract(sigma, 1)))
            _replay(ca, plan, ca)
            gap = float(np.max(np.abs(np.subtract(ca, cb, out=ca), out=diff)))
            if gap <= tol:
                rule = "core-match"
                break
            best_gap = min(best_gap, gap)
        else:  # capped only when an alignment beyond the RELABEL_CAP tried exists
            rule = "exhausted" if next(candidates, None) is None else "cap"
    tag, text = _RULES[rule]
    text = "" if rule == "core-match" and sigma == tuple(range(1, len(fa) + 1)) else text
    cert = SvalCertificate(mode, tuple(fa[mode - 1]), tuple(fb[mode - 1])) if rule == "spectra" else None
    detail = text.format(mode=mode, sigma=sigma, gap=best_gap, cap=RELABEL_CAP)
    return LuVerdict(tag, cert, detail, rule)
