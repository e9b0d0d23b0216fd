"""Independent reference implementations used as oracles by the tests.

Everything here is written directly from the defining formulas with
naive loops or well-tested numpy routines (svd, eigvalsh, kron) and
shares no code with the package: permutation parity is counted by
inversions instead of cycles, unfoldings use the explicit column-index
formula, the spin flip builds the actual complex Kronecker power (and,
looped, its entry formula), and outer products, ket strings,
``{"re", "im"}`` entries and mode mappings are built by plain loops,
and ket text is read one character at a time.
There are two exceptions.  :func:`lu_equivalence_recompute`, a reference
for the relabeling search only, decomposes every relabelled copy with
the package's own HOSVD and canonicalization.
:func:`parse_ket_reference`, the per-term reader that ``parse_ket``
replaced, shares the package's term-head regex, fraction reader and
error placement, so that it can pin the errors as well as the values.
"""

import cmath
import itertools
import math
import re

import numpy as np

from qhyper import KetSyntaxError, LuTag, LuVerdict, SvalCertificate, ValidationError
from qhyper import canonicalize_core, hosvd, lu_fingerprint, mode_permute
from qhyper.hosvd import DEGENERACY_GAP, RELABEL_CAP
from qhyper.states import _HEAD_RE, _check_qubit_cap, _ratio, _term_error


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


def outer_product(vectors):
    """u_1 o ... o u_N: entry (i_1, ..., i_N) is the product of u_k[i_k]."""
    vecs = [np.asarray(v, dtype=complex) for v in vectors]
    out = np.zeros(tuple(v.size for v in vecs), dtype=complex)
    for idx in itertools.product(*[range(v.size) for v in vecs]):
        prod = 1.0 + 0.0j
        for v, i in zip(vecs, idx):
            prod *= v[i]
        out[idx] = prod
    return out


def format_ket(amplitudes):
    """``(re+imi)|bits> + ...`` over the nonzero amplitudes, 17 digits each."""
    amplitudes = np.asarray(amplitudes, dtype=complex)
    width = int(math.log2(amplitudes.size))
    parts = []
    for j, z in enumerate(amplitudes):
        if z != 0:
            op = "-" if z.imag < 0 else "+"
            parts.append(f"({z.real:.17g}{op}{abs(z.imag):.17g}i)|{j:0{width}b}>")
    return " + ".join(parts)


def ket_amplitudes(text):
    """Unnormalized amplitudes of a well-formed ket expression.

    Reads the text one character at a time, with no regular expression:
    an optional sign, then terms ``[coef [*]] |bits>`` joined by '+' or
    '-', whitespace anywhere between tokens.  A coefficient is
    ``1/sqrt(r)``, ``p/q``, ``(a+bi)`` or a decimal.  A '-' negates
    its term's coefficient.  The first term of a label sets its amplitude
    and each later one is added to it, in text order, so signed zeros
    are kept as written.
    """
    pos = 0

    def skip():
        nonlocal pos
        while pos < len(text) and text[pos].isspace():
            pos += 1

    def take(chars):
        nonlocal pos
        start = pos
        while pos < len(text) and (text[pos].isdecimal() or text[pos] in chars):
            if text[pos] in "+-" and text[pos - 1] not in "eE":
                break
            pos += 1
        return text[start:pos]

    def expect(literal):
        nonlocal pos
        skip()
        assert text.startswith(literal, pos), (literal, pos)
        pos += len(literal)
        skip()

    terms = []
    skip()
    while pos < len(text):
        negate = False
        if text[pos] in "+-":
            negate = text[pos] == "-"
            expect(text[pos])
        coef = None
        if text[pos] == "(":
            expect("(")
            lead = text[pos] if text[pos] in "+-" else ""
            pos += len(lead)
            real = float(lead + take(".eE+-"))
            skip()
            minus = text[pos] == "-"
            expect(text[pos])
            imag = float(take(".eE+-"))
            expect("i")
            expect(")")
            coef = complex(real, -imag if minus else imag)
        elif text[pos] != "|":
            first = take(".eE+-")
            skip()
            if text[pos] != "/":
                coef = complex(float(first))
            else:
                expect("/")
                if text.startswith("sqrt(", pos):
                    expect("sqrt(")
                    coef = complex(1.0 / math.sqrt(int(take(""))))
                    expect(")")
                else:
                    coef = complex(int(first) / int(take("")))
        skip()
        if coef is not None and text[pos] == "*":
            expect("*")
        expect("|")
        end = text.index(">", pos)
        value = 1.0 + 0.0j if coef is None else coef
        terms.append((text[pos:end], -value if negate else value))
        pos = end + 1
        skip()
    width = len(terms[0][0])
    out = np.zeros(2**width, dtype=complex)
    seen = set()
    for bits, value in terms:
        assert len(bits) == width
        j = int(bits, 2)
        out[j] = out[j] + value if j in seen else value
        seen.add(j)
    return out


# The term regex of the per-term reader: a term, or the empty match wherever no
# term does, so finditer never skips text.
_TERM_RE = re.compile(_HEAD_RE.pattern + r"\|([01]+)>|")


def parse_ket_reference(text):
    """Unnormalized amplitudes of ket text, read one term at a time.

    The per-term regex loop that ``parse_ket`` ran before its bulk lexer,
    kept as the reference for its values and its errors: the same
    exception, message and position for the first failing term.  Like
    ``parse_ket`` it raises ``ValidationError`` on the zero vector.
    """
    amps: dict[str, complex] = {}
    width = None
    for m in _TERM_RE.finditer(text):
        sign, coef, root, num, den, re_part, op, im_part, dec, bits = m.groups()
        if bits is None or (sign is None and amps):
            break
        if dec is not None:
            value = complex(float(dec))
        elif re_part is not None:
            value = complex(float(re_part), -float(im_part) if op == "-" else float(im_part))
        elif coef is not None:
            value = _ratio(root, num, den, m.start(2))
        else:
            value = 1.0 + 0.0j
        if len(bits) != width:
            if width is not None:
                raise KetSyntaxError(
                    f"ket has {len(bits)} bits, earlier kets have {width}", m.start(10) - 1
                )
            width = len(bits)
            _check_qubit_cap(width)
        value = -value if sign == "-" else value
        # The first value of a label is kept as it is, signed zeros included.
        amps[bits] = amps[bits] + value if bits in amps else value
    if not amps or text[m.start() :].strip():
        _term_error(text, m.start(), not amps)

    vec = np.zeros(2**width, dtype=np.complex128)
    for bits, value in amps.items():
        vec[int(bits, 2)] = value
    if not vec.any():
        raise ValidationError("expression sums to the zero vector")
    return vec

def complex_to_json(arr):
    """``[{"re": .., "im": ..}, ...]`` for the entries of ``arr`` in row-major order."""
    return [{"re": z.real, "im": z.imag} for z in np.ravel(arr).tolist()]


def state_to_json(state):
    """``{"num_qubits": n, "amplitudes": [...]}``, the state JSON the CLI writes."""
    return {"num_qubits": state.num_qubits, "amplitudes": complex_to_json(state.amplitudes)}


def tensor_to_json(H):
    """``{"dims": [...], "entries": [...]}``, the core JSON of ``hosvd``."""
    return {"dims": list(H.dims), "entries": complex_to_json(H.data)}


def matrix_to_json(M):
    """``{"rows": r, "cols": c, "entries": [...]}``, a factor JSON of ``hosvd``."""
    M = np.asarray(M, dtype=complex)
    return {"rows": M.shape[0], "cols": M.shape[1], "entries": complex_to_json(M)}


def complex_entries(entries):
    """Complex vector from a list of ``{"re": x, "im": y}`` objects."""
    return np.array([complex(e["re"], e["im"]) for e in entries])


def compose_mapping(p, q):
    """Mode mapping of relabelling by ``p`` and then by ``q`` (one-based)."""
    return tuple(p[j - 1] for j in q)


def inverse_mapping(p):
    """Mode mapping that undoes relabelling by ``p`` (one-based)."""
    inv = [0] * len(p)
    for j, src in enumerate(p, start=1):
        inv[src - 1] = j
    return tuple(inv)


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


def perm_tables_loop(m, order):
    """``(pos, sign)`` for every tuple (s_2, ..., s_N) in S_m^(N-1), N =
    ``order``, in ``itertools.product`` order: ``pos[j, t]`` is the flat
    offset of (s_2(j), ..., s_N(j)) in modes 2..N, mode N fastest, and
    ``sign[t]`` the product of the inversion parities."""
    perms = list(itertools.permutations(range(m)))
    tuples = list(itertools.product(perms, repeat=order - 1))
    pos = np.zeros((m, len(tuples)), dtype=np.intp)
    sign = np.ones(len(tuples), dtype=np.int8)
    for t, tup in enumerate(tuples):
        for j in range(m):
            offset = 0
            for p in tup:
                offset = offset * m + p[j]
            pos[j, t] = offset
        for p in tup:
            sign[t] *= inversion_parity(p)
    return pos, sign


def render_signs(signs):
    """'+' for each entry > 0 and '-' for anything else, one character at a time."""
    return "".join("+" if v > 0 else "-" for v in signs.tolist())


def render_blocks(signs):
    """'P' for each block of four equal to +--+ and 'N' for -++-, one block at a time."""
    names = {(1, -1, -1, 1): "P", (-1, 1, 1, -1): "N"}
    values = signs.tolist()
    return "".join(names[tuple(values[i : i + 4])] for i in range(0, len(values), 4))


def chi_py(index):
    """Parity sign of an integer's popcount, pure Python."""
    return 1 if bin(index).count("1") % 2 == 0 else -1


def chi_signs_popcount(n):
    """chi on all 2n-bit strings in order, one popcount per index, as int8."""
    ones = np.bitwise_count(np.arange(4**n, dtype=np.uint64))
    return (1 - 2 * (ones & 1)).astype(np.int8)


def sign_string_concat(n, base, quarters):
    """The 4^n doubling S -> q0*S q1*S q2*S q3*S from ``base``, one
    concatenation per step."""
    s = np.array(base, dtype=np.int8)
    for _ in range(n - 1):
        s = np.concatenate([q * s for q in quarters])
    return s


def pairing_full(amplitudes):
    """Full-vector pairing sum_j chi(j) a_j a_{~j} over all 4^n indices;
    the hyperdeterminant is half of it and the n-tangle its squared modulus."""
    amplitudes = np.asarray(amplitudes, dtype=complex)
    signs = chi_signs_popcount((amplitudes.size.bit_length() - 1) // 2)
    return complex(np.sum(signs * amplitudes * amplitudes[::-1]))


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


def spin_flip(amplitudes):
    """Spin flip of 2n qubits from the Pauli-y power's entries, looped.

    Row j of the Pauli-y power has one nonzero, in column ~j (all bits
    complemented): a factor -i per zero bit of j and +i per one bit,
    i.e. (-1)^(n + ones(j)) for 2n qubits.
    """
    amplitudes = np.asarray(amplitudes, dtype=complex)
    size = amplitudes.size
    half_n = (size.bit_length() - 1) // 2
    out = np.empty(size, dtype=complex)
    for j in range(size):
        sign = 1 if (half_n + bin(j).count("1")) % 2 == 0 else -1
        out[j] = sign * amplitudes[size - 1 - j].conjugate()
    return out


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


def canonical_order(core, negligible):
    """Row-major indices a canonical core walk visits, anchor first.

    The largest entry and every entry above ``negligible`` are sorted by
    descending magnitude into tie groups (a new group wherever the
    magnitude drops by more than ``negligible``), smaller row-major index
    first within a group.
    """
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
    return [i for _, i in sorted(keyed)]


def neighbour_pins(core, negligible, svals):
    """{zero-based mode k: index} of the anchor's single-flip neighbours
    that pin their mode's phase; empty when the top is tied.

    With gap_m = (s1^2 - s2^2) / (s1^2 + s2^2) per mode, a neighbour pins
    mode k when its magnitude exceeds ``negligible`` and
    top^2 * 4 eps * (1 + sum_m 1 / gap_m) / negligible, and the anchor is
    the only entry within ``negligible`` of the top magnitude.
    """
    n = core.ndim
    flat = core.reshape(-1)
    mags = np.abs(flat)
    anchor = int(np.argmax(mags))
    top = mags[anchor]
    if sum(1 for i in range(flat.size) if not top - mags[i] > negligible) != 1:
        return {}
    cond = 1.0
    for s1, s2 in svals:
        cond += (s1 * s1 + s2 * s2) / (s1 * s1 - s2 * s2) if s1 * s1 > s2 * s2 else math.inf
    floor = max(negligible, top * top * 4 * np.finfo(float).eps * cond / negligible)
    pins = {}
    for k in range(n):
        neighbour = anchor ^ 1 << (n - 1 - k)
        if mags[neighbour] > floor:
            pins[k] = neighbour
    return pins


def canonical_core_walk(core, negligible, svals):
    """Phase-canonical qubit HOSVD core by a per-entry walk.

    The first entry of :func:`canonical_order` is made real positive.
    Each mode in :func:`neighbour_pins` is pinned so its neighbour
    becomes real positive.  Then each later entry whose index differs
    from the first in at most one unpinned mode pins that mode so the
    entry becomes real positive; when no pending entry qualifies, every
    unpinned mode of the first pending entry but the smallest is pinned
    to phase zero.
    """
    n = core.ndim
    flat = core.reshape(-1)
    order = canonical_order(core, negligible)
    anchor = order[0]
    g = -cmath.phase(flat[anchor])

    def differ(i):
        return [k for k in range(n) if (i ^ anchor) >> (n - 1 - k) & 1]

    rho = [None] * n
    for k, neighbour in neighbour_pins(core, negligible, svals).items():
        rho[k] = -(cmath.phase(flat[neighbour]) + g)
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


def lu_equivalence_recompute(A, B, tol):
    """LU-equivalence verdict by an eager, recomputing relabeling search.

    Collects every alignment of the fingerprints (``RELABEL_CAP + 1`` at
    most) into a list up front, then decomposes each relabelled copy of
    A from scratch with ``hosvd(mode_permute(A, sigma))``.  Inputs must
    already be normalized with equal dims.
    """
    fa = lu_fingerprint(A)
    fb = lu_fingerprint(B)
    N = len(fa)
    found = []
    for perm in itertools.permutations(range(N)):
        if all(np.max(np.abs(fa[j] - fb[k])) <= tol for k, j in enumerate(perm)):
            found.append(tuple(j + 1 for j in perm))
            if len(found) > RELABEL_CAP:
                break
    if not found:
        for k, (sa, sb) in enumerate(zip(fa, fb), start=1):
            if np.max(np.abs(sa - sb)) > tol:
                return LuVerdict(
                    tag=LuTag.NOT_EQUIVALENT,
                    certificate=SvalCertificate(mode=k, svals_a=tuple(sa), svals_b=tuple(sb)),
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
    cb = canonicalize_core(hosvd(B), negligible=tol / 4).core.data
    gaps = []
    for mapping in found[:RELABEL_CAP]:
        ca = canonicalize_core(hosvd(mode_permute(A, mapping)), negligible=tol / 4).core.data
        gaps.append(float(np.max(np.abs(ca - cb))))
        if gaps[-1] <= tol:
            is_id = mapping == tuple(range(1, N + 1))
            detail = "" if is_id else f"after relabeling modes by {mapping}"
            return LuVerdict(tag=LuTag.EQUIVALENT_CORE_MATCH, detail=detail)
    detail = f"fingerprints align but canonical cores differ (best max entry gap {min(gaps):.3e})"
    if len(found) > RELABEL_CAP:
        detail += f"; relabeling search capped at {RELABEL_CAP} candidates"
    return LuVerdict(tag=LuTag.INCONCLUSIVE, detail=detail)
