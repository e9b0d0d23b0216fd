r"""Pure n-qubit states, ket expression parsing, and the n-tangle.

A state on n qubits is a vector of 2^n complex amplitudes in
lexicographic basis order, qubit 1 being the most significant bit of
the basis label.  Reshaping the amplitudes row-major into an n-fold
2 x ... x 2 array is a linear isomorphism onto qubit hypermatrices
under which acting with one 2x2 matrix per qubit coincides with
multilinear matrix multiplication.

Ket expressions follow the grammar

    state := term (('+' | '-') term)*
    term  := [coef ['*']] '|' bit+ '>'
    coef  := decimal | int '/' int | '1/sqrt(' int ')'
           | '(' decimal ('+' | '-') decimal 'i' ')'

with optional whitespace between tokens.  Repeated basis labels are
summed.  Decimals may carry an exponent so that amplitudes printed at
17 significant digits parse back exactly.  Whitespace and coefficient
digits are Python's Unicode ``\s`` and ``\d`` (``str.isspace`` and
``str.isdecimal``), while bits are the ASCII ``0`` and ``1``.  Decimals
are read by ``float()`` and the integers of a fraction by ``int()``.

The n-tangle of 2n qubits is 4 |hdet_fast|^2, computed by the one
pairing kernel in ``hyperdet``; the spin-flipped vector is never formed.
"""

from __future__ import annotations

import math
import re
import sys

import numpy as np

from .errors import KetSyntaxError, SizeCapError, ValidationError
from .hyperdet import MAX_SIGN_N, hdet_fast
from .tensor import MAX_ORDER, Hypermatrix, _complex_from_json, _inner, _int_arg, _json_int

__all__ = [
    "MAX_QUBITS",
    "NORM_TOL",
    "PARSE_NORM_SLACK",
    "QubitState",
    "parse_ket",
    "state_to_hypermatrix",
    "hypermatrix_to_state",
    "state_from_json",
    "apply_local_unitaries",
    "validate_unitary",
    "n_tangle",
    "random_state",
    "random_su2",
]

NORM_TOL = 1e-10  # |sum of squared magnitudes - 1| allowed on a valid state
PARSE_NORM_SLACK = 1e-6  # coefficient sloppiness the parser will clean up
MAX_QUBITS = 2 * MAX_SIGN_N  # widest state hdet_fast and n_tangle accept
_UNITARY_TOL = 1e-10  # largest |U^H U - I| entry allowed on a unitary


def _check_qubit_cap(n):
    """Raise SizeCapError before a 2^n amplitude vector is allocated."""
    if n > MAX_QUBITS:
        raise SizeCapError(f"states are capped at {MAX_QUBITS} qubits, got {n}")


class QubitState:
    """Immutable pure state of ``num_qubits`` qubits.

    Amplitudes are stored lexicographically: index j holds the amplitude
    of the basis label given by j written with ``num_qubits`` bits,
    qubit 1 leftmost.

    ``norm`` is the norm policy of every state reader: ``"check"`` (the
    default) requires the squared norm within ``NORM_TOL`` of 1,
    ``"renormalize"`` rescales any nonzero vector to unit norm (also when
    its squared norm overflows or underflows), and ``"skip"`` checks
    nothing, for diagnostics only: the state may then violate the norm
    invariant.

    Raises
    ------
    ValidationError
        If the length is not a power of two at least 2, any amplitude is
        non-finite, the norm fails the policy, or ``norm`` is none of the
        three policies.
    """

    __slots__ = ("_amp",)

    def __init__(self, amplitudes, *, norm: str = "check"):
        amp = np.array(amplitudes, dtype=np.complex128).reshape(-1)
        n = int(amp.size).bit_length() - 1
        if amp.size < 2 or amp.size != 2**n:
            raise ValidationError(
                f"amplitude count must be a power of two >= 2, got {amp.size}"
            )
        if not np.isfinite(amp).all():
            raise ValidationError("amplitudes must be finite")
        if norm == "renormalize":
            amp = _unit_vector(amp)
        elif norm == "check":
            sq = _inner(amp, amp)
            if abs(sq - 1.0) > NORM_TOL:
                raise ValidationError(
                    f"state is not normalized: sum |amp|^2 = {sq!r}"
                )
        elif norm != "skip":
            raise ValidationError(f"norm must be 'check', 'renormalize' or 'skip', got {norm!r}")
        amp.setflags(write=False)
        self._amp = amp

    @property
    def amplitudes(self) -> np.ndarray:
        """Read-only complex128 amplitude vector."""
        return self._amp

    @property
    def num_qubits(self) -> int:
        return int(self._amp.size).bit_length() - 1

    def norm(self) -> float:
        return math.sqrt(_inner(self._amp, self._amp))

    def __repr__(self):
        return f"QubitState(num_qubits={self.num_qubits})"


# Coefficient forms in the order they are tried: 1/sqrt(r), p/q, (a+bi), decimal.
# Each digit run splits one way only, so a failed match backtracks in linear time.
_NUM = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_COEF = (
    r"1\s*/\s*sqrt\(\s*(\d+)\s*\)|(\d+)\s*/\s*(\d+)"
    r"|\(\s*([+-]?" + _NUM + r")\s*([+-])\s*(" + _NUM + r")\s*i\s*\)|(" + _NUM + ")"
)
# A term up to its ket, [sign] [coef ['*']], each token after optional whitespace.
# It reads the fraction terms and places every syntax error.
_HEAD_RE = re.compile(r"\s*(?:([+-])\s*)?(?:(" + _COEF + r")\s*(?:\*\s*)?)?")
_KET_RE = re.compile(r"\|([01]+)>")

_CHUNK = 1 << 16  # characters lexed at a time, up to the next '>'

# Number runs: digits, '.', 'e'/'E' and an exponent's sign, whose high bit is
# set first (0xAB, 0xAD) so that translate can tell it from a term's sign.
# Bytes 0x80-0x89 stand in for the Unicode digits 0-9 of a non-ASCII chunk.
_NUMBER_BYTES = b"0123456789.eE" + bytes(range(0x80, 0x8A)) + b"\xab\xad"


def _table(default, frm, to):
    """256-byte translation table: byte ``frm[i]`` to ``to[i]``, every other byte to ``default``."""
    table = bytearray(default * 256)
    for f, t in zip(frm, to):
        table[f] = t
    return bytes(table)


# The lexer's byte classes: a number byte becomes '#', whitespace (Python's
# Unicode whitespace below 0x80) ' ', the grammar's other characters stay as
# they are and any other byte becomes '?'.
_SPACES = bytes(c for c in range(0x80) if chr(c).isspace())
_GRAMMAR = b"+-|>()/*isqrt"
_CLASSES = _table(
    b"?",
    _NUMBER_BYTES + _SPACES + _GRAMMAR,
    b"#" * len(_NUMBER_BYTES) + b" " * len(_SPACES) + _GRAMMAR,
)
# The numbers as float() reads them, every other byte a space.
_NUMBERS = _table(b" ", _NUMBER_BYTES, b"0123456789.eE0123456789+-")
# A term's skeleton up to its '>', with each number run one '#' and each
# whitespace run one ' '.  Groups: the sign, the coefficient, the real
# part's sign and the operator of a complex one, and a fraction, whose
# digit runs _HEAD_RE checks.
_SHAPE_RE = re.compile(
    rb" ?(?:([+-]) ?)?(?:(#|\( ?([+-]?)# ?([+-]) ?# ?i ?\)|(# ?/ ?(?:sqrt\( ?# ?\)|#))) ?(?:\* ?)?)?\|#"
)
_BARE, _DECIMAL, _COMPLEX, _FRACTION = range(4)
_FLOATS = np.array([0, 1, 2, 0])  # numbers float() reads in a term of each form


def _shape_row(shape):
    """(form, signed, real part negated, imaginary part negated) of a term; form -1 if invalid."""
    m = _SHAPE_RE.fullmatch(shape)
    if m is None:
        return (-1, 0, 0, 0)
    sign, coef, re_sign, op, fraction = m.groups()
    form = _BARE if coef is None else _COMPLEX if op else _FRACTION if fraction else _DECIMAL
    negated = sign == b"-"
    return (form, sign is not None, negated ^ (re_sign == b"-"), negated ^ (op == b"-"))


def _not_bits(codes):
    """Mask of the byte codes that are not an ASCII '0' or '1'."""
    return codes | 1 != ord("1")


def _stand_in_bytes(chunk):
    """One byte per character of a non-ASCII ``chunk``: ASCII as it is, and any
    other character by its class, whitespace ' ', a digit d the byte 0x80 + d,
    anything else 0xFF."""
    points = np.frombuffer(chunk.encode("utf-32-le", "surrogatepass"), np.uint32)
    wide = points >= 0x80
    distinct, where = np.unique(points[wide], return_inverse=True)
    chars = map(chr, distinct.tolist())
    codes = np.array([ord(" ") if c.isspace() else 0x80 + int(c) if c.isdecimal() else 0xFF for c in chars], np.uint8)
    out = points.astype(np.uint8)
    out[wide] = codes[where]
    return out.tobytes()


def _ratio(root, num, den, pos):
    """``1/sqrt(root)`` or ``num/den`` for the coefficient starting at ``pos``."""
    try:
        if root is not None:
            radicand = int(root)
            if not radicand:
                raise KetSyntaxError("zero radicand in 1/sqrt(...)", pos)
            # A radicand past the float range is shifted by an even power of two and the
            # root scaled back; a result below the normal range is refused like one past it.
            half = max(radicand.bit_length() - 1022, 0) // 2
            value = math.ldexp(1.0 / math.sqrt(radicand >> 2 * half), -half)
            if value < sys.float_info.min:
                raise OverflowError
            return complex(value)
        if not int(den):
            raise KetSyntaxError("zero denominator in fraction", pos)
        return complex(int(num) / int(den))
    except (OverflowError, ValueError):  # past the float range or int's digit limit
        raise ValidationError(f"number too large in coefficient (at position {pos})") from None


def _term_error(text, pos, first):
    """Raise the KetSyntaxError for the term that does not match at ``pos``."""
    m = _HEAD_RE.match(text, pos)
    sign, coef, root, num, den = m.group(1, 2, 3, 4, 5)
    if sign is None and not first:
        raise KetSyntaxError("expected '+', '-' or end of input", m.start(2) if coef else m.end())
    if coef is None and sign is None and m.end() == len(text):
        raise KetSyntaxError("empty expression", m.end())
    if coef is None and not text.startswith("|", m.end()):
        raise KetSyntaxError("expected a coefficient or '|'", m.end())
    if root or num:
        _ratio(root, num, den, m.start(2))
    raise KetSyntaxError("expected '|bits>'", m.end())


def _read_chunk(text, start, stop, k0, width):
    """Labels, real parts, imaginary parts and bit count of the terms in ``text[start:stop]``.

    The chunk ends just after a '>' or at the end of the text, so no term
    straddles two chunks.  ``k0`` terms precede it, all of ``width`` bits
    (None when ``k0`` is 0).  The error of the first failing term is
    raised, in the order the terms are read: within a term its syntax,
    then a fraction's value, then its bit count.

    The temporaries are a few bytes per character of the chunk and a few
    words per term, so they grow with the chunk's longest term and its
    term count rather than staying within ``_CHUNK``: a single 5 MB
    coefficient, or 200000 short terms, take tens of MiB.
    """
    chunk = text[start:stop]
    raw = chunk.encode("ascii") if chunk.isascii() else _stand_in_bytes(chunk)
    if b"e" in raw or b"E" in raw:
        buf = bytearray(raw)
        arr = np.frombuffer(buf, np.uint8)
        exp = np.flatnonzero((arr[:-1] | 0x20) == ord("e")) + 1
        arr[exp[(arr[exp] == ord("+")) | (arr[exp] == ord("-"))]] |= 0x80
        raw = bytes(buf)
    cls = np.frombuffer(raw.translate(_CLASSES), np.uint8)
    keep = np.ones(cls.size, dtype=bool)  # all but the second, third, ... byte of a '#' or ' ' run
    np.not_equal(cls[1:], cls[:-1], out=keep[1:])
    keep[1:] |= cls[1:] > ord("#")
    pieces = cls[keep].tobytes().split(b">")
    # Each term that parses has one '|' and ends at a '>', so up to the first
    # one that does not, the '|' of term k is marks[2k] and its '>' marks[2k + 1].
    marks = np.flatnonzero((cls == ord("|")) | (cls == ord(">")))

    def piece_start(k):
        return start + (int(marks[2 * k - 1]) + 1 if k else 0)

    # Piece k < n is term k without its '>'; piece n is the text after the last '>'.
    n = len(pieces) - 1
    seen = {}  # each skeleton and the first term that has it, checked once
    same = np.fromiter(map(seen.setdefault, pieces, range(n)), np.intp, n)
    rows = np.zeros((n, 4), dtype=np.int8)
    for shape, k in seen.items():
        rows[k] = _shape_row(shape)
    form, signed, flip_re, flip_im = rows[same].T
    bad = (form < 0) | (signed == 0)
    if k0 == 0 and n:
        bad[0] = form[0] < 0  # the first term of the text needs no sign
    fail = len(pieces)  # the first piece that does not parse, if any
    if bad.any():
        fail = int(bad.argmax())
    elif stop == len(text) and (pieces[n].strip() or not n + k0):
        fail = n  # text after the last term, or no term at all
    if k0 == 0 and fail and marks[1] - marks[0] - 1 > MAX_QUBITS:
        fail = 1  # a first term over the cap is read alone, and its width raised once it parses

    # float() reads every number run but the bits and the fractions' digits.
    numbers = np.frombuffer(bytearray(raw.translate(_NUMBERS)), np.uint8)
    fractions = {}
    for k in np.flatnonzero(form[:fail] == _FRACTION).tolist():
        head = _HEAD_RE.match(text, piece_start(k))
        if head.group(3, 4) == (None, None) or not text.startswith("|", head.end()):
            fail = k  # a run is not all digits, or the root's numerator is not '1'
            break
        fractions[k] = (*head.group(3, 4, 5), head.start(2))
        numbers[head.start(2) - start : head.end(2) - start] = ord(" ")

    ok = min(fail, n)  # the terms that may parse
    if k0 + ok == 0:
        _term_error(text, start, True)
    bar, gt = marks[: 2 * ok : 2], marks[1 : 2 * ok : 2]
    lens = gt - bar - 1
    codes = np.frombuffer(raw, np.uint8)
    if k0 == 0:
        width = int(lens[0])
    wrong = np.flatnonzero(lens != width)
    other = int(wrong[0]) if wrong.size else ok  # the first term of another bit count
    at = (bar[:other] + 1)[:, None] + np.arange(width)
    bits = codes[at]
    if _not_bits(bits).any():
        fail = int(_not_bits(bits).any(axis=1).argmax())
    elif other < ok and _not_bits(codes[bar[other] + 1 : gt[other]]).any():
        fail = other
    numbers[at] = ord(" ")
    nf = _FLOATS[form[: min(fail, other + 1)]]
    tokens = numbers.tobytes().split()[: int(nf.sum())]
    try:
        floats = np.fromiter(map(float, tokens), np.float64, len(tokens))
    except ValueError:
        for j, token in enumerate(tokens):
            try:
                float(token)
            except ValueError:
                fail = min(fail, int(np.searchsorted(np.cumsum(nf), j, "right")))
                break

    ok = min(fail, n)
    re_parts = np.ones(ok)
    for k, args in fractions.items():
        if k < ok and k <= other:  # a term's value is read before its bit count is checked
            re_parts[k] = _ratio(*args).real
    if ok:  # the first term's width, after its syntax, bits and value
        _check_qubit_cap(width)
    if other < ok:
        raise KetSyntaxError(f"ket has {lens[other]} bits, earlier kets have {width}", start + int(bar[other]))
    if fail < len(pieces):
        _term_error(text, piece_start(fail), k0 + fail == 0)

    first = np.cumsum(nf) - nf  # each term's first float
    re_parts[nf > 0] = floats[first[nf > 0]]
    im_parts = np.zeros(n)
    im_parts[nf == 2] = floats[first[nf == 2] + 1]
    np.negative(re_parts, out=re_parts, where=flip_re != 0)
    np.negative(im_parts, out=im_parts, where=flip_im != 0)
    labels = (bits & 1) @ (1 << np.arange(width - 1, -1, -1))
    return labels, re_parts, im_parts, width


def parse_ket(text: str, *, norm: str = "check") -> QubitState:
    """Parse a ket expression into a :class:`QubitState`.

    All kets must have the same number of bits; amplitudes of repeated
    labels are summed.  ``norm`` is the :class:`QubitState` policy, with
    more slack under ``"check"``: the squared norm of the parsed vector
    must be within ``PARSE_NORM_SLACK`` of 1, and the residual is then
    rescaled away as under ``"renormalize"`` (no-op when already within
    ``NORM_TOL``, so printing and reparsing a valid state is exact).
    ``"renormalize"`` rescales any nonzero finite vector and ``"skip"``
    keeps the parsed amplitudes as they are.  Every rescale keeps signed
    zeros, so a ``-0.0`` part stays ``-0.0`` under each policy.

    Raises
    ------
    KetSyntaxError
        On malformed text, with the offending position.
    SizeCapError
        When the kets have more than ``MAX_QUBITS`` bits.
    ValidationError
        On a zero vector, a non-finite amplitude, a coefficient with a
        number too large for a float, or a norm that fails the policy.
    """
    parts = []
    start = k0 = 0
    width = None
    while True:
        stop = text.find(">", start + _CHUNK) + 1 or len(text)
        labels, re_parts, im_parts, width = _read_chunk(text, start, stop, k0, width)
        parts.append((labels, re_parts, im_parts))
        k0 += labels.size
        if stop == len(text):
            break
        start = stop
    labels, re_parts, im_parts = (np.concatenate(p) for p in zip(*parts))
    values = np.empty(labels.size, dtype=np.complex128)
    values.real, values.imag = re_parts, im_parts

    vec = np.zeros(2**width, dtype=np.complex128)
    # The first value of a label is kept as it is, signed zeros included,
    # and the later ones are added to it in text order.
    first = np.unique(labels, return_index=True)[1]
    later = np.ones(labels.size, dtype=bool)
    later[first] = False
    vec[labels[first]] = values[first]
    with np.errstate(all="ignore"):
        np.add.at(vec, labels[later], values[later])
    if not vec.any():
        raise ValidationError("expression sums to the zero vector")
    if norm == "check":
        sq = _inner(vec, vec)
        if abs(sq - 1.0) > PARSE_NORM_SLACK:
            raise ValidationError(
                f"expression is not normalized: sum |amp|^2 = {sq!r} "
                "(renormalize to rescale)"
            )
        elif abs(sq - 1.0) > NORM_TOL:
            norm = "renormalize"
    return QubitState(vec, norm=norm)


def _unit_vector(vec):
    """``vec / sqrt(sum |amp|^2)`` for a nonzero finite contiguous vector.

    When the squared norm underflows to 0 or overflows, the real and
    imaginary parts are first divided by the largest of their magnitudes.
    They are divided as floats: complex division multiplies by ``1/peak``,
    which overflows when ``peak`` is subnormal.  The parts are then scaled
    by ``1/norm`` as floats: complex division's bits, but -0.0 stays -0.0.
    """
    sq = _inner(vec, vec)
    if not 0.0 < sq < math.inf:
        parts = vec.view(np.float64)
        peak = np.max(np.abs(parts))
        if peak == 0.0:
            raise ValidationError("cannot renormalize the zero vector")
        vec = (parts / peak).view(np.complex128)
        sq = _inner(vec, vec)
    return (vec.view(np.float64) * (1.0 / math.sqrt(sq))).view(np.complex128)


def _check_order_cap(n):
    """Raise SizeCapError when n qubits exceed the hypermatrix order cap."""
    if n > MAX_ORDER:
        raise SizeCapError(
            f"hypermatrices are capped at order {MAX_ORDER}, got {n} qubits"
        )


def state_to_hypermatrix(state: QubitState) -> Hypermatrix:
    """Row-major reshape of the amplitudes into an order-n qubit cube.

    Raises
    ------
    SizeCapError
        When the state has more than ``tensor.MAX_ORDER`` qubits.
    """
    n = state.num_qubits
    _check_order_cap(n)
    return Hypermatrix(state.amplitudes.reshape((2,) * n))


def hypermatrix_to_state(H: Hypermatrix) -> QubitState:
    """Inverse isomorphism; every mode must have length 2."""
    if any(d != 2 for d in H.dims):
        raise ValidationError(f"every mode must have length 2, got dims {H.dims}")
    return QubitState(H.ravel())


def state_from_json(obj, *, norm: str = "check") -> QubitState:
    """State from ``{"num_qubits", "amplitudes"}`` JSON, under the QubitState ``norm`` policy."""
    if not isinstance(obj, dict):
        raise ValidationError("state JSON needs 'num_qubits' and 'amplitudes'")
    n = _json_int(obj.get("num_qubits"), "num_qubits")
    _check_qubit_cap(n)
    amps = _complex_from_json(obj.get("amplitudes"), 2**n, "amplitudes")
    return QubitState(amps, norm=norm)


def validate_unitary(U) -> np.ndarray:
    """Check that U is a 2x2 unitary with finite entries."""
    arr = np.asarray(U, dtype=np.complex128)
    if arr.shape != (2, 2):
        raise ValidationError(f"expected a 2x2 matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():  # NaN would pass the defect test below
        raise ValidationError("matrix entries must be finite")
    defect = float(np.max(np.abs(arr.conj().T @ arr - np.eye(2))))
    if defect > _UNITARY_TOL:
        raise ValidationError(f"matrix is not unitary (defect {defect:.3e})")
    return arr


def apply_local_unitaries(state: QubitState, unitaries) -> QubitState:
    """Apply one 2x2 unitary per qubit, qubit k getting ``unitaries[k-1]``.

    Implemented directly on the amplitude vector, one qubit at a time,
    independently of the hypermatrix machinery.
    """
    n = state.num_qubits
    mats = list(unitaries)
    if len(mats) != n:
        raise ValidationError(f"need {n} matrices, got {len(mats)}")
    mats = [validate_unitary(U) for U in mats]
    psi = state.amplitudes
    for k, U in enumerate(mats):
        block = psi.reshape(2**k, 2, -1)
        psi = np.einsum("ab,ibj->iaj", U, block).reshape(-1)
    return QubitState(psi)


def n_tangle(state: QubitState, via: str = "spinflip") -> float:
    """n-tangle |<state| sigma_y^(2n) |state*>|^2 of a 2n-qubit state.

    The spin-flip overlap is (-1)^n times the conjugate of twice
    ``hdet_fast(state)``, so the n-tangle is 4 |hdet_fast(state)|^2.
    ``via`` ('spinflip' or 'hdet') is kept because the CLI echoes it;
    both values compute that one expression.
    """
    if via not in ("spinflip", "hdet"):
        raise ValidationError(f"via must be 'spinflip' or 'hdet', got {via!r}")
    return float(4.0 * abs(hdet_fast(state)) ** 2)


def _rng(seed):
    """``np.random.default_rng(seed)``; a seed it rejects raises ValidationError."""
    try:
        return np.random.default_rng(seed)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"invalid seed {seed!r}: {exc}") from None


def random_state(num_qubits: int, seed) -> QubitState:
    """Normalized state with i.i.d. complex Gaussian amplitudes."""
    num_qubits = _int_arg(num_qubits, "num_qubits", "a positive integer", 1)
    _check_qubit_cap(num_qubits)
    rng = _rng(seed)
    vec = rng.standard_normal(2**num_qubits) + 1j * rng.standard_normal(2**num_qubits)
    return QubitState(vec, norm="renormalize")


def random_su2(seed) -> np.ndarray:
    """Haar-random 2x2 special unitary."""
    rng = _rng(seed)
    raw = rng.standard_normal(4)
    a = complex(raw[0], raw[1])
    b = complex(raw[2], raw[3])
    scale = math.hypot(abs(a), abs(b))
    a, b = a / scale, b / scale
    U = np.array([[a, -b.conjugate()], [b, a.conjugate()]])
    U.setflags(write=False)
    return U
