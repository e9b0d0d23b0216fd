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

``parse_ket`` reads the values in bulk, chunk by chunk, and that read
only says whether every term reads.  When one does not, one anchored
walk over the terms from the start of the text raises the first error.

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
from .tensor import (
    MAX_ORDER,
    Hypermatrix,
    _complex_array,
    _complex_from_json,
    _inner,
    _int_arg,
    _json_int,
    _norm,
)

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
        If the amplitudes do not convert to a complex array, the length
        is not a power of two at least 2, any amplitude is non-finite,
        the norm fails the policy, or ``norm`` is none of the three
        policies.
    """

    __slots__ = ("_amp",)

    def __init__(self, amplitudes, *, norm: str = "check"):
        amp = _complex_array(amplitudes, "amplitudes", copy=True).reshape(-1)
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
        """sqrt(sum |amp|^2), exact at the ends of the float range."""
        return _norm(self._amp)

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
# It places every syntax error.  The whole term, bits in group 10, reads the
# fraction terms and walks the text on an error.
_HEAD_RE = re.compile(r"\s*(?:([+-])\s*)?(?:(" + _COEF + r")\s*(?:\*\s*)?)?")
_TERM_RE = re.compile(_HEAD_RE.pattern + r"\|([01]+)>")

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
# digit runs _TERM_RE checks.
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


def _term(text, pos, first):
    """The match of the term at ``pos``, or None unless it matches ``_TERM_RE``
    and has a sign (the ``first`` term need not).  A fraction's value is then
    read, and ``_ratio`` raises if it does not read; the bits are not counted."""
    m = _TERM_RE.match(text, pos)
    if m is None or (m.group(1) is None and not first):
        return None
    root, num, den = m.group(3, 4, 5)
    if root or num:
        _ratio(root, num, den, m.start(2))
    return m


def _first_error(text):
    """Raise the error of the first term of ``text`` that fails: its syntax, sign
    and fraction value (``_term``), then its bit count or the qubit cap.  Each
    step is anchored where the last term ended: a forward search (``finditer``,
    ``search``) would retry the coefficient alternation at every position of a
    digit run, which is quadratic in the run's length."""
    pos = 0
    width = None
    while m := _term(text, pos, pos == 0):
        bits = len(m.group(10))
        if width is None:
            _check_qubit_cap(bits)
            width = bits
        elif bits != width:
            raise KetSyntaxError(f"ket has {bits} bits, earlier kets have {width}", m.start(10) - 1)
        pos = m.end()
    _term_error(text, pos, pos == 0)


def _read_chunk(text, start, stop, width):
    """Labels, real parts, imaginary parts and bit count of the terms in
    ``text[start:stop]``, read in bulk, or None if any term does not read:
    ``_first_error`` places the error then.  The chunk ends just after a '>'.
    ``width`` is the earlier terms' bit count, None for the first chunk, whose
    first term needs no sign.  A width over the cap or unlike the first term's
    gives None before the (terms x width) bit index is built.

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
    # Piece k < n is term k without its '>'; piece n, after the last '>', must be empty.
    n = len(pieces) - 1
    if not n or pieces[n]:
        return None
    seen = {}  # each skeleton and the first term that has it, checked once
    same = np.fromiter(map(seen.setdefault, pieces, range(n)), np.intp, n)
    rows = np.zeros((n, 4), dtype=np.int8)
    for shape, k in seen.items():
        rows[k] = _shape_row(shape)
    form, signed, flip_re, flip_im = rows[same].T
    if (form < 0).any() or not signed[width is None :].all():  # the text's first term needs no sign
        return None

    # Every term has one '|' and ends at a '>': the '|' of term k is marks[2k], its '>' marks[2k + 1].
    marks = np.flatnonzero((cls == ord("|")) | (cls == ord(">")))
    bar, gt = marks[::2], marks[1::2]
    lens = gt - bar - 1
    if width is None:
        width = int(lens[0])
    if width > MAX_QUBITS or (lens != width).any():
        return None
    at = (bar + 1)[:, None] + np.arange(width)
    bits = np.frombuffer(raw, np.uint8)[at]
    if _not_bits(bits).any():
        return None

    # float() reads every number run but the bits and the fractions' digits.
    numbers = np.frombuffer(bytearray(raw.translate(_NUMBERS)), np.uint8)
    numbers[at] = ord(" ")
    re_parts = np.ones(n)
    for k in np.flatnonzero(form == _FRACTION).tolist():
        m = _TERM_RE.match(text, start + int(gt[k - 1]) + 1 if k else start)
        if m is None:
            return None  # a run is not all digits, or the root's numerator is not '1'
        try:
            re_parts[k] = _ratio(*m.group(3, 4, 5), m.start(2)).real
        except (KetSyntaxError, ValidationError):
            return None
        numbers[m.start(2) - start : m.end(2) - start] = ord(" ")
    tokens = numbers.tobytes().split()
    try:
        floats = np.fromiter(map(float, tokens), np.float64, len(tokens))
    except ValueError:
        return None

    nf = _FLOATS[form]
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
    start = 0
    end = len(text.rstrip())
    width = None
    while True:
        stop = text.find(">", start + _CHUNK) + 1 or end
        chunk = _read_chunk(text, start, stop, width)
        if chunk is None:
            _first_error(text)
        *values, width = chunk
        parts.append(values)
        if stop == end:
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
    arr = _complex_array(U, "matrix")
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

    Each matrix passes :func:`validate_unitary`, so the entries of U^H U - I
    are at most d = 1e-10 and U scales a squared norm by a factor within
    1 +- 2d.  The result's squared norm keeps its bits within ``NORM_TOL``
    of 1, is rescaled to 1 when off by at most (1 + NORM_TOL)(1 + 2d)^n - 1
    (where a valid state can land), and is a ValidationError beyond that.
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
    drift = abs(_inner(psi, psi) - 1.0)
    if drift > (1.0 + NORM_TOL) * (1.0 + 2.0 * _UNITARY_TOL) ** n - 1.0:
        return QubitState(psi)  # fails the norm check and says why
    return QubitState(psi, norm="renormalize" if drift > NORM_TOL else "skip")


def n_tangle(state: QubitState, via: str = "spinflip") -> float:
    """n-tangle |<state| sigma_y^(2n) |state*>|^2 of a 2n-qubit state.

    The spin-flip overlap is (-1)^n times the conjugate of twice
    ``hdet_fast(state)``, so the n-tangle is 4 |hdet_fast(state)|^2.
    ``via`` ('spinflip' or 'hdet') is kept because the CLI echoes it;
    both values compute that one expression.
    """
    if via not in ("spinflip", "hdet"):
        raise ValidationError(f"via must be 'spinflip' or 'hdet', got {via!r}")
    h = abs(hdet_fast(state))
    if h >= 2.0**511:  # 4 h^2 >= 2^1024, past the largest float
        raise ValidationError(f"the n-tangle 4 |hdet|^2 is past the floating-point range (|hdet| = {h!r})")
    return float(4.0 * h**2)


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
