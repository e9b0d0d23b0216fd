"""Pure n-qubit states, ket expression parsing, and the n-tangle.

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
17 significant digits parse back exactly.

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
_HEAD = r"\s*(?:([+-])\s*)?(?:(" + _COEF + r")\s*(?:\*\s*)?)?"
_HEAD_RE = re.compile(_HEAD)
# The empty alternative matches wherever no term does, so finditer never skips
# text: the first match without bits is the first offset no term covers.
_TERM_RE = re.compile(_HEAD + r"\|([01]+)>|")
_KET_RE = re.compile(r"\|([01]+)>")


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
