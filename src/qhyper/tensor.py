"""Dense complex hypermatrices and the multilinear algebra on them.

An order-N hypermatrix is an element of C^{n_1 x ... x n_N} stored as an
immutable, row-major complex array.  Modes are numbered 1..N in every
public signature; zero-based indexing is an implementation detail.

The layout convention is load-bearing: mode k is axis k-1 of the
row-major array, so entry (i_1, ..., i_N), with zero-based indices,
sits at flat position

    sum_k i_k * prod_{m > k} n_m

and the last mode varies fastest.  For a qubit hypermatrix this makes
qubit 1 the most significant bit of the basis label.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, ValidationError

__all__ = [
    "MAX_ORDER",
    "MAX_MODE_LENGTH",
    "Hypermatrix",
    "ModePermutation",
    "multilinear_multiply",
    "mode_permute",
    "frobenius_norm",
]

MAX_ORDER = 16
MAX_MODE_LENGTH = 64
_BLOCK_SIDE = 8  # most rows, and most columns, of one Kronecker block in multilinear_multiply


class Hypermatrix:
    """Immutable dense complex tensor with explicit mode lengths.

    Parameters
    ----------
    data : array_like
        Anything ``np.asarray`` accepts; converted to complex128 and
        copied.  The number of array dimensions becomes the order.

    Raises
    ------
    ValidationError
        If the data do not convert to a complex array, the order is
        outside 1..16, any mode length is outside 1..64, or any entry is
        non-finite.
    """

    __slots__ = ("_data",)

    def __init__(self, data):
        arr = _complex_array(data, "hypermatrix entries", copy=True)
        if arr.ndim < 1 or arr.ndim > MAX_ORDER:
            raise ValidationError(f"order must be in 1..{MAX_ORDER}, got {arr.ndim}")
        _check_mode_lengths(arr.shape)
        if not np.isfinite(arr).all():
            raise ValidationError("entries must be finite")
        arr.setflags(write=False)
        self._data = arr

    @classmethod
    def _wrap(cls, arr):
        # Trusted path: own an array built from checked inputs, checking nothing again.
        obj = cls.__new__(cls)
        obj._data = np.ascontiguousarray(arr, dtype=np.complex128)
        obj._data.setflags(write=False)
        return obj

    @property
    def data(self) -> np.ndarray:
        """Read-only complex128 view of the entries."""
        return self._data

    @property
    def dims(self) -> tuple[int, ...]:
        return self._data.shape

    @property
    def order(self) -> int:
        return self._data.ndim

    def ravel(self) -> np.ndarray:
        """Entries in row-major order (read-only view)."""
        return self._data.reshape(-1)

    def __repr__(self):
        return f"Hypermatrix(dims={self.dims})"


def _complex_array(data, what, copy=False):
    """``data`` as a complex128 array: a fresh row-major copy when ``copy``,
    else ``np.asarray``'s (a view when ``data`` already is one).  Data NumPy
    cannot convert, a string entry or a ragged nested list, raise
    ValidationError in place of NumPy's own error."""
    try:
        if copy:
            return np.array(data, dtype=np.complex128, order="C")
        return np.asarray(data, dtype=np.complex128)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"cannot convert {what} to a complex array: {exc}") from None


def _check_mode_lengths(lengths):
    for k, n in enumerate(lengths, start=1):
        if n < 1 or n > MAX_MODE_LENGTH:
            raise ValidationError(
                f"mode {k} length must be in 1..{MAX_MODE_LENGTH}, got {n}"
            )


def multilinear_multiply(matrices, H: Hypermatrix) -> Hypermatrix:
    """Multilinear matrix multiplication (A_1, A_2, ..., A_N) * H.

    The result has entry

        H'_{i_1 ... i_N} = sum_{j_1 ... j_N}
            (A_1)_{i_1 j_1} ... (A_N)_{i_N j_N} H_{j_1 ... j_N},

    i.e. matrix A_k acts on mode k.  A_k must have exactly ``H.dims[k-1]``
    columns; its row count, in 1..64, becomes the new mode-k length.

    A mode-k product by A followed by a mode-(k+1) product by B is one
    product by the Kronecker product A (x) B on the merged mode (Kolda &
    Bader, SIAM Review 51, 2009, section 2.5).  Each run of consecutive
    modes is merged into one such block for as long as the block keeps at
    most 8 rows and at most 8 columns, so N qubit modes take about N/3
    passes of 8x8 products, each a swap copy and one matrix product.

    Parameters
    ----------
    matrices : sequence of array_like
        One matrix per mode, in mode order.
    H : Hypermatrix

    Returns
    -------
    Hypermatrix

    Raises
    ------
    DimensionMismatchError
        If the matrix count is not the order, a matrix is not 2-D, or its
        column count is not its mode length.
    ValidationError
        If ``matrices`` is not a sequence, a matrix does not convert to a
        complex array or has non-finite entries, or a row count is outside
        1..64, all checked before any product is formed; or the product overflows.
    """
    try:
        numbered = enumerate(matrices, 1)
    except TypeError:
        raise ValidationError(
            f"matrices must be a sequence of matrices, got {type(matrices).__name__}"
        ) from None
    mats = []
    for k, A in numbered:
        A = _complex_array(A, f"matrix for mode {k}")
        if A.ndim != 2:
            raise DimensionMismatchError(f"matrix for mode {k} must be a matrix, got ndim {A.ndim}")
        if not np.isfinite(A).all():
            raise ValidationError(f"matrix for mode {k} has non-finite entries")
        mats.append(A)
    if len(mats) != H.order:
        raise DimensionMismatchError(
            f"need {H.order} matrices for an order-{H.order} hypermatrix, got {len(mats)}"
        )
    for k, A in enumerate(mats):
        if A.shape[1] != H.dims[k]:
            raise DimensionMismatchError(
                f"matrix for mode {k + 1} has {A.shape[1]} columns, mode length is {H.dims[k]}"
            )
    _check_mode_lengths([A.shape[0] for A in mats])
    return Hypermatrix._wrap(_multiply([A[None] for A in mats], H.data[None])[0])


@np.errstate(all="ignore")  # an overflow raises ValidationError below, not NumPy's warning
def _multiply(mats, data):
    """:func:`multilinear_multiply` over a (b, *dims) stack of b hypermatrices, row i
    by the matrices ``mats[k][i]``: ``mats`` holds one (b, rows_k, dims[k]) array
    per mode (a list, or one (N, b, rows, cols) array).  Returns the (b, *rows)
    stack of products.  The matrices are trusted; only the product is checked,
    since finite ones can overflow.

    Every step runs on the whole stack: each Kronecker block is built for all b
    rows by one broadcast, and each pass is one stacked matmul, which NumPy
    runs as one matrix product per row, so a row's bits do not depend on b.
    """
    # block[:, (i, i'), (j, j')] = K[:, i, j] * A[:, i', j'], all rows at once.
    blocks = [mats[0]]
    for A in mats[1:]:
        K = blocks[-1]
        rows, cols = K.shape[1] * A.shape[1], K.shape[2] * A.shape[2]
        if rows <= _BLOCK_SIDE and cols <= _BLOCK_SIDE:
            blocks[-1] = (K[:, :, None, :, None] * A[:, None, :, None, :]).reshape(-1, rows, cols)
        else:
            blocks.append(A)
    # Step k is B_k @ X with X a contiguous (n_k, rest) matrix per row, n_k the length
    # of merged mode k.  New lengths pile up in front in reverse, so merged mode k+1
    # moves to the front in runs of n_{k+2}...n_last entries; the last reshape splits
    # the merged modes.
    b = len(data)
    out, done, rest = data, 1, data[0].size  # done = m_1 ... m_k
    for B in blocks:
        n = B.shape[2]
        rest //= n
        out = B @ out.reshape(b, done, n, rest).swapaxes(1, 2).reshape(b, n, -1)
        done *= B.shape[1]
    out = out.reshape([b] + [B.shape[1] for B in reversed(blocks)])
    out = out.transpose(0, *range(out.ndim - 1, 0, -1))
    if not np.isfinite(out).all():
        raise ValidationError("the product has non-finite entries")
    return out.reshape([b] + [A.shape[1] for A in mats])


@dataclass(frozen=True)
class ModePermutation:
    """Permutation of the modes 1..N.

    ``mapping[j-1]`` is the original mode whose index occupies slot j of
    the permuted hypermatrix: the entry of the result at position
    (i_{pi(1)}, ..., i_{pi(N)}) equals the entry of the input at
    (i_1, ..., i_N), where pi(j) = mapping[j-1].
    """

    mapping: tuple[int, ...]

    def __post_init__(self):
        mapping = tuple(_int_arg(p, "mode") for p in self.mapping)
        object.__setattr__(self, "mapping", mapping)
        if sorted(mapping) != list(range(1, len(mapping) + 1)):
            raise ValidationError(f"not a permutation of 1..{len(mapping)}: {mapping}")

    @property
    def order(self) -> int:
        return len(self.mapping)


def mode_permute(H: Hypermatrix, perm) -> Hypermatrix:
    """Generalized transpose: permute the modes of H by ``perm``.

    ``perm`` may be a :class:`ModePermutation` or a sequence of one-based
    mode numbers.  The result has dims (n_{pi(1)}, ..., n_{pi(N)}) and its
    entry at (i_{pi(1)}, ..., i_{pi(N)}) equals H at (i_1, ..., i_N).
    """
    if not isinstance(perm, ModePermutation):
        perm = ModePermutation(tuple(perm))
    if perm.order != H.order:
        raise DimensionMismatchError(
            f"permutation acts on {perm.order} modes, hypermatrix has {H.order}"
        )
    axes = [p - 1 for p in perm.mapping]
    return Hypermatrix._wrap(np.transpose(H.data, axes))


def frobenius_norm(H: Hypermatrix) -> float:
    """Frobenius norm, the square root of sum |H_i|^2."""
    return _norm(H.data)


def _norm(u):
    """``sqrt(sum |u_i|^2)`` for a contiguous complex128 array, exact at the ends
    of the float range.  The sum is taken first; only when it overflows, or
    underflows to zero or a subnormal, are the parts divided by a power of two
    near their peak (exact) and the root multiplied back.  A norm past the
    float range is inf."""
    sq = _inner(u, u)
    if sys.float_info.min <= sq < math.inf:
        return math.sqrt(sq)
    parts = u.view(np.float64)
    e = math.frexp(float(np.abs(parts).max()))[1]
    scaled = np.ldexp(parts, -e).view(np.complex128)
    try:
        return math.ldexp(math.sqrt(_inner(scaled, scaled)), e)
    except OverflowError:
        return math.inf


def _inner(u, v):
    """``sum(conj(u) * v)`` over all entries of two complex128 arrays of one
    shape, or the real ``sum(|u|^2)`` when ``u is v``: every norm and inner
    product of the package (``hosvd._mode_sweep`` sums the Gram entries).
    The sums run in NumPy's einsum loops over float64 views, never in BLAS,
    so their bits do not depend on the BLAS thread count, and the entries
    are not copied.
    """
    x = u.reshape(-1, u.shape[-1], 1).view(np.float64)  # (rows, cols, re/im)
    if u is v:
        return float(np.einsum("ijk,ijk->", x, x))
    y = v.reshape(-1, v.shape[-1], 1).view(np.float64)
    # The imaginary part pairs each part of u with the other part of v; C order
    # keeps the pairing outermost, so each inner loop runs along the entries.
    ri, ir = np.einsum("ijk,ijk->k", x, y[..., ::-1], order="C").tolist()
    return complex(np.einsum("ijk,ijk->", x, y), ri - ir)


def _int_arg(value, what, kind="an integer", low=-math.inf) -> int:
    """A count, index or mode number of at least ``low`` as an ``int``: an ``int``
    or NumPy integer.  Anything else, bools, floats and strings included, raises
    ValidationError("``what`` must be ``kind``")."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
        raise ValidationError(f"{what} must be {kind}, got {value!r}")
    return int(value)


def _json_int(value, what) -> int:
    """A non-negative integer header field such as ``num_qubits``."""
    return _int_arg(value, what, "a non-negative integer", 0)


_CHUNK = 1024  # entries rendered per write


def _write_json(payload, fh) -> None:
    """Write ``json.dumps(payload, indent=2)`` to ``fh``, where ``payload`` may
    hold non-empty complex ndarrays in place of lists of ``{"re", "im"}`` entries.

    Each array becomes those entries, in row-major order, rendered by a ``%r``
    template (the float ``repr`` that ``json`` writes) one chunk at a time, so
    neither the dict list nor the whole text is held.  Anything else that
    ``json`` cannot write raises ``json``'s own ``TypeError``.
    """
    arrays = []

    def claim(obj):  # leaves "\0" where the array goes; no payload string may be "\0"
        if isinstance(obj, np.ndarray) and obj.dtype.kind == "c":
            arrays.append(obj)
            return "\0"
        return json.JSONEncoder().default(obj)

    pieces = json.dumps(payload, indent=2, default=claim).split('"\\u0000"')
    for text, arr in zip(pieces, arrays):
        line = text[text.rfind("\n") + 1 :]
        outer = line[: len(line) - len(line.lstrip(" "))]
        sep, pad = ",\n  " + outer, "    " + outer
        entry = f'{{\n{pad}"re": %r,\n{pad}"im": %r\n  {outer}}}'
        parts = np.ascontiguousarray(arr, dtype=np.complex128).reshape(-1).view(np.float64)
        fh.write(text + "[\n  " + outer)
        for start in range(0, parts.size, 2 * _CHUNK):
            chunk = parts[start : start + 2 * _CHUNK].tolist()
            fh.write((sep if start else "") + sep.join([entry] * (len(chunk) // 2)) % tuple(chunk))
        fh.write("\n" + outer + "]")
    fh.write(pieces[-1])


def _complex_from_json(entries, count, what="entries") -> np.ndarray:
    """``count`` ``{"re", "im"}`` entries as a complex128 vector.

    Each entry must be an object whose ``re`` and ``im`` are finite JSON
    numbers (bools, strings, nulls and nested values are rejected).  The
    parts are stored as given, so the result is bit-exact, signed zeros
    included.
    """
    if not isinstance(entries, list) or len(entries) != count:
        raise ValidationError(f"expected a list of {count} {what}")
    try:
        re = [e["re"] for e in entries]
        im = [e["im"] for e in entries]
    except (TypeError, KeyError):
        raise ValidationError(f"each of the {what} needs 're' and 'im'") from None
    if not set(map(type, re)).union(map(type, im)) <= {float, int}:
        raise ValidationError(f"'re' and 'im' of the {what} must be numbers")
    out = np.empty(count, dtype=np.complex128)
    try:
        out.real = re
        out.imag = im
    except OverflowError:
        raise ValidationError(f"{what} out of floating-point range") from None
    if not np.isfinite(out).all():
        raise ValidationError(f"{what} must be finite")
    return out
