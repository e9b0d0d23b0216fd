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
    "tensor_to_json",
    "matrix_to_json",
]

MAX_ORDER = 16
MAX_MODE_LENGTH = 64


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
        If the order is outside 1..16, any mode length is outside 1..64,
        or any entry is non-finite.
    """

    __slots__ = ("_data",)

    def __init__(self, data):
        arr = np.array(data, dtype=np.complex128, order="C")
        self._data = _validated(arr)

    @classmethod
    def _wrap(cls, arr):
        # Internal fast path: take ownership of a freshly built array.
        obj = cls.__new__(cls)
        obj._data = _validated(np.ascontiguousarray(arr, dtype=np.complex128))
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


def _validated(arr):
    if arr.ndim < 1 or arr.ndim > MAX_ORDER:
        raise ValidationError(f"order must be in 1..{MAX_ORDER}, got {arr.ndim}")
    for k, n in enumerate(arr.shape, start=1):
        if n < 1 or n > MAX_MODE_LENGTH:
            raise ValidationError(
                f"mode {k} length must be in 1..{MAX_MODE_LENGTH}, got {n}"
            )
    if not np.isfinite(arr).all():
        raise ValidationError("entries must be finite")
    arr.setflags(write=False)
    return arr


def _as_matrix(A, which):
    arr = np.asarray(A, dtype=np.complex128)
    if arr.ndim != 2:
        raise DimensionMismatchError(f"{which} must be a matrix, got ndim {arr.ndim}")
    if not np.isfinite(arr).all():
        raise ValidationError(f"{which} has non-finite entries")
    return arr


def multilinear_multiply(matrices, H: Hypermatrix) -> Hypermatrix:
    """Multilinear matrix multiplication (A_1, A_2, ..., A_N) * H.

    The result has entry

        H'_{i_1 ... i_N} = sum_{j_1 ... j_N}
            (A_1)_{i_1 j_1} ... (A_N)_{i_N j_N} H_{j_1 ... j_N},

    i.e. matrix A_k acts on mode k.  A_k must have exactly ``H.dims[k-1]``
    columns; its row count becomes the new mode-k length.

    Parameters
    ----------
    matrices : sequence of array_like
        One matrix per mode, in mode order.
    H : Hypermatrix

    Returns
    -------
    Hypermatrix
    """
    mats = [_as_matrix(A, f"matrix for mode {k}") for k, A in enumerate(matrices, 1)]
    if len(mats) != H.order:
        raise DimensionMismatchError(
            f"need {H.order} matrices for an order-{H.order} hypermatrix, got {len(mats)}"
        )
    for k, A in enumerate(mats):
        if A.shape[1] != H.dims[k]:
            raise DimensionMismatchError(
                f"matrix for mode {k + 1} has {A.shape[1]} columns, mode length is {H.dims[k]}"
            )
    out = H.data
    for k, A in enumerate(mats):
        # Contract A with mode k; tensordot puts the new index first.
        out = np.tensordot(A, out, axes=(1, k))
        out = np.moveaxis(out, 0, k)
    return Hypermatrix._wrap(out)


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
        mapping = tuple(int(p) for p in self.mapping)
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
    return float(np.linalg.norm(H.data.reshape(-1)))


def tensor_to_json(H: Hypermatrix) -> dict:
    """JSON form: ``{"dims": [...], "entries": [{"re": .., "im": ..}, ...]}``.

    Entries are listed in row-major order.
    """
    return {"dims": list(H.dims), "entries": _complex_to_json(H.data)}


def matrix_to_json(M) -> dict:
    """JSON form: ``{"rows": r, "cols": c, "entries": [...]}`` row-major."""
    arr = _as_matrix(M, "matrix")
    return {"rows": arr.shape[0], "cols": arr.shape[1], "entries": _complex_to_json(arr)}


def _json_int(value, what) -> int:
    """A non-negative integer header field such as ``num_qubits``."""
    try:
        n = int(value)
    except (TypeError, ValueError, OverflowError):
        n = -1
    if n < 0:
        raise ValidationError(f"{what} must be a non-negative integer, got {value!r}")
    return n


def _complex_to_json(arr) -> list:
    """``[{"re": .., "im": ..}, ...]`` for the entries of ``arr`` in row-major order."""
    arr = np.ravel(arr)
    return [{"re": r, "im": i} for r, i in zip(arr.real.tolist(), arr.imag.tolist())]


def _complex_from_json(entries, count, what="entries") -> np.ndarray:
    """Inverse of :func:`_complex_to_json`: ``count`` entries as a complex128 vector.

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
