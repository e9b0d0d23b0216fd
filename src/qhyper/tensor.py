"""Dense complex hypermatrices and the multilinear algebra on them.

An order-N hypermatrix is an element of C^{n_1 x ... x n_N} stored as an
immutable, row-major complex array.  Modes are numbered 1..N in every
public signature; zero-based indexing is an implementation detail.

The layout conventions are load-bearing and fixed by the k-mode
unfolding: entry (i_1, ..., i_N) of the unfolding along mode k sits in
row i_k and column

    j = sum_{l != k} i_l * prod_{m < l, m != k} n_m

with all indices zero-based, so the first non-k mode varies fastest
along a row.  For a 2x2x2 hypermatrix H this gives

    H_(1) = [[H_111, H_121, H_112, H_122],
             [H_211, H_221, H_212, H_222]]

in one-based subscript notation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import DimensionMismatchError, ValidationError

__all__ = [
    "MAX_ORDER",
    "MAX_MODE_LENGTH",
    "Hypermatrix",
    "ModePermutation",
    "outer_product",
    "multilinear_multiply",
    "k_mode_unfold",
    "k_mode_fold",
    "mode_permute",
    "conjugate",
    "frobenius_inner",
    "frobenius_norm",
    "allclose",
    "tensor_to_json",
    "tensor_from_json",
    "matrix_to_json",
    "matrix_from_json",
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


def _check_mode(k, order):
    if not 1 <= k <= order:
        raise DimensionMismatchError(f"mode {k} out of range 1..{order}")


def _as_vector(v, which):
    arr = np.asarray(v, dtype=np.complex128)
    if arr.ndim != 1 or arr.size == 0:
        raise ValidationError(f"{which} must be a nonempty vector")
    if not np.isfinite(arr).all():
        raise ValidationError(f"{which} has non-finite entries")
    return arr


def _as_matrix(A, which):
    arr = np.asarray(A, dtype=np.complex128)
    if arr.ndim != 2:
        raise DimensionMismatchError(f"{which} must be a matrix, got ndim {arr.ndim}")
    if not np.isfinite(arr).all():
        raise ValidationError(f"{which} has non-finite entries")
    return arr


def outer_product(vectors) -> Hypermatrix:
    """Rank-one hypermatrix u_1 o u_2 o ... o u_N from N vectors.

    Entry (i_1, ..., i_N) equals the product of the i_k-th component of
    each u_k.
    """
    vecs = [_as_vector(v, f"vector {k}") for k, v in enumerate(vectors, start=1)]
    if not vecs:
        raise ValidationError("outer_product needs at least one vector")
    return Hypermatrix._wrap(reduce(np.multiply.outer, vecs))


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


def k_mode_unfold(H: Hypermatrix, k: int) -> np.ndarray:
    """Unfold H along mode k into an n_k x (prod of other lengths) matrix.

    Columns follow the convention in the module docstring: the first
    non-k mode varies fastest.
    """
    _check_mode(k, H.order)
    ax = k - 1
    rest = [i for i in range(H.order) if i != ax]
    # Reversing the remaining modes before a row-major reshape makes the
    # lowest remaining mode the fastest-varying column index.
    arr = np.transpose(H.data, [ax] + rest[::-1])
    ncols = int(np.prod([H.dims[i] for i in rest], dtype=np.int64)) if rest else 1
    return arr.reshape(H.dims[ax], ncols).copy()


def k_mode_fold(M, k: int, dims) -> Hypermatrix:
    """Inverse of :func:`k_mode_unfold` for the given target ``dims``."""
    dims = tuple(int(d) for d in dims)
    order = len(dims)
    _check_mode(k, order)
    arr = _as_matrix(M, "unfolding")
    ax = k - 1
    rest = [i for i in range(order) if i != ax]
    ncols = int(np.prod([dims[i] for i in rest], dtype=np.int64)) if rest else 1
    if arr.shape != (dims[ax], ncols):
        raise DimensionMismatchError(
            f"expected shape {(dims[ax], ncols)} for mode {k} of dims {dims}, got {arr.shape}"
        )
    perm = [ax] + rest[::-1]
    inv = [0] * order
    for pos, axis in enumerate(perm):
        inv[axis] = pos
    cube = arr.reshape([dims[ax]] + [dims[i] for i in rest[::-1]])
    return Hypermatrix._wrap(np.transpose(cube, inv))


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

    @classmethod
    def identity(cls, order: int) -> "ModePermutation":
        return cls(tuple(range(1, order + 1)))

    @property
    def order(self) -> int:
        return len(self.mapping)

    def inverse(self) -> "ModePermutation":
        inv = [0] * self.order
        for j, p in enumerate(self.mapping, start=1):
            inv[p - 1] = j
        return ModePermutation(tuple(inv))

    def compose(self, other: "ModePermutation") -> "ModePermutation":
        """Permutation equivalent to applying ``self`` first, then ``other``.

        ``mode_permute(mode_permute(H, self), other)`` equals
        ``mode_permute(H, self.compose(other))``.
        """
        if other.order != self.order:
            raise DimensionMismatchError("permutation orders differ")
        return ModePermutation(tuple(self.mapping[q - 1] for q in other.mapping))


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


def conjugate(H: Hypermatrix) -> Hypermatrix:
    """Entrywise complex conjugate."""
    return Hypermatrix._wrap(np.conj(H.data))


def frobenius_inner(H: Hypermatrix, K: Hypermatrix) -> complex:
    """Frobenius inner product <H, K> = sum conj(H_i) K_i."""
    if H.dims != K.dims:
        raise DimensionMismatchError(f"dims differ: {H.dims} vs {K.dims}")
    return complex(np.vdot(H.data, K.data))


def frobenius_norm(H: Hypermatrix) -> float:
    """Frobenius norm, the square root of sum |H_i|^2."""
    return float(np.linalg.norm(H.data.reshape(-1)))


def allclose(H: Hypermatrix, K: Hypermatrix, tol: float = 1e-10) -> bool:
    """Entrywise equality within absolute tolerance ``tol``."""
    if H.dims != K.dims:
        return False
    return bool(np.max(np.abs(H.data - K.data)) <= tol)


def tensor_to_json(H: Hypermatrix) -> dict:
    """JSON form: ``{"dims": [...], "entries": [{"re": .., "im": ..}, ...]}``.

    Entries are listed in row-major order.
    """
    return {"dims": list(H.dims), "entries": _complex_to_json(H.data)}


def tensor_from_json(obj) -> Hypermatrix:
    dims = obj.get("dims") if isinstance(obj, dict) else None
    if not isinstance(dims, list):
        raise ValidationError("tensor JSON needs a 'dims' list and 'entries'")
    dims = [_json_int(d, "dims") for d in dims]
    entries = _complex_from_json(obj.get("entries"), math.prod(dims))
    return Hypermatrix(entries.reshape(dims))


def matrix_to_json(M) -> dict:
    """JSON form: ``{"rows": r, "cols": c, "entries": [...]}`` row-major."""
    arr = _as_matrix(M, "matrix")
    return {"rows": arr.shape[0], "cols": arr.shape[1], "entries": _complex_to_json(arr)}


def matrix_from_json(obj) -> np.ndarray:
    if not isinstance(obj, dict):
        raise ValidationError("matrix JSON needs 'rows', 'cols' and 'entries'")
    rows, cols = _json_int(obj.get("rows"), "rows"), _json_int(obj.get("cols"), "cols")
    return _complex_from_json(obj.get("entries"), rows * cols).reshape(rows, cols)


def _json_int(value, what) -> int:
    """A non-negative integer header field (dims, rows, num_qubits)."""
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
