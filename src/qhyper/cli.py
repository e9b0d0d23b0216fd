"""Command line interface.

One subcommand per operation; ``--output json`` switches every command
from human-readable lines to JSON; ``parse`` and ``permute`` always
write state JSON.  JSON floats are Python's shortest round-trip
``repr``, so every value (``1.0`` and ``-0.0`` included) reads back as
the identical double; text output prints floats at 17 significant
digits.  Exit codes: 0 success (verdicts and failed verifications are
data, not errors), 1 usage, 2 input that does not parse, 3 validation
or numeric-domain failure, 4 size cap exceeded.  Every subcommand takes
``--output``; only ``lu-equiv`` takes a tolerance (default 1e-10,
overridable by the QHYPER_TOL environment variable and the ``--tol``
flag, flag wins) and only ``bench`` takes ``--seed``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import os
import sys
import time
from dataclasses import asdict

import numpy as np

from . import hyperdet, states, tensor
from .hosvd import DEFAULT_TOL, hosvd, lu_equivalence, lu_fingerprint, mode_svals
from .errors import KetSyntaxError, QhyperError, SizeCapError, ValidationError

__all__ = ["main", "entry", "run_bench"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_INVALID = 3
EXIT_SIZE_CAP = 4


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _spectrum_lines(spectra, first=1):
    return (f"mode {k}: {_fmt(sv[0])} {_fmt(sv[1])}" for k, sv in enumerate(spectra, first))


def _emit(payload, lines, out_path=None):
    """Write the text ``lines``, or ``payload`` as JSON when ``lines`` is
    None, to ``out_path``, or to stdout when it is not given."""
    with (open(out_path, "w") if out_path else contextlib.nullcontext(sys.stdout)) as fh:
        if lines is None:
            tensor._write_json(payload, fh)
        else:
            fh.write("\n".join(lines))
        fh.write("\n")


def _load_state(path: str, *, norm="check", order_cap=False) -> states.QubitState:
    """Read ket text, or state JSON when the file starts with '{'.

    The file is read as UTF-8 past a leading byte-order mark; ``norm`` is
    the :class:`states.QubitState` policy for either format.  ``order_cap``
    checks the hypermatrix order cap on the width of the first term, once
    that term reads, or on ``num_qubits``, before any amplitude is allocated.
    """
    with open(path, encoding="utf-8-sig") as fh:
        raw = fh.read()
    if not raw.lstrip().startswith("{"):
        first = order_cap and states._term(raw, 0, True)
        if first:
            states._check_order_cap(len(first.group(10)))
        return states.parse_ket(raw, norm=norm)
    try:
        obj = json.loads(raw)
    except (ValueError, RecursionError) as exc:  # bad JSON, an int past the digit limit, too deep
        raise _ParseError(exc) from None
    if order_cap and isinstance(obj, dict):
        states._check_order_cap(tensor._json_int(obj.get("num_qubits"), "num_qubits"))
    return states.state_from_json(obj, norm=norm)


def _load_hypermatrix(path: str) -> tensor.Hypermatrix:
    return states.state_to_hypermatrix(_load_state(path, order_cap=True))


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


class _UsageError(Exception):
    pass


class _ParseError(Exception):
    pass


@functools.cache  # built once per process; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qhyper", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--output", choices=("text", "json"), default="text", help="output format")
        p.set_defaults(run=run)
        return p

    p = command("parse", _cmd_parse, "parse a ket expression or state JSON file")
    p.add_argument("--in", dest="infile", required=True, help="input file")
    p.add_argument("--out", help="output file (default stdout)")
    norm = p.add_mutually_exclusive_group()
    for flag, policy, text in (
        ("--renormalize", "renormalize", "rescale to unit norm"),
        ("--no-normalize", "skip", "skip normalization check entirely (diagnostics)"),
    ):
        norm.add_argument(flag, dest="norm", action="store_const", const=policy, help=text)
    p.set_defaults(norm="check")

    p = command("svals", _cmd_svals, "per-mode singular values of a state")
    p.add_argument("--state", required=True, help="state file")
    p.add_argument("--mode", type=int, default=None, help="one mode only (1-based)")

    p = command("hosvd", _cmd_hosvd, "full decomposition report")
    p.add_argument("--state", required=True, help="state file")
    p.add_argument("--out", help="output file (default stdout)")

    p = command("lu-equiv", _cmd_lu_equiv, "three-valued local-unitary equivalence")
    p.add_argument("--a", required=True, help="first state file")
    p.add_argument("--b", required=True, help="second state file")
    p.add_argument("--tol", type=float, default=None, help="absolute tolerance")

    p = command("permute", _cmd_permute, "permute the qubit slots of a state")
    p.add_argument("--state", required=True, help="state file")
    p.add_argument("--perm", required=True, help="comma list, e.g. 3,2,1")
    p.add_argument("--out", help="output file (default stdout)")

    p = command("hdet", _cmd_hdet, "combinatorial hyperdeterminant of a state")
    p.add_argument("--state", required=True, help="state file")
    p.add_argument(
        "--method", choices=("fast", "reduced", "general"), default="fast"
    )

    p = command("tangle", _cmd_tangle, "n-tangle of a 2n-qubit state")
    p.add_argument("--state", required=True, help="state file")
    p.add_argument("--via", choices=("spinflip", "hdet"), default="spinflip")

    p = command("signs", _cmd_signs, "print a sign string")
    p.add_argument("--what", choices=("ent", "sigma"), required=True)
    p.add_argument("--n", type=int, required=True, help="half the qubit count")
    p.add_argument("--blocks", action="store_true", help="print P/N blocks")

    p = command("verify", _cmd_verify, "check the antidiagonal sign identity")
    p.add_argument("--n", type=int, required=True, help="half the qubit count")
    p.add_argument(
        "--dense",
        choices=("auto", "on", "off"),
        default="auto",
        help="also compare dense sign matrices (auto: n <= 5)",
    )

    p = command("bench", _cmd_bench, "time the fast vs. reduced hyperdeterminant")
    p.add_argument("--n", type=int, required=True, help="half the qubit count")
    p.add_argument("--reps", type=int, default=5, help="repetitions per method")
    p.add_argument("--seed", type=int, default=0, help="RNG seed")
    return parser


# Each _cmd_* returns (payload, lines): ``lines`` is None when the command
# always writes JSON, else an iterable that only text output consumes.  A
# payload holds complex arrays where its JSON holds lists of {"re", "im"}
# entries; _emit streams them out as those lists.


def _cmd_parse(args):
    state = _load_state(args.infile, norm=args.norm)
    return {"num_qubits": state.num_qubits, "amplitudes": state.amplitudes}, None


def _cmd_svals(args):
    H = _load_hypermatrix(args.state)
    if args.mode is not None:
        sv = mode_svals(H, args.mode)
        return {"mode": args.mode, "svals": sv.tolist()}, _spectrum_lines([sv], args.mode)
    fp = lu_fingerprint(H)
    return {"mode_svals": fp.tolist()}, _spectrum_lines(fp)


def _cmd_hosvd(args):
    res = hosvd(_load_hypermatrix(args.state))
    payload = {
        "mode_svals": res.mode_svals.tolist(),
        "factors": [{"rows": V.shape[0], "cols": V.shape[1], "entries": V} for V in res.factors],
        "core": {"dims": list(res.core.dims), "entries": res.core.data},
    }
    core_lines = (
        f"core[{','.join(str(i) for i in idx)}] = {_fmt(z.real)} {_fmt(z.imag)}i"
        for idx, z in np.ndenumerate(res.core.data)
    )
    return payload, itertools.chain(_spectrum_lines(res.mode_svals), core_lines)


def _cmd_lu_equiv(args):
    tol = args.tol
    if tol is None:
        raw = os.environ.get("QHYPER_TOL", DEFAULT_TOL)
        try:
            tol = float(raw)
        except ValueError:
            raise ValidationError(f"QHYPER_TOL must be a number, got {raw!r}") from None
    verdict = lu_equivalence(_load_hypermatrix(args.a), _load_hypermatrix(args.b), tol=tol)
    cert = None if verdict.certificate is None else asdict(verdict.certificate)
    payload = {"verdict": verdict.tag.value, "certificate": cert, "detail": verdict.detail}
    line = verdict.tag.value
    if cert is not None:
        line += (
            f": mode {cert['mode']} svals "
            f"({_fmt(cert['svals_a'][0])}, {_fmt(cert['svals_a'][1])}) vs "
            f"({_fmt(cert['svals_b'][0])}, {_fmt(cert['svals_b'][1])})"
        )
    elif verdict.detail:
        line += f": {verdict.detail}"
    return payload, [line]


def _cmd_permute(args):
    H = _load_hypermatrix(args.state)
    try:
        mapping = tuple(int(x) for x in args.perm.split(","))
    except ValueError:
        raise ValidationError(f"--perm must be a comma list of integers, got {args.perm!r}")
    out = states.hypermatrix_to_state(tensor.mode_permute(H, mapping))
    return {"num_qubits": out.num_qubits, "amplitudes": out.amplitudes}, None


def _cmd_hdet(args):
    if args.method == "fast":
        value = hyperdet.hdet_fast(_load_state(args.state))
    else:
        fn = hyperdet.hdet_reduced if args.method == "reduced" else hyperdet.hdet_general
        value = fn(_load_hypermatrix(args.state))
    payload = {"re": value.real, "im": value.imag, "method": args.method}
    return payload, [f"hdet ({args.method}) = {_fmt(value.real)} {_fmt(value.imag)}i"]


def _cmd_tangle(args):
    value = states.n_tangle(_load_state(args.state), via=args.via)
    return {"tangle": value, "via": args.via}, [f"tangle ({args.via}) = {_fmt(value)}"]


def _cmd_signs(args):
    builder = (
        hyperdet.sign_string_ent if args.what == "ent" else hyperdet.sign_string_sigma
    )
    ss = builder(args.n)
    rendered = ss.block_string() if args.blocks else ss.as_string()
    key = "blocks" if args.blocks else "signs"
    return {"what": args.what, "n": args.n, key: rendered}, [rendered]


def _cmd_verify(args):
    dense = {"auto": None, "on": True, "off": False}[args.dense]
    report = hyperdet.verify_antidiagonal_identity(args.n, dense=dense)
    if report.passed:
        line = f"PASS (n={report.n}, factor={report.factor:+d})"
    else:
        line = f"FAIL (n={report.n}, first mismatch at {report.first_mismatch})"
    return asdict(report) | {"passed": report.passed}, [line]


def run_bench(n: int, reps: int, seed) -> dict:
    """Time hdet_fast against hdet_reduced on random 2n-qubit states.

    Returns mean seconds per call for each method and the largest
    absolute disagreement.  ``n`` > 8 raises ``SizeCapError`` before allocating.
    """
    n, reps = tensor._int_arg(n, "n"), tensor._int_arg(reps, "reps", "an integer >= 1", 1)
    qubits = 2 * n
    states._check_order_cap(qubits)
    rng = states._rng(seed)
    t_fast = t_reduced = delta = 0.0
    for _ in range(reps):  # one state at a time, so memory does not grow with reps
        st = states.random_state(qubits, rng.integers(2**63))
        t0 = time.perf_counter()
        fast = hyperdet.hdet_fast(st)
        t1 = time.perf_counter()
        reduced = hyperdet.hdet_reduced(states.state_to_hypermatrix(st))
        t2 = time.perf_counter()
        t_fast += t1 - t0
        t_reduced += t2 - t1
        delta = max(delta, abs(fast - reduced))
    return {
        "n": n,
        "qubits": qubits,
        "reps": reps,
        "mean_fast_s": t_fast / reps,
        "mean_reduced_s": t_reduced / reps,
        "max_abs_delta": float(delta),
    }


def _cmd_bench(args):
    payload = run_bench(args.n, args.reps, args.seed)
    return payload, [
        f"qubits: {payload['qubits']}  reps: {payload['reps']}",
        f"fast:    {_fmt(payload['mean_fast_s'])} s/call",
        f"reduced: {_fmt(payload['mean_reduced_s'])} s/call",
        f"max |delta|: {_fmt(payload['max_abs_delta'])}",
    ]


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        payload, lines = args.run(args)
        _emit(payload, None if args.output == "json" else lines, getattr(args, "out", None))
        return EXIT_OK
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (KetSyntaxError, _ParseError, UnicodeDecodeError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except SizeCapError as exc:
        print(f"size cap: {exc}", file=sys.stderr)
        return EXIT_SIZE_CAP
    except (QhyperError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


def entry():  # console script hook
    sys.exit(main())


if __name__ == "__main__":
    entry()
