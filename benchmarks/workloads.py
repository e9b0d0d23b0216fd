"""The benchmark's workloads: seeded inputs, timed operations and checks.

Every input is generated here with NumPy from the workload seed, so the
library under test sees only finished states, hypermatrices and files.
A workload is one pass of operations in a seeded order; the runner
cycles through the pass in a closed loop.  Each operation carries a
check that runs with the clock stopped, and ``final_check`` adds the
checks that compare several operations (or need the library itself)
after the timed phase.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracles

TOL = 1e-10  # agreement with the NumPy oracles (fingerprints, svals, tangles)
HDET_TOL = 1e-12  # two enumerations of the same hyperdeterminant sum
REL_TOL = 1e-9  # kernel results against the oracle, relative


@dataclass
class Op:
    """One timed call.  ``check`` returns a failure reason or None."""

    kind: str
    call: Callable[[], object]
    check: Callable[[object], str | None]
    key: object = None  # the input this op reads, for the final checks


@dataclass
class Plan:
    ops: list  # one pass, in seeded order
    warmup: list  # callables run once per set-up
    decided: Callable[[object], bool] = lambda result: True
    # Gets [(pass position, result)] for every op that returned; returns
    # {pass position: reason} for the ones that fail a cross check.
    final_check: Callable[[list], dict] = lambda results: {}
    cleanup: Callable[[], None] = lambda: None  # run after the warm-up


# ---------------------------------------------------------------- inputs


def random_amplitudes(rng, n):
    # Filled in place: a 22-qubit state is 64 MB, and temporaries of
    # that size would set the workload's peak memory.
    vec = np.empty(2**n, dtype=np.complex128)
    vec.real = rng.standard_normal(2**n)
    vec.imag = rng.standard_normal(2**n)
    vec /= np.linalg.norm(vec)
    return vec


def symmetric_amplitudes(rng, n):
    """Permutation-symmetric state: the amplitude depends only on the
    Hamming weight of the basis label."""
    per_weight = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
    weights = np.array([bin(j).count("1") for j in range(2**n)])
    vec = per_weight[weights]
    return vec / np.linalg.norm(vec)


def w_like_amplitudes(rng, n):
    """W state with a random phase on each single-excitation term."""
    vec = np.zeros(2**n, dtype=np.complex128)
    for k in range(n):
        vec[1 << k] = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    return vec / np.sqrt(n)


def haar_su2(rng):
    raw = rng.standard_normal(4)
    a, b = complex(raw[0], raw[1]), complex(raw[2], raw[3])
    scale = np.hypot(abs(a), abs(b))
    a, b = a / scale, b / scale
    return np.array([[a, -b.conjugate()], [b, a.conjugate()]])


def lu_permuted_copy(rng, vec):
    """Apply a Haar SU(2) to every qubit, then relabel the qubits at
    random.  Returns the copy as an order-n (2, ..., 2) array."""
    n = int(vec.size).bit_length() - 1
    psi = vec
    for k in range(n):
        block = psi.reshape(2**k, 2, -1)
        psi = np.einsum("ab,ibj->iaj", haar_su2(rng), block).reshape(-1)
    return np.transpose(psi.reshape((2,) * n), rng.permutation(n))


def _seeded_order(rng, ops):
    return [ops[i] for i in rng.permutation(len(ops))]


# ------------------------------------------------------- LU equivalence


def _lu_plan(q, rng, groups):
    """groups: [(kind, count, make_amplitudes, independent)]."""
    Hm = q.tensor.Hypermatrix
    not_eq = q.hosvd.LuTag.NOT_EQUIVALENT
    match = q.hosvd.LuTag.EQUIVALENT_CORE_MATCH
    ops, pairs, warmup = [], [], []
    for kind, count, make, independent in groups:
        for i in range(count):
            a = make(rng)
            B = lu_permuted_copy(rng, make(rng) if independent else a)
            A, B = Hm(a.reshape(B.shape)), Hm(B)
            bad, what = (match, "an independent pair") if independent else (not_eq, "an LU copy")

            def check(verdict, bad=bad, what=what):
                return f"{verdict.tag.value} on {what}" if verdict.tag is bad else None

            ops.append(Op(kind, lambda A=A, B=B: q.hosvd.lu_equivalence(A, B), check, len(pairs)))
            pairs.append((A, B))
            if i == 0:
                # A state against itself matches on the first candidate,
                # so warm-up cost does not depend on the seed.
                warmup.append(lambda A=A: q.hosvd.lu_equivalence(A, A))

    def final_check(results):
        # Fingerprints are checked once per input; every pair is in the pass.
        bad = {}
        for p, (A, B) in enumerate(pairs):
            for H in (A, B):
                fp = np.array([np.asarray(sv) for sv in q.hosvd.lu_fingerprint(H)])
                gap = float(np.max(np.abs(fp - oracles.mode_svals(H.data))))
                if not gap <= TOL:
                    bad[p] = f"fingerprint off the SVD oracle by {gap:.3e}"
        return {pos: bad[op.key] for pos, op in enumerate(plan.ops) if op.key in bad}

    inconclusive = q.hosvd.LuTag.INCONCLUSIVE
    plan = Plan(
        ops=_seeded_order(rng, ops),
        warmup=warmup,
        decided=lambda verdict: verdict.tag is not inconclusive,
        final_check=final_check,
    )
    return plan


def lu_generic(q, rng, tmpdir):
    groups = [
        ("lu_copy/12", 20, lambda r: random_amplitudes(r, 12), False),
        ("lu_copy/14", 6, lambda r: random_amplitudes(r, 14), False),
        ("independent/12", 3, lambda r: random_amplitudes(r, 12), True),
        ("independent/14", 3, lambda r: random_amplitudes(r, 14), True),
    ]
    return _lu_plan(q, rng, groups)


def lu_symmetric(q, rng, tmpdir):
    groups = [
        ("symmetric/5", 240, lambda r: symmetric_amplitudes(r, 5), False),
        ("symmetric/6", 4, lambda r: symmetric_amplitudes(r, 6), False),
        ("w_like/6", 20, lambda r: w_like_amplitudes(r, 6), False),
        ("w_like/7", 20, lambda r: w_like_amplitudes(r, 7), False),
        ("w_like/8", 20, lambda r: w_like_amplitudes(r, 8), False),
    ]
    return _lu_plan(q, rng, groups)


# ------------------------------------------------------------- CLI I/O


def _ket_text(vec, n):
    # repr of a Python float is the shortest string that reads back exactly.
    terms = []
    for j, z in enumerate(vec.tolist()):
        op = "-" if z.imag < 0 else "+"
        terms.append(f"({z.real!r}{op}{abs(z.imag)!r}i)|{j:0{n}b}>")
    return " + ".join(terms)


def _json_text(vec, n):
    amps = [{"re": z.real, "im": z.imag} for z in vec.tolist()]
    return json.dumps({"num_qubits": n, "amplitudes": amps})


def _run_cli(q, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = q.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _take_json(path):
    """Read and remove a CLI output file, so a later run of the same
    command cannot pass on a stale file."""
    with open(path) as fh:
        obj = json.load(fh)
    os.remove(path)
    return obj


def _complex(entries):
    """Array from the CLI's [{"re": .., "im": ..}, ...] lists."""
    return np.array([complex(e["re"], e["im"]) for e in entries])


def _cli_check(inspect):
    def check(result):
        code, out, err = result
        if code != 0:
            return f"exit code {code}: {err.strip()[:200]}"
        return inspect(out)

    return check


def cli_io(q, rng, tmpdir):
    ops, warmup = [], []
    for n in (12, 14):
        vec = random_amplitudes(rng, n)
        data = vec.reshape((2,) * n)
        svals = oracles.mode_svals(data)
        tangle = oracles.tangle(vec)
        perm = rng.permutation(n)
        ket = os.path.join(tmpdir, f"state{n}.ket")
        js = os.path.join(tmpdir, f"state{n}.json")
        with open(ket, "w") as fh:
            fh.write(_ket_text(vec, n) + "\n")
        with open(js, "w") as fh:
            fh.write(_json_text(vec, n) + "\n")
        out = {c: os.path.join(tmpdir, f"out_{c}{n}.json") for c in ("parse", "permute", "hosvd")}

        def parsed(_, path=out["parse"], vec=vec):
            if not oracles.same_bits(_complex(_take_json(path)["amplitudes"]), vec):
                return "parsed amplitudes differ from the generated ones"
            return None

        def permuted(_, path=out["permute"], want=np.transpose(data, perm).reshape(-1)):
            if not oracles.same_bits(_complex(_take_json(path)["amplitudes"]), want):
                return "permuted amplitudes differ from the transposed input"
            return None

        def mode_svals(text, svals=svals):
            gap = float(np.max(np.abs(np.array(json.loads(text)["mode_svals"]) - svals)))
            return None if gap <= TOL else f"svals off the SVD oracle by {gap:.3e}"

        def decomposition(_, path=out["hosvd"], svals=svals, data=data):
            obj = _take_json(path)
            gap = float(np.max(np.abs(np.array(obj["mode_svals"]) - svals)))
            factors = [_complex(f["entries"]).reshape(2, 2) for f in obj["factors"]]
            core = _complex(obj["core"]["entries"]).reshape(obj["core"]["dims"])
            gap = max(gap, float(np.max(np.abs(oracles.apply_factors(factors, core) - data))))
            return None if gap <= TOL else f"hosvd report off by {gap:.3e}"

        def tangled(text, tangle=tangle):
            gap = abs(json.loads(text)["tangle"] - tangle)
            return None if gap <= TOL else f"tangle off the oracle by {gap:.3e}"

        commands = [
            ("parse", ["parse", "--in", ket, "--out", out["parse"]], parsed),
            ("svals_ket", ["svals", "--state", ket, "--output", "json"], mode_svals),
            ("svals_json", ["svals", "--state", js, "--output", "json"], mode_svals),
            ("permute", ["permute", "--state", js, "--perm", ",".join(str(p + 1) for p in perm),
                         "--out", out["permute"]], permuted),
            ("hosvd", ["hosvd", "--state", js, "--output", "json", "--out", out["hosvd"]],
             decomposition),
            ("tangle", ["tangle", "--state", js, "--output", "json"], tangled),
        ]
        for name, argv, inspect in commands:
            ops.append(Op(f"{name}/{n}", lambda argv=argv: _run_cli(q, argv), _cli_check(inspect)))
        if n == 14:
            # A second svals-on-JSON makes the pass 13 commands long, so
            # the median lands inside one command's samples rather than
            # between two.
            ops.append(ops[-4])
        warmup.extend(lambda argv=argv: _run_cli(q, argv) for _, argv, _ in commands)

    def cleanup():
        # The warm-up wrote the output files; remove them so that a
        # timed command that writes nothing cannot pass on their content.
        for name in os.listdir(tmpdir):
            if name.startswith("out_"):
                os.remove(os.path.join(tmpdir, name))

    return Plan(ops=_seeded_order(rng, ops), warmup=warmup, cleanup=cleanup)


# ------------------------------------------------------------- kernels


def kernels(q, rng, tmpdir):
    st = q.states
    hd = q.hyperdet
    ops = []
    # QubitState copies its input; the 64 MB original is not kept.
    states = {n: st.QubitState(random_amplitudes(rng, n)) for n in (20, 22)}
    small = {n: random_amplitudes(rng, n) for n in (14, 16)}
    expect = {n: oracles.pairing(s.amplitudes) for n, s in states.items()}
    cubes = {n: q.tensor.Hypermatrix(v.reshape((2,) * n)) for n, v in small.items()}

    def near(want):
        # Relative: hyperdeterminants of random states are ~1e-3 and
        # tangles ~1e-7, where an absolute 1e-10 would pass a wrong digit.
        def check(got):
            gap = abs(got - want)
            return None if gap <= REL_TOL * abs(want) else f"off the oracle by {gap:.3e}"

        return check

    for n, s in states.items():
        ops.append(Op(f"hdet_fast/{n}", lambda s=s: hd.hdet_fast(s), near(expect[n] / 2)))
        for via in ("spinflip", "hdet"):
            ops.append(Op(f"n_tangle_{via}/{n}", lambda s=s, via=via: st.n_tangle(s, via=via),
                          near(abs(expect[n]) ** 2)))
    for n in (11, 12):
        ops.append(Op(f"verify/{n}", lambda n=n: hd.verify_antidiagonal_identity(n, dense=False),
                      lambda report: None if report.passed else "identity check failed"))
    for n, H in cubes.items():
        for name in ("hdet_reduced", "hdet_general"):
            ops.append(Op(f"{name}/{n}", lambda H=H, name=name: getattr(hd, name)(H),
                          lambda v: None if np.isfinite(v) else "not finite"))
    # hdet_general at 16 qubits twice per pass (13 ops) puts the 90th
    # percentile inside its samples.
    ops.append(ops[-1])

    def final_check(results):
        failures = {}
        by_kind = {}
        for pos, value in results:
            by_kind.setdefault(plan.ops[pos].kind, []).append((pos, value))
        for n in states:
            routes = by_kind.get(f"n_tangle_spinflip/{n}", []) + by_kind.get(f"n_tangle_hdet/{n}", [])
            values = [v for _, v in routes]
            if values and max(values) - min(values) > TOL:
                failures.update((pos, "n_tangle routes disagree") for pos, _ in routes)
        for n, vec in small.items():
            # hdet_reduced, hdet_general and (run here, untimed) hdet_fast
            # must give one value.
            group = by_kind.get(f"hdet_reduced/{n}", []) + by_kind.get(f"hdet_general/{n}", [])
            values = [v for _, v in group] + [hd.hdet_fast(st.QubitState(vec))]
            spread = max(abs(a - b) for a in values for b in values)
            if spread > HDET_TOL:
                failures.update((pos, f"hyperdeterminants differ by {spread:.3e}") for pos, _ in group)
        return failures

    warmup = [
        lambda: hd.hdet_fast(states[20]),
        lambda: st.n_tangle(states[20]),
        lambda: st.n_tangle(states[20], via="hdet"),
        lambda: hd.verify_antidiagonal_identity(6, dense=False),
        lambda: hd.hdet_reduced(cubes[14]),
        lambda: hd.hdet_general(cubes[14]),
    ]
    plan = Plan(ops=_seeded_order(rng, ops), warmup=warmup, final_check=final_check)
    return plan


WORKLOADS = {
    "lu_generic": lu_generic,
    "lu_symmetric": lu_symmetric,
    "cli_io": cli_io,
    "kernels": kernels,
}
