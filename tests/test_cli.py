"""End-to-end command line coverage driven through main(argv)."""

import json
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from qhyper import (
    QubitState,
    SizeCapError,
    ValidationError,
    cli,
    hdet_fast,
    hdet_reduced,
    lu_fingerprint,
    parse_ket,
    random_state,
    state_to_hypermatrix,
)
from qhyper.cli import main, run_bench

PSI = "1/2|000> - 1/2|100> + 1/sqrt(2)|101>"
PHI = "1/2|000> - 1/2|010> + 1/sqrt(2)|101>"
BELL = "1/sqrt(2)|00> + 1/sqrt(2)|11>"

HI = math.sqrt(2 + math.sqrt(2)) / 2
LO = math.sqrt(2 - math.sqrt(2)) / 2


def put(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def signbits(amps):
    """Sign bits of the real and imaginary parts, in order."""
    return [math.copysign(1.0, x) < 0 for z in amps for x in (z.real, z.imag)]


def run_json(capsys, argv):
    code = main(argv + ["--output", "json"])
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


# ---------------------------------------------------------------------------
# parse


def test_parse_ket_to_json(tmp_path, capsys):
    code, payload = run_json(capsys, ["parse", "--in", put(tmp_path, "s.ket", BELL)])
    assert code == 0
    assert payload["num_qubits"] == 2
    amps = payload["amplitudes"]
    assert abs(amps[0]["re"] - 1 / math.sqrt(2)) <= 1e-15
    assert amps[1]["re"] == 0.0 and amps[2]["re"] == 0.0
    assert abs(amps[3]["re"] - 1 / math.sqrt(2)) <= 1e-15


def test_parse_out_file_roundtrips(tmp_path, capsys):
    out = str(tmp_path / "state.json")
    assert main(["parse", "--in", put(tmp_path, "s.ket", PSI), "--out", out]) == 0
    # the written JSON is accepted anywhere a state file is
    code, payload = run_json(capsys, ["svals", "--state", out])
    assert code == 0
    svals = payload["mode_svals"]
    assert abs(svals[0][0] - HI) <= 1e-12
    assert abs(svals[1][0] - 1.0) <= 1e-12
    assert abs(svals[2][1] - LO) <= 1e-12


def test_parse_renormalize_flag(tmp_path, capsys):
    path = put(tmp_path, "s.ket", "0.6|0>")
    assert main(["parse", "--in", path]) == 3
    capsys.readouterr()
    code, payload = run_json(capsys, ["parse", "--in", path, "--renormalize"])
    assert code == 0
    assert abs(payload["amplitudes"][0]["re"] - 1.0) <= 1e-15


def test_parse_no_normalize_flag(tmp_path, capsys):
    code, payload = run_json(
        capsys, ["parse", "--in", put(tmp_path, "s.ket", "0.6|0>"), "--no-normalize"]
    )
    assert code == 0
    assert payload["amplitudes"][0]["re"] == 0.6


def test_parse_json_input_renormalize(tmp_path, capsys):
    raw = json.dumps(
        {
            "num_qubits": 1,
            "amplitudes": [{"re": 0.6, "im": 0.0}, {"re": 0.0, "im": 0.0}],
        }
    )
    path = put(tmp_path, "s.json", raw)
    assert main(["parse", "--in", path]) == 3
    capsys.readouterr()
    code, payload = run_json(capsys, ["parse", "--in", path, "--renormalize"])
    assert code == 0
    assert abs(payload["amplitudes"][0]["re"] - 1.0) <= 1e-15


def test_parse_zero_json_renormalize_rejected(tmp_path, capsys):
    raw = json.dumps(
        {
            "num_qubits": 1,
            "amplitudes": [{"re": 0.0, "im": 0.0}, {"re": 0.0, "im": 0.0}],
        }
    )
    code = main(["parse", "--in", put(tmp_path, "s.json", raw), "--renormalize"])
    assert code == 3
    assert "zero" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, text",
    [
        ("big.ket", "1e200|0> + 1e200|1>"),
        ("big.json", json.dumps({"num_qubits": 1, "amplitudes": [{"re": 1e200, "im": 0.0}] * 2})),
        ("tiny.ket", "1e-170|0> + 1e-170|1>"),
        ("tiny.json", json.dumps({"num_qubits": 1, "amplitudes": [{"re": 1e-170, "im": 0.0}] * 2})),
    ],
)
def test_parse_renormalize_extreme_magnitudes(tmp_path, capsys, name, text):
    code, payload = run_json(capsys, ["parse", "--in", put(tmp_path, name, text), "--renormalize"])
    assert code == 0
    assert [a["re"] for a in payload["amplitudes"]] == [1 / math.sqrt(2)] * 2


def test_parse_renormalize_infinite_amplitude_exit_code(tmp_path, capsys):
    path = put(tmp_path, "inf.ket", "1e400|0> + 1|1>")
    assert main(["parse", "--in", path, "--renormalize"]) == 3
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, text, expect",
    [
        ("sub.ket", "5e-324|1>", [0.0, 1.0]),
        ("subim.ket", "(0+5e-324i)|1>", [0.0, 1j]),
        ("subim.json", '{"num_qubits": 1, "amplitudes": '
         '[{"re": 0.0, "im": 0.0}, {"re": 0.0, "im": 5e-324}]}', [0.0, 1j]),
    ],
)
def test_parse_renormalize_subnormal_peak(tmp_path, capsys, name, text, expect):
    # Complex division by a subnormal peak overflows its reciprocal.
    code, payload = run_json(capsys, ["parse", "--in", put(tmp_path, name, text), "--renormalize"])
    assert code == 0
    assert [complex(a["re"], a["im"]) for a in payload["amplitudes"]] == expect


def test_load_state_ket_and_json_agree_under_every_norm(tmp_path):
    # The same amplitudes as ket text and as state JSON give the same
    # bits, or the same error, under each policy.
    vectors = [[0.6, 0.8j], [0.6, 0.0], [0.0, 1e-170, complex(0.0, -3e-200), 0.0], [5e-324j, 0.0]]
    cases = [(vec, None) for vec in vectors] + [
        # Signed zero parts: as written, from a '-' sign and in a repeated label.
        ([complex(-0.0, 1.0), 0.0], "(-0.0+1.0i)|0> + 0|1>"),
        ([complex(1.0, -0.0), 0.0], "(1.0-0.0i)|0> + 0|1>"),
        ([complex(-0.0, -1.0), 0.0], "-(0.0+1.0i)|0> + 0|1>"),
        ([complex(-1.0, -0.0), complex(0.0, -0.0)], "-|0> + (0.0-0.0i)|1>"),
        ([complex(-0.0, 0.6), 0.8], "(-0.0+0.5i)|0> + (-0.0+0.1i)|0> + 0.8|1>"),
        # Rescaled under renormalize only.
        ([complex(-0.0, 2.0), complex(0.0, -0.0)], "(-0.0+2.0i)|0> + (0.0-0.0i)|1>"),
    ]
    for k, (vec, text) in enumerate(cases):
        n = len(vec).bit_length() - 1
        vec = [complex(z) for z in vec]
        terms = (
            f"({z.real!r}{'-' if z.imag < 0 else '+'}{abs(z.imag)!r}i)|{j:0{n}b}>"
            for j, z in enumerate(vec)
        )
        ket = put(tmp_path, f"{k}.ket", text or " + ".join(terms))
        amps = [{"re": z.real, "im": z.imag} for z in vec]
        js = put(tmp_path, f"{k}.json", json.dumps({"num_qubits": n, "amplitudes": amps}))
        for norm in ("check", "renormalize", "skip"):
            got = []
            for path in (ket, js):
                try:
                    amps = cli._load_state(path, norm=norm).amplitudes
                except ValidationError as exc:
                    got.append(type(exc))
                    continue
                got.append(amps.tobytes())
                # Every part keeps its sign, zeros included.
                assert signbits(amps) == signbits(vec), (vec, norm, path)
            assert got[0] == got[1], (vec, norm)
    # The fourth vector, [5e-324j, 0.0]:
    assert cli._load_state(str(tmp_path / "3.ket"), norm="renormalize").amplitudes.tolist() == [1j, 0.0]
    assert cli._load_state(str(tmp_path / "3.json"), norm="skip").amplitudes.tolist() == [5e-324j, 0.0]
    for state in (
        QubitState([complex(-0.0, 1.0), 0], norm="renormalize"),
        parse_ket("(-0.0+1.0i)|0> + 0|1>", norm="renormalize"),
    ):
        assert signbits(state.amplitudes) == [True, False, False, False]


@pytest.mark.parametrize(
    "text",
    ["9" * 400 + "/1|0>", "1/sqrt(" + "9" * 700 + ")|0>", "1/" + "9" * 5000 + "|0>"],
    ids=["quotient", "radicand", "denominator"],
)
def test_parse_huge_integer_exit_code(tmp_path, capsys, text):
    assert main(["parse", "--in", put(tmp_path, "big.ket", text)]) == 3
    assert "number too large in coefficient (at position 0)" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["parse", "--in"], ["svals", "--state"]])
@pytest.mark.parametrize(
    "raw",
    [
        '{"num_qubits": ' + "1" * 5000 + ', "amplitudes": []}',
        '{"num_qubits": 1, "amplitudes": '
        '[{"re": ' + "1" * 5000 + ', "im": 0}, {"re": 0, "im": 0}]}',
        '{"a":' * 100000 + "1" + "}" * 100000,
    ],
    ids=["num_qubits", "re", "nested"],
)
def test_state_json_digit_limit_exit_code(tmp_path, capsys, command, raw):
    # json.loads raises a plain ValueError past int's 4300-digit limit, and
    # a RecursionError past its nesting depth.
    assert main(command + [put(tmp_path, "long.json", raw)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error: ") and err.count("\n") == 1


@pytest.mark.parametrize("n", ["9", "20", "50"])
def test_bench_qubit_cap_exit_code(capsys, n):
    # 18, 40 and 100 qubits: past the order cap of 16, so refused before
    # random_state allocates anything.
    assert main(["bench", "--n", n, "--reps", "1"]) == 4
    assert "size cap" in capsys.readouterr().err


def test_bench_negative_seed_exit_code(capsys):
    assert main(["bench", "--n", "2", "--reps", "1", "--seed", "-1"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: invalid seed -1") and err.count("\n") == 1


def test_run_bench_order_cap_checked_before_allocation():
    # Five 18-qubit states are 20 MiB that the order cap refuses later.
    tracemalloc.start()
    try:
        with pytest.raises(SizeCapError):
            run_bench(9, 5, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_parse_renormalize_and_no_normalize_exclusive(tmp_path, capsys):
    path = put(tmp_path, "s.ket", "0.6|0>")
    assert main(["parse", "--in", path, "--renormalize", "--no-normalize"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_parse_json_keeps_signed_zero_and_float(tmp_path, capsys):
    raw = json.dumps(
        {"num_qubits": 1, "amplitudes": [{"re": -0.0, "im": 0.0}, {"re": 1.0, "im": 0.0}]}
    )
    code, payload = run_json(capsys, ["parse", "--in", put(tmp_path, "s.json", raw)])
    assert code == 0
    zero, one = payload["amplitudes"][0]["re"], payload["amplitudes"][1]["re"]
    assert type(zero) is float and math.copysign(1.0, zero) == -1.0
    assert type(one) is float and one == 1.0


@pytest.mark.parametrize(
    "obj",
    [
        {"num_qubits": 1, "amplitudes": [{"re": "x", "im": 0}, {"re": 0, "im": 0}]},
        {"num_qubits": 1, "amplitudes": [{"re": 1, "im": None}, {"re": 0, "im": 0}]},
        {"num_qubits": "two", "amplitudes": []},
        *(
            {"num_qubits": header, "amplitudes": [{"re": 1, "im": 0}, {"re": 0, "im": 0}]}
            for header in (True, 1.9, "1", 2.0, "x")
        ),
    ],
)
def test_malformed_state_json_exit_code(tmp_path, capsys, obj):
    path = put(tmp_path, "s.json", json.dumps(obj))
    assert main(["svals", "--state", path]) == 3
    assert "error" in capsys.readouterr().err


def test_binary_state_file_exit_code(tmp_path, capsys):
    path = tmp_path / "s.json"
    path.write_bytes(b"\xff\xfe{\x00")
    assert main(["parse", "--in", str(path)]) == 2
    assert "parse error" in capsys.readouterr().err


def test_parse_syntax_error_exit_code(tmp_path, capsys):
    assert main(["parse", "--in", put(tmp_path, "bad.ket", "0.5|2>")]) == 2
    assert "parse error" in capsys.readouterr().err


def test_parse_bad_json_exit_code(tmp_path, capsys):
    assert main(["parse", "--in", put(tmp_path, "bad.json", "{not json")]) == 2
    assert "parse error" in capsys.readouterr().err


def test_missing_file_exit_code(tmp_path, capsys):
    assert main(["svals", "--state", str(tmp_path / "nope.ket")]) == 3
    assert "error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# svals / hosvd


def test_svals_text_lines(tmp_path, capsys):
    assert main(["svals", "--state", put(tmp_path, "s.ket", PSI)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("mode 1:")
    words = lines[1].split()
    assert words[:2] == ["mode", "2:"]
    assert abs(float(words[2]) - 1.0) <= 1e-12
    assert abs(float(words[3])) <= 1e-12


def test_svals_single_mode(tmp_path, capsys):
    path = put(tmp_path, "s.ket", PSI)
    code, payload = run_json(capsys, ["svals", "--state", path, "--mode", "2"])
    assert code == 0
    assert payload["mode"] == 2
    assert abs(payload["svals"][0] - 1.0) <= 1e-12
    assert main(["svals", "--state", path, "--mode", "7"]) == 3


def test_hosvd_report_schema(tmp_path, capsys):
    code, payload = run_json(capsys, ["hosvd", "--state", put(tmp_path, "s.ket", PSI)])
    assert code == 0
    assert set(payload) == {"mode_svals", "factors", "core"}
    assert payload["core"]["dims"] == [2, 2, 2]
    assert len(payload["core"]["entries"]) == 8
    for factor in payload["factors"]:
        assert factor["rows"] == 2 and factor["cols"] == 2
    for sv in payload["mode_svals"]:
        assert sv[0] >= sv[1] >= 0.0


def test_hosvd_out_file(tmp_path):
    out = str(tmp_path / "report.json")
    code = main(
        ["hosvd", "--state", put(tmp_path, "s.ket", PSI), "--out", out, "--output", "json"]
    )
    assert code == 0
    payload = json.loads((tmp_path / "report.json").read_text())
    assert "core" in payload


# ---------------------------------------------------------------------------
# lu-equiv


def test_lu_equiv_not_equivalent_certificate(tmp_path, capsys):
    a = put(tmp_path, "a.ket", PSI)
    b = put(tmp_path, "b.ket", PHI)
    code, payload = run_json(capsys, ["lu-equiv", "--a", a, "--b", b])
    assert code == 0
    assert payload["verdict"] == "NotEquivalent"
    cert = payload["certificate"]
    assert cert["mode"] == 1
    assert abs(cert["svals_a"][0] - HI) <= 1e-12
    assert abs(cert["svals_b"][0] - 1 / math.sqrt(2)) <= 1e-12


def test_lu_equiv_after_cli_permute(tmp_path, capsys):
    a = put(tmp_path, "a.ket", PSI)
    permuted = str(tmp_path / "perm.json")
    assert main(["permute", "--state", a, "--perm", "3,1,2", "--out", permuted]) == 0
    code, payload = run_json(capsys, ["lu-equiv", "--a", a, "--b", permuted])
    assert code == 0
    assert payload["verdict"] == "EquivalentCoreMatch"
    assert "relabeling" in payload["detail"]


def test_lu_equiv_self(tmp_path, capsys):
    a = put(tmp_path, "a.ket", PSI)
    code, payload = run_json(capsys, ["lu-equiv", "--a", a, "--b", a])
    assert code == 0
    assert payload["verdict"] == "EquivalentCoreMatch"


def test_lu_equiv_degenerate_inconclusive(tmp_path, capsys):
    a = put(tmp_path, "bell.ket", BELL)
    code, payload = run_json(capsys, ["lu-equiv", "--a", a, "--b", a])
    assert code == 0
    assert payload["verdict"] == "Inconclusive"
    assert "degenerate" in payload["detail"]


def test_lu_equiv_tol_flag_changes_verdict(tmp_path, capsys):
    a = put(tmp_path, "a.ket", PSI)
    b = put(tmp_path, "b.ket", PHI)
    code, payload = run_json(capsys, ["lu-equiv", "--a", a, "--b", b, "--tol", "10"])
    assert code == 0
    # a huge tolerance aligns every fingerprint, then the degeneracy
    # gate stops the core comparison
    assert payload["verdict"] == "Inconclusive"


def test_lu_equiv_env_tol_and_flag_precedence(tmp_path, capsys, monkeypatch):
    a = put(tmp_path, "a.ket", PSI)
    b = put(tmp_path, "b.ket", PHI)
    monkeypatch.setenv("QHYPER_TOL", "10")
    code, payload = run_json(capsys, ["lu-equiv", "--a", a, "--b", b])
    assert payload["verdict"] == "Inconclusive"
    code, payload = run_json(
        capsys, ["lu-equiv", "--a", a, "--b", b, "--tol", "1e-10"]
    )
    assert payload["verdict"] == "NotEquivalent"


# ---------------------------------------------------------------------------
# permute


def test_permute_moves_basis_label(tmp_path, capsys):
    code, payload = run_json(
        capsys,
        ["permute", "--state", put(tmp_path, "s.ket", "|100>"), "--perm", "3,2,1"],
    )
    assert code == 0
    amps = payload["amplitudes"]
    assert amps[int("001", 2)]["re"] == 1.0
    assert sum(abs(a["re"]) + abs(a["im"]) for a in amps) == 1.0


def test_permute_validation(tmp_path, capsys):
    path = put(tmp_path, "s.ket", "|100>")
    assert main(["permute", "--state", path, "--perm", "3,2"]) == 3
    capsys.readouterr()
    assert main(["permute", "--state", path, "--perm", "a,b,c"]) == 3


# ---------------------------------------------------------------------------
# hdet / tangle


def test_hdet_methods_agree(tmp_path, capsys):
    path = put(tmp_path, "bell.ket", BELL)
    values = {}
    for method in ("fast", "reduced", "general"):
        code, payload = run_json(capsys, ["hdet", "--state", path, "--method", method])
        assert code == 0
        assert payload["method"] == method
        assert abs(payload["im"]) <= 1e-15
        values[method] = payload["re"]
    assert abs(values["fast"] - 0.5) <= 1e-12
    assert abs(values["reduced"] - 0.5) <= 1e-12
    assert abs(values["general"] - 0.5) <= 1e-12


def test_hdet_text_line(tmp_path, capsys):
    assert main(["hdet", "--state", put(tmp_path, "bell.ket", BELL)]) == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("hdet (fast) = ")
    real = float(line.split("=")[1].split()[0])
    assert abs(real - 0.5) <= 1e-12


def test_tangle_bell(tmp_path, capsys):
    path = put(tmp_path, "bell.ket", BELL)
    for via in ("spinflip", "hdet"):
        code, payload = run_json(capsys, ["tangle", "--state", path, "--via", via])
        assert code == 0
        assert abs(payload["tangle"] - 1.0) <= 1e-10


def test_tangle_odd_qubits_exit_code(tmp_path, capsys):
    assert main(["tangle", "--state", put(tmp_path, "s.ket", "|000>")]) == 3


# ---------------------------------------------------------------------------
# signs / verify / bench


def test_signs_exact(tmp_path, capsys):
    assert main(["signs", "--what", "ent", "--n", "1"]) == 0
    assert capsys.readouterr().out.strip() == "+--+"
    assert main(["signs", "--what", "sigma", "--n", "1"]) == 0
    assert capsys.readouterr().out.strip() == "-++-"
    assert main(["signs", "--what", "ent", "--n", "2"]) == 0
    assert capsys.readouterr().out.strip() == "+--+-++--++-+--+"


def test_signs_blocks_json(capsys):
    code, payload = run_json(capsys, ["signs", "--what", "ent", "--n", "3", "--blocks"])
    assert code == 0
    assert payload["blocks"] == "PNNPNPPNNPPNPNNP"


def test_signs_size_cap_exit_code(capsys):
    assert main(["signs", "--what", "ent", "--n", "14"]) == 4
    assert "size cap" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, text",
    [
        ("wide.ket", "|" + "0" * 40 + ">"),
        ("wide.json", '{"num_qubits": 40, "amplitudes": []}'),
        ("huge.json", '{"num_qubits": 100000000, "amplitudes": []}'),
    ],
    ids=["ket-40-bits", "json-40", "json-1e8"],
)
def test_state_qubit_cap_exit_code(tmp_path, capsys, name, text):
    assert main(["svals", "--state", put(tmp_path, name, text)]) == 4
    assert "size cap" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["svals", "hosvd"])
def test_hypermatrix_order_cap_exit_code(tmp_path, capsys, command):
    # 17 qubits is a valid state but one order past the hypermatrix cap.
    path = put(tmp_path, "w17.ket", "|" + "0" * 17 + ">")
    assert main([command, "--state", path]) == 4
    assert "size cap" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["svals", "--state"],
        ["hosvd", "--state"],
        ["lu-equiv", "--b", "{path}", "--a"],
        ["permute", "--perm", "1", "--state"],
        ["hdet", "--method", "reduced", "--state"],
        ["hdet", "--method", "general", "--state"],
    ],
    ids=["svals", "hosvd", "lu-equiv", "permute", "hdet-reduced", "hdet-general"],
)
@pytest.mark.parametrize(
    "name, text",
    [("w22.ket", "|" + "0" * 22 + ">"), ("w22.json", '{"num_qubits": 22, "amplitudes": []}')],
    ids=["ket", "json"],
)
def test_hypermatrix_order_cap_checked_before_allocation(tmp_path, capsys, argv, name, text):
    # 22 qubits is within the state cap, so only the order cap stops the
    # 2^22 amplitudes (64 MiB) from being allocated.
    path = put(tmp_path, name, text)
    tracemalloc.start()
    try:
        code = main([a.format(path=path) for a in argv] + [path])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 4
    assert "hypermatrices are capped at order 16, got 22 qubits" in capsys.readouterr().err
    assert peak < 1 << 20


HYPERMATRIX_COMMANDS = pytest.mark.parametrize(
    "argv",
    [
        ["svals", "--state"],
        ["hosvd", "--state"],
        ["lu-equiv", "--b", "{path}", "--a"],
        ["permute", "--perm", "1", "--state"],
        ["hdet", "--method", "reduced", "--state"],
        ["hdet", "--method", "general", "--state"],
    ],
    ids=["svals", "hosvd", "lu-equiv", "permute", "hdet-reduced", "hdet-general"],
)
W17 = "0" * 17


@HYPERMATRIX_COMMANDS
@pytest.mark.parametrize(
    "text, message",
    [
        (f"foo |{W17}>", "expected a coefficient or '|' (at position 0)"),
        (f"1.2.3|{W17}>", "expected '|bits>' (at position 3)"),
        (f"1/0|{W17}>", "zero denominator in fraction (at position 0)"),
    ],
    ids=["syntax", "number", "fraction"],
)
def test_hypermatrix_commands_report_the_parse_error_of_a_wide_ket(tmp_path, capsys, argv, text, message):
    # A first term that does not read has no width to cap, so the error is parse's.
    path = put(tmp_path, "bad.ket", text)
    assert main(["parse", "--in", path]) == 2
    expect = capsys.readouterr().err
    assert message in expect
    assert main([a.format(path=path) for a in argv] + [path]) == 2
    assert capsys.readouterr().err == expect


@HYPERMATRIX_COMMANDS
def test_hypermatrix_order_cap_comes_before_a_later_term(tmp_path, capsys, argv):
    # The first term's width is capped before the second term's bit count is read.
    path = put(tmp_path, "w17.ket", f"|{W17}> + |0>")
    assert main(["parse", "--in", path]) == 2
    assert "ket has 1 bits, earlier kets have 17" in capsys.readouterr().err
    assert main([a.format(path=path) for a in argv] + [path]) == 4
    assert "hypermatrices are capped at order 16, got 17 qubits" in capsys.readouterr().err


def test_state_files_are_read_as_utf8_whatever_the_locale(tmp_path):
    # No-break spaces between the tokens, read in a child under the C locale
    # with UTF-8 mode and locale coercion off, so its locale encoding is ASCII.
    path = tmp_path / "nbsp.ket"
    path.write_bytes("0.6|0>\u00a0+\u00a00.8|1>".encode("utf-8"))
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = "import sys; from qhyper.cli import main; sys.exit(main(sys.argv[1:]))"
    run = subprocess.run(
        [sys.executable, "-c", script, "svals", "--state", str(path), "--output", "json"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    expect = lu_fingerprint(state_to_hypermatrix(parse_ket("0.6|0> + 0.8|1>"))).tolist()
    assert json.loads(run.stdout) == {"mode_svals": expect}


@pytest.mark.parametrize("fmt", ["ket", "json"])
def test_state_files_may_start_with_a_byte_order_mark(tmp_path, capsys, fmt):
    # A BOM that is not skipped hides JSON's leading '{' and sends the file to the ket parser.
    text = BELL
    if fmt == "json":
        assert main(["parse", "--in", put(tmp_path, "s.ket", "0.6|0> + 0.8|1>")]) == 0
        text = capsys.readouterr().out
    runs = []
    for name, prefix in (("plain", ""), ("bom", "\ufeff")):
        path = tmp_path / name
        path.write_bytes((prefix + text).encode("utf-8"))
        runs.append((main(["svals", "--state", str(path)]), capsys.readouterr().out))
    assert runs[1] == runs[0]
    assert runs[0][0] == 0


@pytest.mark.parametrize(
    "argv, width",
    [
        (["parse", "--in"], 17),
        (["tangle", "--state"], 18),
        (["hdet", "--method", "fast", "--state"], 18),
    ],
    ids=["parse", "tangle", "hdet-fast"],
)
def test_state_commands_accept_states_past_the_order_cap(tmp_path, capsys, argv, width):
    path = put(tmp_path, "wide.ket", "|" + "0" * width + ">")
    assert main(argv + [path, "--output", "json"]) == 0
    assert json.loads(capsys.readouterr().out)


def test_verify_text_and_json(capsys):
    assert main(["verify", "--n", "3"]) == 0
    assert capsys.readouterr().out.strip() == "PASS (n=3, factor=-1)"
    code, payload = run_json(capsys, ["verify", "--n", "6", "--dense", "off"])
    assert code == 0
    assert payload["passed"] is True
    assert payload["dense_ok"] is None
    code, payload = run_json(capsys, ["verify", "--n", "6", "--dense", "on"])
    assert payload["dense_ok"] is True


def test_verify_dense_cap_exit_code(capsys):
    assert main(["verify", "--n", "8", "--dense", "on"]) == 4


def test_bench_payload(capsys):
    code, payload = run_json(capsys, ["bench", "--n", "2", "--reps", "3"])
    assert code == 0
    assert payload["qubits"] == 4 and payload["reps"] == 3
    assert payload["max_abs_delta"] <= 1e-12
    assert payload["mean_fast_s"] > 0.0 and payload["mean_reduced_s"] > 0.0


def test_run_bench_memory_does_not_grow_with_reps():
    # One 12-qubit state (64 KiB) is held at a time, whatever reps is.
    run_bench(6, 1, seed=0)  # warm-up: sign strings, permutation tables
    peaks = []
    for reps in (5, 200):
        tracemalloc.start()
        try:
            run_bench(6, reps, seed=0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 1 << 20


def test_run_bench_delta_over_the_seeded_states():
    rng = np.random.default_rng(7)
    delta = 0.0
    for _ in range(6):
        s = random_state(8, rng.integers(2**63))
        delta = max(delta, abs(hdet_fast(s) - hdet_reduced(state_to_hypermatrix(s))))
    assert run_bench(4, 6, seed=7)["max_abs_delta"] == delta


def test_run_bench_validation():
    with pytest.raises(Exception):
        run_bench(2, 0, seed=0)


# ---------------------------------------------------------------------------
# usage errors


def test_usage_errors(capsys):
    assert main([]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["hdet"]) == 1  # missing --state
    assert main(["hdet", "--state", "x", "--method", "magic"]) == 1
    capsys.readouterr()


def test_malformed_env_tolerance_exit_code(tmp_path, capsys, monkeypatch):
    a = put(tmp_path, "a.ket", PSI)
    monkeypatch.setenv("QHYPER_TOL", "abc")
    assert main(["lu-equiv", "--a", a, "--b", a]) == 3
    assert "QHYPER_TOL" in capsys.readouterr().err


def test_bad_tolerance_rejected(tmp_path, capsys):
    a = put(tmp_path, "a.ket", PSI)
    assert main(["lu-equiv", "--a", a, "--b", a, "--tol", "-1"]) == 3
    # Positive, but a quarter of it rounds to 0: the message names 5e-324.
    capsys.readouterr()
    assert main(["lu-equiv", "--a", a, "--b", a, "--tol", "5e-324"]) == 3
    assert "got 5e-324" in capsys.readouterr().err


def test_non_finite_tolerance_rejected(tmp_path, capsys, monkeypatch):
    a = put(tmp_path, "a.ket", PSI)
    assert main(["lu-equiv", "--a", a, "--b", a, "--tol", "nan"]) == 3
    assert "tolerance" in capsys.readouterr().err
    monkeypatch.setenv("QHYPER_TOL", "nan")
    assert main(["lu-equiv", "--a", a, "--b", a]) == 3
    assert "tolerance" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["tangle", "--state", "bell.ket", "--tol", "1e-8"],
        ["svals", "--state", "bell.ket", "--seed", "1"],
        ["hdet", "--state", "bell.ket", "--tol", "1"],
    ],
    ids=" ".join,
)
def test_flags_only_on_the_subcommand_that_reads_them(tmp_path, capsys, argv):
    path = put(tmp_path, "bell.ket", BELL)
    assert main([path if a == "bell.ket" else a for a in argv]) == 1
    assert "usage error" in capsys.readouterr().err


def test_cached_parser_runs_like_a_fresh_one(tmp_path, capsys):
    # build_parser is built once per process: a usage error must leave nothing
    # behind that changes how a later command parses or runs.
    path = put(tmp_path, "s.ket", PSI)
    runs = [
        ["svals", "--state", path, "--mode", "x"],
        ["svals", "--state", path, "--mode", "2"],
        ["lu-equiv", "--a", path],
        ["svals", "--state", path, "--output", "json"],
        ["signs", "--what", "ent"],
        ["signs", "--what", "ent", "--n", "1"],
    ]

    def run(argv):
        code = main(argv)
        out = capsys.readouterr()
        return code, out.out, out.err

    alone = []
    for argv in runs:
        cli.build_parser.cache_clear()
        alone.append(run(argv))
    assert [code for code, *_ in alone] == [1, 0, 1, 0, 1, 0]
    assert [run(argv) for argv in runs] == alone
    assert cli.build_parser() is cli.build_parser()


def test_env_tolerance_ignored_outside_lu_equiv(capsys, monkeypatch):
    monkeypatch.setenv("QHYPER_TOL", "abc")
    assert main(["signs", "--what", "ent", "--n", "1"]) == 0
    assert capsys.readouterr().out == "+--+\n"


@pytest.mark.parametrize("command", ["hosvd", "svals"])
def test_json_output_formats_no_text_lines(tmp_path, capsys, monkeypatch, command):
    def refuse(x):
        raise AssertionError("text formatting in a JSON run")

    monkeypatch.setattr(cli, "_fmt", refuse)
    code, payload = run_json(capsys, [command, "--state", put(tmp_path, "s.ket", PSI)])
    assert code == 0
    assert len(payload["mode_svals"]) == 3
