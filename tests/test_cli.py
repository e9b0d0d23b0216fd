"""End-to-end command line coverage driven through main(argv)."""

import json
import math

import pytest

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


def test_malformed_env_tolerance_exit_code(capsys, monkeypatch):
    monkeypatch.setenv("QHYPER_TOL", "abc")
    assert main(["signs", "--what", "ent", "--n", "1"]) == 3
    assert "QHYPER_TOL" in capsys.readouterr().err


def test_bad_tolerance_rejected(tmp_path, capsys):
    path = put(tmp_path, "bell.ket", BELL)
    assert main(["tangle", "--state", path, "--tol", "-1"]) == 3
