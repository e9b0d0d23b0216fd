"""Exact stdout of every subcommand except ``bench``, in text and JSON.

The inputs are chosen so that no printed value depends on BLAS
rounding: basis kets, Bell, GHZ_3, sign strings and identity checks at
n = 1-3.  The expected bytes live in ``cli_golden.json``; after a
deliberate output change, rewrite it with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import json
import pathlib

import pytest

from qhyper.cli import main

GOLDEN = pathlib.Path(__file__).with_name("cli_golden.json")

INPUTS = {
    "zero.ket": "|0>",
    "basis.ket": "|01>",
    "other.ket": "|10>",
    "basis3.ket": "|100>",
    "bell.ket": "1/sqrt(2)|00> + 1/sqrt(2)|11>",
    "ghz.ket": "1/sqrt(2)|000> + 1/sqrt(2)|111>",
    "basis.json": json.dumps(
        {"num_qubits": 2, "amplitudes": [{"re": r, "im": 0.0} for r in (0.0, 1.0, 0.0, 0.0)]}
    ),
}

COMMANDS = [
    ["parse", "--in", "bell.ket"],
    ["parse", "--in", "ghz.ket"],
    ["parse", "--in", "basis.json"],
    ["svals", "--state", "zero.ket"],
    ["svals", "--state", "basis.ket"],
    ["svals", "--state", "basis.json"],
    ["svals", "--state", "bell.ket"],
    ["svals", "--state", "ghz.ket", "--mode", "2"],
    ["hosvd", "--state", "basis.ket"],
    ["hosvd", "--state", "bell.ket"],
    ["hosvd", "--state", "ghz.ket"],
    ["lu-equiv", "--a", "basis.ket", "--b", "other.ket"],
    ["lu-equiv", "--a", "basis.ket", "--b", "bell.ket"],
    ["lu-equiv", "--a", "bell.ket", "--b", "bell.ket"],
    ["permute", "--state", "basis3.ket", "--perm", "3,2,1"],
    ["permute", "--state", "ghz.ket", "--perm", "2,3,1"],
    ["hdet", "--state", "basis.ket"],
    *(["hdet", "--state", "bell.ket", "--method", m] for m in ("fast", "reduced", "general")),
    *(["tangle", "--state", "bell.ket", "--via", v] for v in ("spinflip", "hdet")),
    *(
        ["signs", "--what", what, "--n", str(n), *blocks]
        for what in ("ent", "sigma")
        for n in (1, 2, 3)
        for blocks in ([], ["--blocks"])
    ),
    *(["verify", "--n", str(n)] for n in (1, 2, 3)),
    ["verify", "--n", "2", "--dense", "off"],
]

CASES = [argv + out for argv in COMMANDS for out in ([], ["--output", "json"])]


def _run(argv, directory):
    """Run one case with its input names resolved inside ``directory``."""
    for name, text in INPUTS.items():
        (directory / name).write_text(text)
    return main([str(directory / a) if a in INPUTS else a for a in argv])


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_cli_stdout_is_pinned(tmp_path, capsys, argv):
    golden = json.loads(GOLDEN.read_text())
    assert _run(argv, tmp_path) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == golden[" ".join(argv)]


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile

    expected = {}
    with tempfile.TemporaryDirectory() as tmp:
        for argv in CASES:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                assert _run(argv, pathlib.Path(tmp)) == 0, argv
            expected[" ".join(argv)] = buf.getvalue()
    GOLDEN.write_text(json.dumps(expected, indent=1) + "\n")
