"""The README's examples run as written and print what they say."""

import re
import shlex
from pathlib import Path

from qhyper.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block(heading, lang):
    """The first ```lang fenced block after the ``## heading`` line."""
    section = README[README.index(f"\n## {heading}\n") :]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def test_quick_start_prints_its_comments():
    code = _block("Library quick start", "python")
    expected = re.findall(r"^print\(.*\)\s+# (.+)$", code, re.M)
    printed = []
    exec(code, {"print": lambda value: printed.append(value)})
    assert len(printed) == len(expected) == 3
    for value, comment in zip(printed, expected):
        if isinstance(value, (int, float, complex)):
            assert abs(value - complex(comment)) <= 1e-12, (value, comment)
        else:
            assert str(value) == comment


def test_command_line_examples_exit_zero(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    outputs = {}
    for line in _block("Command line", "sh").splitlines():
        words = shlex.split(line, comments=True)
        if words and words[0] == "echo":
            text, redirect, path = words[1:]
            assert redirect == ">"
            Path(path).write_text(text + "\n")
        elif words:
            assert words[0] == "qhyper", line
            assert main(words[1:]) == 0, line
            outputs[" ".join(words[1:])] = capsys.readouterr().out
    assert len(outputs) == 11
    assert outputs["signs --what ent --n 3 --blocks"] == "PNNPNPPNNPPNPNNP\n"
