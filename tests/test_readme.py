"""README.md's examples run as written: every ```python block is executed
in order in one namespace, and every ``ewgame`` command of its ```bash
blocks runs in order through ``cli.main``, as a reader pasting them one
after another would run them."""

import re
import shlex
from pathlib import Path

from ewgame import cli

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCK = re.compile(r"^```(python|bash)\n(.*?)^```$", re.DOTALL | re.MULTILINE)


def blocks(language):
    return [body for lang, body in BLOCK.findall(README.read_text(encoding="utf-8"))
            if lang == language]


def commands():
    """Each ``ewgame`` command of the bash blocks as an argv list, with the
    output its ``# -> text`` line states (None when it states none)."""
    found = []
    for body in blocks("bash"):
        for line in body.replace("\\\n", " ").splitlines():
            if line.startswith("# -> ") and found:
                found[-1][1] = line[len("# -> "):] + "\n"
            elif line.startswith("ewgame "):
                found.append([shlex.split(line, comments=True)[1:], None])
    return found


def test_python_blocks_run_in_order():
    python = blocks("python")
    assert len(python) >= 2
    namespace = {"__name__": "readme"}
    for number, source in enumerate(python, 1):
        exec(compile(source, f"README.md python block {number}", "exec"), namespace)


def test_bash_commands_run_in_order(capsys, monkeypatch, tmp_path):
    # witness check reads the wit.json that witness make writes before it;
    # every command is a success or a positive detection, exit code 0
    monkeypatch.chdir(tmp_path)
    listed = commands()
    assert len(listed) == 10
    for argv, output in listed:
        code = cli.main(argv)
        out = capsys.readouterr().out
        assert code == cli.EXIT_OK, argv
        if output is not None:
            assert out == output, argv
    assert listed[0] == [["payoff", "--state", "werner(1)", "--witness", "werner"],
                         "1.1547005383792515\n"]
