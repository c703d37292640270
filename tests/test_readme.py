"""The README's CLI examples, run in order: each documented output must be
what the CLI prints, so the examples cannot go stale."""

import re
import shlex
from pathlib import Path

from upb.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def cli_examples():
    """(argv, expected lines) of each ``$ upb`` block in README's CLI section."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    examples = []
    for block in re.findall(r"^```\n(.*?)^```$", section, re.M | re.S):
        command, *expected = block.rstrip("\n").split("\n")
        if command.startswith("$ upb "):
            examples.append((shlex.split(command)[2:], expected))
    return examples


def as_documented(expected, actual):
    """``actual`` with every line that an expected line ending in ``...``
    matches as a prefix replaced by that line; cut to the expected length
    when the block ends in ``...``, since the README elides the rest."""
    if expected and expected[-1].endswith("..."):
        actual = actual[: len(expected)]
    shown = [e if e.endswith("...") and a.startswith(e[:-3]) else a for e, a in zip(expected, actual)]
    return shown + actual[len(expected):]


def test_readme_cli_examples(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the default cache and search file land here
    monkeypatch.delenv("UPB_CACHE_DIR", raising=False)
    examples = cli_examples()
    assert [argv[0] for argv, _ in examples] == ["bound", "table", "sweep", "search", "eval", "selftest"]
    for argv, expected in examples:
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 0, (argv, captured.err)
        assert as_documented(expected, captured.out.splitlines()) == expected, argv
