"""The README's CLI examples, run in order: each documented output must be
what the CLI prints, so the examples cannot go stale; and its list of entry
points, which must be public names of upb."""

import re
import shlex
from pathlib import Path

import upb
from upb import bounds, constellation, errors, matrices, weyl
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


def test_public_names_agree_with_submodules_and_readme():
    exported = [bounds, constellation, errors, matrices, weyl]
    assert sorted(upb.__all__) == sorted({"__version__"}.union(*(mod.__all__ for mod in exported)))
    # upb resolves each name on first access to the first submodule whose
    # list has it, so a name in two lists would silently bind to whichever
    # submodule the lookup tries first
    assert len(set(upb.__all__)) == len(upb.__all__)
    for i, a in enumerate(exported):
        for b in exported[i + 1:]:
            assert not set(a.__all__) & set(b.__all__), (a.__name__, b.__name__)
    for name in upb.__all__:
        assert hasattr(upb, name), name
    text = README.read_text(encoding="utf-8")
    listed = text.split("Key entry points:", 1)[1].split(". The solve", 1)[0]
    names = re.findall(r"`([^`]+)`", listed)
    assert "compute_bounds" in names and "load_constellation" in names
    for name in names:
        head, *tails = name.split("/")  # bound_b1/b2/b3
        for full in [head] + [head[: -len(tail)] + tail for tail in tails]:
            assert full in upb.__all__, full
    for gone in ("ball_mass", "ball_mass_error", "log_total_mass", "frobenius_norm", "determinant"):
        assert not any(hasattr(mod, gone) for mod in [upb, *exported]), gone
