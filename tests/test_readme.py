"""The README's CLI examples, run in order: each documented output must be
what the CLI prints, so the examples cannot go stale; its library quick
start and its table of lower and upper bounds, recomputed; and its list of
entry points, which must be public names of upb."""

import re
import shlex
from pathlib import Path

import upb
from upb import bounds, compute_bounds, constellation, errors, exact_delta, gv_lower_bound, matrices, weyl
from upb.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_section(title):
    """The text of README's ``## title`` section."""
    return README.read_text(encoding="utf-8").split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def cli_examples():
    """(argv, expected lines) of each ``$ upb`` block in README's CLI section."""
    examples = []
    for block in re.findall(r"^```\n(.*?)^```$", readme_section("CLI"), re.M | re.S):
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


def test_readme_library_quick_start(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the block writes .upb-cache here
    block = re.search(r"^```python\n(.*?)^```$", readme_section("Library quick start"), re.M | re.S)[1]
    scope = {}
    exec(compile(block, "README.md", "exec"), scope)
    score, same = capsys.readouterr().out.splitlines()
    assert f"{float(score):#.6g}" == "0.678713" and same == "True"
    # each commented value, to the 6 digits shown
    documented = {"r0=1.18199": scope["b1"].r0, "value=0.759316": scope["b1"].value,
                  "value=0.779708": scope["b2"].value, "value=0.769740": scope["b3"].value,
                  "# 0.678713": scope["score"]}
    for text, value in documented.items():
        assert text in block and text.endswith(f"{value:#.6g}"), (text, value)
    assert "# 0.4222…" in block and f"{scope['low']:.4f}" == "0.4222"


def test_readme_lower_and_upper_bound_table():
    superscript = str.maketrans("⁰¹²³⁴⁵⁶⁷⁸⁹", "0123456789")
    rows = [line.strip("|").split("|") for line in readme_section("Lower and upper bounds").splitlines()
            if re.match(r"\| \d", line)]
    assert len(rows) == 10
    for n, m, low, b1, exact in ([cell.strip() for cell in row] for row in rows):
        n = int(n)
        m = int(m) if m.isascii() else 10 ** int(m.removeprefix("10").translate(superscript))  # 10⁹
        known = exact_delta(n, m)
        computed = [f"{gv_lower_bound(n, m):.4f}", f"{compute_bounds(n, m, ('b1',))[0].value:.4f}",
                    "—" if known is None else f"{known:.4f}"]
        assert [low, b1, exact] == computed, (n, m)


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
        assert name in upb.__all__, name
    for gone in ("ball_mass", "ball_mass_error", "log_total_mass", "frobenius_norm", "determinant",
                 "asymptotic_lower_bound", "AsymptoticBound", "bound_b1", "bound_b2", "bound_b3",
                 "evaluate_bound", "UnitaryMatrix"):
        assert not any(hasattr(mod, gone) for mod in [upb, *exported]), gone
