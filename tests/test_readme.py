"""README's examples run as written: each ``pqpan`` line of "CLI" and each
``python`` block of "Library"."""

import re
import shlex
from pathlib import Path

from pqpan.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _blocks(section: str, lang: str) -> list[str]:
    """The ``lang`` code blocks of README's ``## section``, subsections included."""
    body = README.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(rf"^```{lang}\n(.*?)^```", body, flags=re.M | re.S)


def test_readme_cli_lines_exit_0_and_rewrite_the_same_files(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("PQPAN_PROFILE", raising=False)
    (block,) = _blocks("CLI", "sh")
    lines = [shlex.split(line, comments=True)
             for line in block.replace("\\\n", " ").splitlines() if line.strip()]
    assert len(lines) == 5 and all(argv[0] == "pqpan" for argv in lines)
    passes = []
    for _ in range(2):  # the second pass rewrites each file the first one wrote
        for argv in lines:
            assert main(argv[1:]) == 0, argv
        capsys.readouterr()
        passes.append({path.name: path.read_bytes() for path in tmp_path.iterdir()})
    assert sorted(passes[1]) == ["ledger.json", "profile.json", "trace.jsonl"]
    assert passes[1] == passes[0]


def test_readme_library_blocks_run(capsys):
    blocks = _blocks("Library", "python")
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
