"""The README's Python examples run against the package as it is."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index):
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})


def test_readme_command_lines_match_the_usage_text(capsys):
    # the same commands and options in the same order; placeholders aside
    from dirichlet_fem import cli

    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = re.search(r"^```\n(.*?)^```$", section, re.M | re.S)[1]
    assert cli.main(["--help"]) == 0
    usage = capsys.readouterr().out.removeprefix("usage:")

    def shape(text):
        return [re.sub(r"(--\w+) [^\s\]]+", r"\1 VALUE", " ".join(line.split()))
                for line in text.splitlines()]

    assert shape(block) == shape(usage)
