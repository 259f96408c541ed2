"""The README's code runs as documented, so a name it shows cannot vanish unnoticed."""

import re
import shlex
from pathlib import Path

import pytest

from lemniscate.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def fenced_blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README, flags=re.M | re.S)


def cli_examples():
    """The ``lemniscate ...`` lines of the README, as argv lists without the program name."""
    examples = []
    for block in fenced_blocks("sh"):
        for line in block.splitlines():
            if line.startswith("lemniscate "):
                examples.append(shlex.split(line, comments=True)[1:])
    return examples


# documented exit codes of the six examples under "Command line", in order
EXPECTED_EXIT = [0, 2, 0, 0, 0, 0]


def test_quick_start_block_runs():
    (block,) = fenced_blocks("python")
    exec(compile(block, "README.md", "exec"), {})


def test_six_cli_examples():
    assert len(cli_examples()) == len(EXPECTED_EXIT)


@pytest.mark.parametrize("index", range(len(EXPECTED_EXIT)))
def test_cli_example_exit_code(index, tmp_path, capsys):
    argv = cli_examples()[index]
    if ">" in argv:  # shell redirect: write the same report through --output
        argv = argv[:argv.index(">")]
    target = tmp_path / "out"
    code = main(argv + ["--output", str(target)])
    err = capsys.readouterr().err
    assert code == EXPECTED_EXIT[index], (argv, err)
    assert target.read_text()
