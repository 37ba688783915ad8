"""The README's quick starts run as written."""

import os
import shlex
import subprocess
import sys
from pathlib import Path

from gpmor import cli

README = Path(__file__).parents[1] / "README.md"
ENV = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))


def _block(heading, lang):
    """The first ```lang fenced block after the `## heading` line."""
    section = README.read_text().split(f"\n## {heading}\n", 1)[1]
    return section.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


def _commands(block):
    """The block's commands, continuation lines joined, comments dropped."""
    lines = [line for line in block.replace("\\\n", " ").splitlines()
             if line.strip() and not line.lstrip().startswith("#")]
    return [" ".join(line.split()) for line in lines]


def test_library_quick_start_runs(tmp_path):
    code = _block("Quick start (library)", "python")
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=ENV,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_cli_quick_start_runs(tmp_path):
    # the README states that every line of the block exits 0
    commands = _commands(_block("Quick start (CLI)", "sh"))
    assert len(commands) == 7 and all(c.startswith("gpmor ") for c in commands)
    gpmor = f"gpmor() {{ {shlex.quote(sys.executable)} -m gpmor.cli \"$@\"; }}"
    for command in commands:
        done = subprocess.run(["sh", "-c", f"{gpmor}; {command}"], cwd=tmp_path, env=ENV,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, (command, done.stderr)
