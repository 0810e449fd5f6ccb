"""README's command lines and library snippet, run as written.

Every `bestarm ...` line of the "Command line" section runs through
`python -m bestarm` in a scratch directory that holds the files the lines
name: `config.json` from the section's JSON block, `inst.json` from its
`echo` line and a `capture.csv` whose channel is the best arm.
"""

import csv
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def section(title: str) -> str:
    start = README.index(f"\n## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start:end]


def code_blocks(text: str, lang: str) -> list[str]:
    return re.findall(rf"```{lang}\n(.*?)```", text, re.S)


COMMAND_LINE = section("Command line")
SHELL_LINES = [
    line.strip()
    for block in code_blocks(COMMAND_LINE, "sh")
    for line in block.splitlines()
    if line.strip() and not line.lstrip().startswith("#")
]
COMMANDS = [line for line in SHELL_LINES if line.startswith("bestarm ")]


def test_readme_lists_every_subcommand():
    names = {shlex.split(line)[1] for line in COMMANDS}
    assert names == {
        "groups", "hardness", "bounds", "simulate",
        "case-jammer", "case-radar", "group-mean-dist",
    }


def write_inputs(workdir: Path) -> None:
    (config,) = code_blocks(COMMAND_LINE, "json")
    (workdir / "config.json").write_text(config)
    for line in SHELL_LINES:
        words = shlex.split(line)
        if words[0] == "echo":
            assert words[2] == ">" and len(words) == 4, line
            (workdir / words[3]).write_text(words[1] + "\n")
    # I and Q scaled by 5: window energy about 25 * 2N, well above the idle
    # channels' N * noise_var, so the capture's channel is the best arm
    r = np.random.default_rng(3)
    with open(workdir / "capture.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "i", "q"])
        writer.writerows((k, 5 * r.normal(), 5 * r.normal()) for k in range(200))


@pytest.mark.parametrize("line", COMMANDS)
def test_readme_command_runs(line, tmp_path, cli_env):
    write_inputs(tmp_path)
    argv = shlex.split(line)[1:]
    proc = subprocess.run(
        [sys.executable, "-m", "bestarm", *argv],
        cwd=tmp_path, env=cli_env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    out = proc.stdout
    if "--out" in argv:
        out = (tmp_path / argv[argv.index("--out") + 1]).read_text()
    rows = list(csv.reader(out.splitlines()))
    assert len(rows) >= 2, out  # a header and at least one data row


def test_readme_library_snippet_runs(tmp_path, cli_env):
    (snippet,) = code_blocks(section("Library"), "python")
    proc = subprocess.run(
        [sys.executable, "-c", snippet],
        cwd=tmp_path, env=cli_env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
