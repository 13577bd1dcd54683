"""Script front-end outcomes pinned, here and under every other interpreter
on PATH (see `script_pin.py` for what the pin holds)."""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess

import pytest
import script_pin
from conftest import REPO_ROOT


def test_every_pinned_source_keeps_its_outcome():
    faults = script_pin.moved()
    assert not faults, f"{len(faults)} outcome(s) moved:\n" + "\n".join(faults[:5])


#: the start of every message the lexer and the parser raise, but the stack's "nesting too deep"
FRONT_END_MESSAGES = (
    "LexError malformed exponent", "LexError unknown escape", "LexError unterminated string",
    "LexError unexpected character", "ParseError expected 'ident'", "ParseError expected '='",
    "ParseError expected ';'", "ParseError expected ')'", "ParseError expected '('",
    "ParseError expected '{'", "ParseError unexpected keyword", "ParseError unexpected token",
    "ParseError only names and members can be assigned", "ParseError unterminated function body",
    "ParseError duplicate parameter name",
)


def test_the_pin_sees_every_front_end_message_and_accepted_programs():
    pin = json.loads(script_pin.PIN.read_text(encoding="utf-8"))
    errors = [re.sub(r" \d+:\d+ ", " ", entry) for entry in pin if re.match(r"\w+Error \d+:\d+ ", entry)]
    missing = [m for m in FRONT_END_MESSAGES if not any(e.startswith(m) for e in errors)]
    assert not missing
    assert 0.3 < 1 - len(errors) / len(pin) < 0.7


@pytest.mark.parametrize("version", ["3.10", "3.12", "3.13"])
def test_the_pin_holds_under_other_interpreters(version):
    python = shutil.which(f"python{version}")
    if python is None:
        pytest.skip(f"no python{version} on PATH")
    # a pyenv shim picks its interpreter by PYENV_VERSION; any other ignores it
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src"), "PYENV_VERSION": version}
    probe = subprocess.run([python, "-c", "import sys; print(*sys.version_info[:2])"], env=env,
                           capture_output=True, text=True, timeout=60)
    if probe.returncode != 0 or probe.stdout.split() != version.split("."):
        pytest.skip(f"python{version} on PATH does not start: {probe.stderr.strip()[:200]}")
    run = subprocess.run([python, str(REPO_ROOT / "tests" / "script_pin.py")], cwd=REPO_ROOT, env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
