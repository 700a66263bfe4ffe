"""The survey scripts in ``scripts/`` run to completion on the package."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import twistbench

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


@pytest.mark.parametrize("script", SCRIPTS, ids=[s.name for s in SCRIPTS])
def test_script_runs(script):
    env = dict(os.environ)
    src = str(Path(twistbench.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(script)], capture_output=True, env=env, timeout=120, text=True
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout


def test_scripts_found():
    # an empty glob would leave the parametrized test with nothing to run
    assert SCRIPTS


@pytest.mark.parametrize("b", ["1", "0", "-3"])
def test_sign_table_rejects_b_below_two(b):
    # below 2 no probe builds a model, and the table used to end in a
    # traceback formatting its missing walk count
    env = dict(os.environ)
    src = str(Path(twistbench.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "sign_search_table.py"), "--b", b],
        capture_output=True, env=env, timeout=120, text=True,
    )
    assert done.returncode == 2
    assert f"--b must be at least 2, got {b}" in done.stderr
    assert "Traceback" not in done.stderr
    assert not done.stdout
