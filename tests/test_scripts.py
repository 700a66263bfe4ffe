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
