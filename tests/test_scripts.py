"""The survey scripts in ``scripts/`` run to completion on the package."""
import hashlib
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import twistbench
from twistbench import canonical

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


BELOW_TWO = ("1", "0", "-3")


@pytest.mark.parametrize(
    "script, b",
    [("sign_search_table.py", b) for b in BELOW_TWO]
    + [("composition_report.py", b) for b in BELOW_TWO],
    # the sign table's cases are named by b alone
    ids=[*BELOW_TWO, *(f"composition_report.py-{b}" for b in BELOW_TWO)],
)
def test_sign_table_rejects_b_below_two(script, b):
    # below 2 there is no configuration: the sign table has no probe to
    # print a walk count for, and the composition report none to survey
    env = dict(os.environ)
    src = str(Path(twistbench.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--b", b],
        capture_output=True, env=env, timeout=120, text=True,
    )
    assert done.returncode == 2
    assert f"--b must be at least 2, got {b}" in done.stderr
    assert "Traceback" not in done.stderr
    assert not done.stdout


def test_sign_table_builds_each_model_once(capsys, monkeypatch):
    # the calibration reads the cached probe of (1, 1, 1, 1) that the table
    # made, so sixteen tuples build sixteen crossing trees (seventeen
    # models before the probe was cached); [DERIVED] sha256 of stdout
    # taken while it built seventeen
    calls = []
    real = canonical.crossing_tree

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    canonical.probe_signs.cache_clear()
    monkeypatch.setattr(canonical, "crossing_tree", counting)
    monkeypatch.setattr(sys, "argv", ["sign_search_table.py", "--b", "2"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(ROOT / "scripts" / "sign_search_table.py"), run_name="__main__")
    assert exc.value.code == 0
    assert len(calls) == 16
    assert (
        hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        == "3b541c4844758be8c164d595a50e5947b7ef669171162240413fcc86d69ce0f9"
    )
