"""Command surface: exit codes, determinism, file outputs."""
import ast
import hashlib
import json
import os
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

import twistbench
from twistbench import canonical, factorization, homology
from twistbench.cli import AUROUX_MAX_BLOCKS, Check, VerificationReport, build_parser, main
from twistbench.serialize import stable_json


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def usage_error(*argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2


def report_digest(out):
    """sha256 of a JSON report without its ``environment`` key, which
    holds the Python version."""
    payload = json.loads(out)
    del payload["environment"]
    return hashlib.sha256(stable_json(payload).encode()).hexdigest()


def package_env():
    """The environment with this package's source first on the path."""
    env = dict(os.environ)
    src = str(Path(twistbench.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


class TestReport:
    def test_exit_code_precedence(self):
        ok = Check("a", "pass")
        bad = Check("b", "fail")
        open_q = Check("c", "inconclusive")
        assert VerificationReport((), (ok,)).exit_code == 0
        assert VerificationReport((), (ok, open_q)).exit_code == 3
        assert VerificationReport((), (ok, open_q, bad)).exit_code == 1
        assert VerificationReport((), ()).exit_code == 0

    def test_bad_status_rejected(self):
        with pytest.raises(ValueError):
            Check("a", "maybe")

    def test_environment_names_the_python_version(self):
        import platform

        from twistbench.cli import _environment
        from twistbench.serialize import sha256_hex

        env = _environment()
        assert env["python"] == platform.python_version()
        assert env["package"] == twistbench.__version__
        versions = {"package": env["package"], "python": env["python"]}
        assert env["fingerprint"] == sha256_hex(stable_json(versions))[:16]

    def test_only_json_reports_carry_the_environment(self, capsys):
        argv = ("braid", "eq", "--n", "3", "--lhs", "[1]", "--rhs", "[1]")
        _, table = run(capsys, *argv)
        _, text = run(capsys, *argv, "--format", "json")
        assert "python" not in table
        assert json.loads(text)["environment"]["python"] == sys.version.split()[0]


class TestVerifyPsi:
    def test_passes_for_reference_models(self, capsys):
        code, out = run(capsys, "verify-psi", "--b", "2")
        assert code == 0
        assert "product-equals-reference" in out
        assert "FAIL" not in out

    def test_json_deterministic(self, capsys):
        _, once = run(capsys, "verify-psi", "--b", "2", "--format", "json")
        _, again = run(capsys, "verify-psi", "--b", "2", "--format", "json")
        assert once == again
        payload = json.loads(once)
        assert payload["exit_code"] == 0
        assert "seed" not in payload
        assert {c["name"] for c in payload["checks"]} >= {
            "product-equals-reference",
            "product-symplectic",
        }

    def test_explicit_signs(self, capsys):
        code, out = run(
            capsys, "verify-psi", "--b", "2", "--sign-mode", "explicit:1,1,1,1"
        )
        assert code == 0 and "(explicit)" in out

    def test_bad_signs_fail_not_crash(self, capsys):
        code, out = run(
            capsys, "verify-psi", "--b", "2", "--sign-mode", "explicit:1,1,1,-1"
        )
        assert code == 1
        assert "reference-well-defined" in out

    def test_form_breaking_signs_fail_not_crash(self, capsys):
        # this involution is well defined but does not preserve the form
        code, out = run(
            capsys, "verify-psi", "--b", "2", "--sign-mode", "explicit:1,-1,1,-1"
        )
        assert code == 1
        assert "reference-well-defined" in out
        assert "does not preserve the form" in out

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ("--b", "2", "--sign-mode", "explicit:1,-1,1,-1"),
                "a3a13aaebfd64fd4483e7cf37a23d51fee77b015c0c70a6534dd1d51f9789625",
            ),
            (
                ("--b", "3", "--sign-mode", "explicit:1,1,1,-1", "--format", "json"),
                "f2a632ae3f695e55e4a0b97da498662eb5300ffcef9049d1672f72805b3aafc8",
            ),
        ],
        ids=["form-breaking-table", "not-well-defined-json"],
    )
    def test_failure_reports_pinned(self, capsys, argv, digest):
        # [DERIVED] sha256 of stdout (of the JSON report without its
        # environment), measured before verify-psi rendered the sign probe
        code, out = run(capsys, "verify-psi", *argv)
        assert code == 1
        if "json" in argv:
            assert report_digest(out) == digest
        else:
            assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_largest_accepted_fibre_above_old_cap(self, capsys):
        code, out = run(capsys, "verify-psi", "--b", "8")
        assert code == 0
        assert "FAIL" not in out

    def test_b2_auto_builds_one_model(self, capsys, monkeypatch):
        # the calibration's passing b = 2 probe is the report's probe, so
        # the run builds one crossing tree where it built two models;
        # [DERIVED] sha256 of stdout taken while it built two
        calls = []
        real = canonical.crossing_tree

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        canonical.probe_signs.cache_clear()
        monkeypatch.setattr(canonical, "crossing_tree", counting)
        code, out = run(capsys, "verify-psi", "--b", "2")
        assert code == 0
        assert len(calls) == 1
        assert (
            hashlib.sha256(out.encode()).hexdigest()
            == "74c58ae038701f172dd05c8153875ac26845421a36c07e71f4aa2382f7470cfa"
        )

    def test_usage_errors(self):
        usage_error("verify-psi", "--b", "1")
        usage_error("verify-psi", "--b", "376")
        usage_error("verify-psi", "--b", "2", "--sign-mode", "garbled")
        usage_error("verify-psi", "--b", "2", "--sign-mode", "explicit:1,1")
        usage_error("verify-psi")


class TestOptimizedInterpreter:
    """No check may live in an ``assert``: ``python -O`` must give the same
    report and exit code as a normal run."""

    @staticmethod
    def cli(*flags_and_argv):
        return subprocess.run(
            [sys.executable, *flags_and_argv],
            capture_output=True, env=package_env(), timeout=120,
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify-psi", "--b", "2"),
            ("verify-psi", "--b", "2", "--sign-mode", "explicit:1,-1,1,-1"),
        ],
    )
    def test_same_bytes_and_exit_code(self, argv):
        normal = self.cli("-m", "twistbench.cli", *argv)
        stripped = self.cli("-O", "-m", "twistbench.cli", *argv)
        assert normal.returncode in (0, 1)
        assert stripped.returncode == normal.returncode
        assert stripped.stdout == normal.stdout
        assert b"Traceback" not in stripped.stderr

    def test_no_assert_statements_in_package(self):
        package = Path(twistbench.__file__).resolve().parent
        found = [
            f"{path.name}:{node.lineno}"
            for path in sorted(package.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Assert)
        ]
        assert found == []


class TestAuroux:
    def test_certificate_passes(self, capsys):
        code, out = run(capsys, "auroux", "--b", "2")
        assert code == 0
        assert "core-coverage" in out and "fronts-bare" in out

    def test_missing_central_core_fails(self, capsys):
        # half-twist-only blocks never cover the colour-crossing curve
        code, out = run(capsys, "auroux", "--b", "2", "--composition", "Xh,Yh")
        assert code == 1
        assert "sigma" in out

    def test_write_then_replay(self, capsys, tmp_path):
        cert = tmp_path / "cert.json"
        code, _ = run(capsys, "auroux", "--b", "2", "--out", str(cert))
        assert code == 0
        payload = json.loads(cert.read_text())
        assert payload["b"] == 2 and len(payload["steps"]) == 13
        code, out = run(capsys, "auroux", "--b", "2", "--replay", str(cert))
        assert code == 0 and "certificate-replays" in out

    def test_certificate_b8_pinned(self, capsys, tmp_path):
        # [DERIVED] sha256 of the certificate file: its cores and steps stay
        # byte-stable; base_cores holds the cores of the prefix the scripts
        # touch, and a step holds its core, script and front letter (the
        # earlier file with the keys sign, source_index and stripped_bare
        # deleted from every step, re-serialized by stable_json)
        cert = tmp_path / "cert.json"
        code, _ = run(capsys, "auroux", "--b", "8", "--out", str(cert))
        assert code == 0
        digest = "39ab0c6d09bcf8839bb7b565903bb2056b913890cb28e48a005a54ab6248d3dd"
        assert hashlib.sha256(cert.read_bytes()).hexdigest() == digest

    def test_tampered_replay_names_step(self, capsys, tmp_path):
        cert = tmp_path / "cert.json"
        run(capsys, "auroux", "--b", "2", "--out", str(cert))
        payload = json.loads(cert.read_text())
        payload["steps"][3]["front_letter"]["core"] = "beta_1"
        cert.write_text(json.dumps(payload))
        code, out = run(capsys, "auroux", "--b", "2", "--replay", str(cert))
        assert code == 1
        assert "step 3" in out

    def test_bad_move_names_certificate_step_and_move(self, capsys, tmp_path):
        # the b = 2 certificate has 13 steps; step 12 moves 25 times over
        # a prefix of 26 letters, so a 26th move at index 25 is out of range
        cert = tmp_path / "cert.json"
        run(capsys, "auroux", "--b", "2", "--out", str(cert))
        payload = json.loads(cert.read_text())
        assert len(payload["steps"]) == 13 and len(payload["steps"][12]["script"]) == 25
        payload["steps"][12]["script"].append(["right", 25])
        cert.write_text(json.dumps(payload))
        code, out = run(capsys, "auroux", "--b", "2", "--replay", str(cert), "--format", "json")
        assert code == 1
        [check] = json.loads(out)["checks"]
        assert (check["name"], check["status"]) == ("certificate-replays", "fail")
        assert check["details"] == (
            "first bad move at step 12: script step 12: "
            "move 25: move index 25 out of range for 26 letters"
        )

    def test_growing_replay_is_inconclusive(self, capsys, tmp_path, monkeypatch):
        # the 17th move of step 3 takes the conjugators over the cap: the
        # report names certificate step 3, and the move inside its script
        monkeypatch.setattr(factorization, "MAX_CONJUGATOR_TOTAL", 10_000)
        cert = tmp_path / "cert.json"
        run(capsys, "auroux", "--b", "2", "--out", str(cert))
        payload = json.loads(cert.read_text())
        payload["steps"][3]["script"] = [["right", 1], ["left", 2]] * 16
        cert.write_text(json.dumps(payload))
        code, out = run(capsys, "auroux", "--b", "2", "--replay", str(cert), "--format", "json")
        assert code == 3
        [check] = json.loads(out)["checks"]
        assert check["status"] == "inconclusive"
        assert check["details"] == (
            "script step 3: move 16: conjugators total 13603 letters, over the cap of 10000"
        )

    def test_emit_over_the_cap_is_inconclusive(self, capsys, tmp_path, monkeypatch):
        # the b = 2 lift starts with 120 conjugator letters; the emitted
        # certificate replays through the same check as --replay, so going
        # over the cap is inconclusive, not a usage error, and no
        # certificate is written
        monkeypatch.setattr(factorization, "MAX_CONJUGATOR_TOTAL", 50)
        cert = tmp_path / "cert.json"
        code, out = run(capsys, "auroux", "--b", "2", "--out", str(cert), "--format", "json")
        assert code == 3
        coverage, replay = json.loads(out)["checks"]
        assert (coverage["name"], coverage["status"]) == ("core-coverage", "pass")
        assert (replay["name"], replay["status"]) == ("certificate-replays", "inconclusive")
        assert "over the cap of 50" in replay["details"]
        assert not cert.exists()

    def test_emit_and_replay_end_with_the_same_checks(self, capsys, tmp_path):
        cert = tmp_path / "cert.json"
        checks = []
        for flag in ("--out", "--replay"):
            code, out = run(capsys, "auroux", "--b", "2", flag, str(cert), "--format", "json")
            assert code == 0
            checks.append(
                [(c["name"], c["status"], c["details"]) for c in json.loads(out)["checks"]]
            )
        emit, replay = checks
        assert emit == replay == [
            ("core-coverage", "pass", "all 13 reference cores appear"),
            ("certificate-replays", "pass", "13 steps reproduced"),
            ("fronts-bare", "pass", "every moved letter arrives unconjugated and positive"),
        ]

    @pytest.mark.parametrize("tamper, failing", [
        (lambda steps: [], "core-coverage"),
        (lambda steps: steps[:1] * 13, "core-coverage"),
        # step 1 keeps its core but replays step 0's script and front
        (lambda steps: [steps[0], dict(steps[0], core=steps[1]["core"])] + steps[2:], "fronts-bare"),
    ], ids=["no-steps", "first-step-13-times", "core-not-the-front"])
    def test_replay_checks_what_the_certificate_claims(self, capsys, tmp_path, tamper, failing):
        # each of these certificates still replays step by step
        cert = tmp_path / "cert.json"
        run(capsys, "auroux", "--b", "2", "--out", str(cert))
        payload = json.loads(cert.read_text())
        payload["steps"] = tamper(payload["steps"])
        cert.write_text(json.dumps(payload))
        code, out = run(capsys, "auroux", "--b", "2", "--replay", str(cert), "--format", "json")
        assert code == 1
        checks = {c["name"]: c["status"] for c in json.loads(out)["checks"]}
        assert checks["certificate-replays"] == "pass"
        assert [name for name, status in checks.items() if status == "fail"] == [failing]

    def test_emit_over_the_cost_budget_is_inconclusive(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(factorization, "MAX_CERTIFICATE_COST", 10)
        cert = tmp_path / "cert.json"
        code, out = run(capsys, "auroux", "--b", "2", "--out", str(cert), "--format", "json")
        assert code == 3
        coverage, replay = json.loads(out)["checks"]
        assert (coverage["name"], coverage["status"]) == ("core-coverage", "pass")
        assert (replay["name"], replay["status"]) == ("certificate-replays", "inconclusive")
        assert re.fullmatch(
            r"certificate scripts make \d+ moves at a cost of \d+, over the budget of 10",
            replay["details"],
        )
        assert not cert.exists()

    def test_replay_over_the_cost_budget_is_inconclusive(self, capsys, tmp_path, monkeypatch):
        cert = tmp_path / "cert.json"
        run(capsys, "auroux", "--b", "2", "--out", str(cert))
        monkeypatch.setattr(factorization, "MAX_CERTIFICATE_COST", 10)
        code, out = run(capsys, "auroux", "--b", "2", "--replay", str(cert), "--format", "json")
        assert code == 3
        [check] = json.loads(out)["checks"]
        assert check["status"] == "inconclusive"
        assert "over the budget of 10" in check["details"]

    def test_long_composition_passes(self, capsys):
        # the scripts touch only the first X,Y pair, and the replay and the
        # conjugator cap see only that prefix
        code, out = run(capsys, "auroux", "--b", "20", "--composition", ",".join(["X", "Y"] * 50))
        assert code == 0 and "fronts-bare" in out

    def test_late_block_is_over_the_cost_budget(self, capsys, tmp_path):
        # every alpha and gamma core lies in the last block: the cost of the
        # moves is known before the first move and refused at once
        cert = tmp_path / "cert.json"
        start = time.perf_counter()
        code, out = run(
            capsys, "auroux", "--b", "40", "--composition", ",".join(["Y"] * 100 + ["X"]),
            "--out", str(cert),
        )
        assert time.perf_counter() - start < 10
        assert code == 3
        assert f"over the budget of {factorization.MAX_CERTIFICATE_COST}" in out
        assert not cert.exists()

    @pytest.mark.parametrize("extra", [(), ("--out", "cert.json")], ids=["report", "out"])
    def test_emit_builds_the_cores_once(self, capsys, tmp_path, monkeypatch, extra):
        # the certificate's base_cores are the one tuple of cores; its
        # replay reads each letter's core in place
        calls = []
        original = factorization.Factorization.cores

        def counting(fact):
            calls.append(len(fact))
            return original(fact)

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(factorization.Factorization, "cores", counting)
        code, _ = run(capsys, "auroux", "--b", "2", *extra)
        assert code == 0
        assert len(calls) == 1

    def test_replay_builds_no_cores(self, capsys, tmp_path, monkeypatch):
        cert = tmp_path / "cert.json"
        run(capsys, "auroux", "--b", "2", "--out", str(cert))
        calls = []
        monkeypatch.setattr(
            factorization.Factorization, "cores", lambda fact: calls.append(fact)
        )
        code, _ = run(capsys, "auroux", "--b", "2", "--replay", str(cert))
        assert code == 0
        assert calls == []

    def test_step_sign_boolean_is_usage_error(self, capsys, tmp_path):
        cert = tmp_path / "cert.json"
        run(capsys, "auroux", "--b", "2", "--out", str(cert))
        payload = json.loads(cert.read_text())
        payload["steps"][0]["front_letter"]["sign"] = True
        cert.write_text(json.dumps(payload))
        usage_error("auroux", "--b", "2", "--replay", str(cert))
        assert "key 'sign' must be int, got bool" in capsys.readouterr().err

    def test_every_step_key_is_checked(self, capsys, tmp_path):
        # a step records only what its replay checks: changing any one of
        # its values, with the type kept, fails the replay
        cert = tmp_path / "cert.json"
        run(capsys, "auroux", "--b", "2", "--out", str(cert))
        text = cert.read_text()
        first, second = json.loads(text)["steps"][:2]
        assert set(first) == {"core", "script", "front_letter"}
        for key, value in first.items():
            # step 1's core, script or front letter: same type, new value
            new = second[key]
            assert new != value and type(new) is type(value)
            tampered = json.loads(text)
            tampered["steps"][0][key] = new
            cert.write_text(json.dumps(tampered))
            code, _ = run(capsys, "auroux", "--b", "2", "--replay", str(cert))
            assert code != 0, key

    @pytest.mark.parametrize(
        "value, b, found",
        [(True, "2", "true"), (1, "2", "1"), (2, "3", "2"), ("2", "2", "str")],
        ids=["boolean", "one", "other-b", "string"],
    )
    def test_replay_b_must_match(self, capsys, tmp_path, value, b, found):
        cert = tmp_path / "cert.json"
        run(capsys, "auroux", "--b", "2", "--out", str(cert))
        payload = json.loads(cert.read_text())
        payload["b"] = value
        cert.write_text(json.dumps(payload))
        usage_error("auroux", "--b", b, "--replay", str(cert))
        assert f"certificate key 'b' is {found}, not --b {b}" in capsys.readouterr().err

    def test_replay_composition_must_match(self, capsys, tmp_path):
        cert = tmp_path / "cert.json"
        run(capsys, "auroux", "--b", "2", "--out", str(cert))
        usage_error("auroux", "--b", "2", "--composition", "Yh,Xh", "--replay", str(cert))
        assert (
            "certificate key 'composition' is X,Y, not --composition Yh,Xh"
            in capsys.readouterr().err
        )
        code, out = run(
            capsys, "auroux", "--b", "2", "--composition", "X,Y", "--replay", str(cert)
        )
        assert code == 0 and "certificate-replays" in out

    def test_replay_list_label_is_usage_error(self, capsys, tmp_path):
        # a label read from a certificate is checked before it keys a lift
        cert = tmp_path / "cert.json"
        run(capsys, "auroux", "--b", "2", "--out", str(cert))
        payload = json.loads(cert.read_text())
        payload["composition"] = [["X"], "Y"]
        cert.write_text(json.dumps(payload))
        usage_error("auroux", "--b", "2", "--replay", str(cert))
        assert "unknown block label ['X']" in capsys.readouterr().err

    def test_each_block_is_lifted_once(self, capsys, monkeypatch):
        from twistbench import monodromy

        calls = []
        original = monodromy.lift_to_twists

        def counting(block):
            calls.append(block)
            return original(block)

        monkeypatch.setattr(monodromy, "lift_to_twists", counting)
        code, _ = run(capsys, "auroux", "--b", "2", "--composition", "X,Y,X,Y")
        assert code == 0
        assert len(calls) == 2

    @pytest.mark.parametrize("path", ["emit", "replay"])
    def test_composition_over_the_cap_is_usage_error(self, capsys, tmp_path, path):
        over = (["X", "Y"] * AUROUX_MAX_BLOCKS)[: AUROUX_MAX_BLOCKS + 1]
        if path == "emit":
            usage_error("auroux", "--b", "2", "--composition", ",".join(over))
        else:
            cert = tmp_path / "cert.json"
            run(capsys, "auroux", "--b", "2", "--out", str(cert))
            payload = json.loads(cert.read_text())
            payload["composition"] = over
            cert.write_text(json.dumps(payload))
            usage_error("auroux", "--b", "2", "--replay", str(cert))
        assert (
            f"composition has {AUROUX_MAX_BLOCKS + 1} blocks, over the cap of {AUROUX_MAX_BLOCKS}"
            in capsys.readouterr().err
        )

    def test_composition_at_the_cap_runs(self, capsys, monkeypatch):
        from twistbench import cli

        monkeypatch.setattr(cli, "AUROUX_MAX_BLOCKS", 4)
        code, out = run(capsys, "auroux", "--b", "2", "--composition", "X,Y,X,Y")
        assert code == 0 and "fronts-bare" in out
        usage_error("auroux", "--b", "2", "--composition", "X,Y,X,Y,X")
        assert "composition has 5 blocks, over the cap of 4" in capsys.readouterr().err

    def test_replay_with_out_is_usage_error(self, capsys, tmp_path):
        # --out names the certificate, so a replay must not overwrite it
        cert = tmp_path / "cert.json"
        run(capsys, "auroux", "--b", "2", "--out", str(cert))
        before = cert.read_bytes()
        usage_error("auroux", "--b", "2", "--replay", str(cert), "--out", str(cert))
        assert "cannot be combined with --replay" in capsys.readouterr().err
        assert cert.read_bytes() == before

    def test_replay_payload_missing_key_is_usage_error(self, capsys, tmp_path):
        cert = tmp_path / "cert.json"
        cert.write_text('{"b":2}')
        usage_error("auroux", "--b", "2", "--replay", str(cert))
        assert "missing key 'base_cores'" in capsys.readouterr().err

    @pytest.fixture
    def no_homology_model(self, monkeypatch):
        """Make every homology-model build fail the test; the sign
        calibration, run afresh, builds none."""

        def forbidden(*args, **kwargs):
            pytest.fail("auroux built a homology model")

        canonical.probe_signs.cache_clear()
        monkeypatch.setattr(homology, "reference_model", forbidden)
        monkeypatch.setattr(homology, "homology_model", forbidden)
        yield
        monkeypatch.undo()
        canonical.probe_signs.cache_clear()
        canonical.canonical_sigma_signs()

    def test_emit_and_replay_build_no_homology_model(
        self, capsys, tmp_path, no_homology_model
    ):
        cert = tmp_path / "cert.json"
        code, _ = run(capsys, "auroux", "--b", "2", "--out", str(cert))
        assert code == 0
        code, out = run(capsys, "auroux", "--b", "2", "--replay", str(cert))
        assert code == 0 and "certificate-replays" in out


class TestExports:
    def test_config_dot(self, capsys):
        code, out = run(capsys, "export", "config", "--b", "2", "--format", "dot")
        assert code == 0
        assert out.startswith("graph configuration {")
        nodes = [l for l in out.splitlines() if "[label=" in l and " -- " not in l]
        assert len(nodes) == 12

    def test_config_json(self, capsys):
        code, out = run(capsys, "export", "config", "--b", "3", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["b"] == 3 and len(payload["curves"]) == 21

    def test_monodromy_emit_json(self, capsys):
        code, out = run(capsys, "monodromy", "emit", "--b", "2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["strands"] == 8
        assert payload["composition_default"] == ["X", "Y"]
        assert len(payload["blocks"]["X"]) == 10

    @pytest.mark.parametrize(
        "b, digest",
        [
            (2, "1acccb7491634b8d828dbc07214420523f313227ffaeedaca5b710e8a882b5ba"),
            (3, "4fd3c0edb62b028a478d5172994f5eea31818aeeb54dae812db368bd94d99925"),
        ],
    )
    def test_monodromy_emit_bytes_pinned(self, capsys, b, digest):
        # [DERIVED] sha256 of the stdout: the emitted colouring and blocks
        # stay byte-stable
        code, out = run(capsys, "monodromy", "emit", "--b", str(b))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "fmt, digest",
        [
            ("json", "c77bdea42d8c317762dc55efa3fda8f0e0dd2c4c883539fd330354ee8b729638"),
            ("dot", "b4c509018d7e06ff7e0751b13870360ef50d0743a9e75d2857c47dac02b1a88a"),
        ],
    )
    def test_config_bytes_pinned(self, capsys, fmt, digest):
        # [DERIVED] sha256 of the stdout: the configuration of b=2
        code, out = run(capsys, "export", "config", "--b", "2", "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ("export", "config", "--b", "400", "--format", "json"),
                "8507d2a3cdefb165c2e6b9f60395cc7a01e537624c75767e7f4c01c108b0a869",
            ),
            (
                ("export", "config", "--b", "400", "--format", "dot"),
                "ee86ec1440efeb9a4fa4a53764ed33dbe16b3ba4bde9e6f09b5b6a8bc9d715c7",
            ),
            (
                ("monodromy", "emit", "--b", "30"),
                "5eef3bc7d4c76d32c34493c4f2c147ca68ebe3650bf111b24838350adc31d063",
            ),
        ],
        ids=["config-json-400", "config-dot-400", "monodromy-30"],
    )
    def test_large_outputs_pinned(self, capsys, tmp_path, argv, digest):
        # [DERIVED] sha256 of the --out file: the configuration and the
        # monodromy blocks stay byte-stable at large b
        target = tmp_path / "out"
        code, _ = run(capsys, *argv, "--out", str(target))
        assert code == 0
        assert hashlib.sha256(target.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize(
        "argv, seconds",
        [
            (("export", "config", "--b", "1000", "--format", "json"), 2),
            (("export", "config", "--b", "1000", "--format", "dot"), 2),
            (("monodromy", "emit", "--b", "100"), 4),
        ],
        ids=["config-json-1000", "config-dot-1000", "monodromy-100"],
    )
    def test_large_outputs_scale_with_their_size(self, capsys, tmp_path, argv, seconds):
        # the incidence lists take one pass over the crossings and the strand
        # permutations one swap per letter; scanning every crossing for each
        # curve, or rebuilding the position list for each letter, took over
        # 10 s for each of these on a 2-core x86-64 machine
        target = tmp_path / "out"
        start = time.perf_counter()
        code, _ = run(capsys, *argv, "--out", str(target))
        assert time.perf_counter() - start < seconds
        assert code == 0 and target.stat().st_size > 0

    def test_export_only_config(self):
        # the monodromy blocks have one command, ``monodromy emit``
        usage_error("export", "monodromy", "--b", "2", "--format", "json")

    def test_out_file_stable(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        run(capsys, "monodromy", "emit", "--b", "2", "--format", "json", "--out", str(target))
        once = target.read_bytes()
        run(capsys, "monodromy", "emit", "--b", "2", "--format", "json", "--out", str(target))
        assert target.read_bytes() == once

    def test_dot_restricted(self):
        usage_error("monodromy", "emit", "--b", "2", "--format", "dot")
        usage_error("verify-psi", "--b", "2", "--format", "dot")
        usage_error("monodromy", "emit", "--b", "2", "--format", "table")
        usage_error("export", "config", "--b", "2", "--format", "table")

    @pytest.mark.parametrize(
        "argv", [("export", "config", "--b", "2"), ("monodromy", "emit", "--b", "2")]
    )
    def test_default_format_is_json(self, capsys, argv):
        default = run(capsys, *argv)
        assert default[0] == 0
        assert default == run(capsys, *argv, "--format", "json")


class TestPinnedReports:
    @pytest.mark.parametrize(
        "argv, digest",
        [
            pytest.param(
                ("verify-psi", "--b", "2"),
                "0d6d6987c67192097b3fff0dd840a65321c630794caa6f54d9c387a7532e3377",
                id="verify-psi",
            ),
            pytest.param(
                ("auroux", "--b", "2"),
                "06f9098f9681adcc1c7d4671d80371303634b448512306c7052a1d8f1e357a8d",
                id="auroux",
            ),
            pytest.param(
                ("invariants", "--a", "14", "--b", "8", "--c", "6", "--k", "2"),
                "bcd2581c55a893abb4f8531a7970253a67fdd46a2bb8708412468cb03b529e39",
                id="invariants",
            ),
            pytest.param(
                ("braid", "manfredini", "--n", "6", "--k", "3"),
                "c66fd8468597d121de20a870ff6f1581137efb18366d2dcf4df466b46b67aa42",
                id="braid-manfredini",
            ),
            pytest.param(
                ("verify-psi", "--b", "2", "--sign-mode", "explicit:1,1,1,1"),
                "77c586ca293915ec5dda1fa1a35c3b8654f694fd018cba2e76f1a26cbfea2b31",
                id="verify-psi-explicit",
            ),
        ],
    )
    def test_json_report_pinned(self, capsys, argv, digest):
        # [DERIVED] sha256 of the JSON report without its environment
        code, out = run(capsys, *argv, "--format", "json")
        assert code == 0
        assert report_digest(out) == digest

    @pytest.mark.parametrize(
        "argv, exit_code, digest",
        [
            pytest.param(
                ("invariants", "--a", "14", "--b", "8", "--c", "6", "--k", "2"),
                0,
                "10ee40e7c74b13211106c74a7b37f3557f7ef5c57db25a3af743b7dcf08639d8",
                id="invariants",
            ),
            pytest.param(
                ("auroux", "--b", "2", "--composition", "Xh,Yh"),
                1,
                "4c25157ec9e4b13f64fc47fb3dda93b630fd7c9a8ae24385c9fe921057c8fbb5",
                id="auroux-missing-core",
            ),
            pytest.param(
                ("braid", "eq", "--n", "3", "--lhs", "[1,2,1]", "--rhs", "[2,1,2]"),
                0,
                "4c9c96e1799b14c422b8080e24c56285676ac9cdc65dd4171254e82883341ba3",
                id="braid-eq",
            ),
            pytest.param(
                # one letter changes the strand permutation
                ("braid", "eq", "--n", "4", "--lhs", "[1,2,-3,2]", "--rhs", "[1,3,-3,2]"),
                1,
                "6fddd6fef085c2ea7f5e4d44f6f1886ea1cd4ce0ed756063d2567563082abf6a",
                id="braid-eq-permutation",
            ),
            pytest.param(
                # the right side is the left times the full twist
                ("braid", "eq", "--n", "3", "--lhs", "[1,-2]", "--rhs", "[1,-2,1,2,1,2,1,2]"),
                1,
                "65226228d0eb290f613076736abda54d4676a2ed896a547d31a740bc42d5d126",
                id="braid-eq-full-twist",
            ),
        ]
        + [
            pytest.param(("verify-psi", "--b", str(b)), 0, digest, id=f"verify-psi-b{b}")
            for b, digest in (
                (3, "53a2f8d279546cde01c995447a609d317bd9fba74bfac688c8ec765394415f69"),
                (4, "bb35409fcfa01ca967afb332c0022f1f135aa72a24fb3471f84386c41dd33e0e"),
            )
        ]
        + [
            pytest.param(("auroux", "--b", str(b)), 0, digest, id=f"auroux-b{b}")
            for b, digest in (
                (3, "40520921b4a6b265ae86a107d5bfe0359fd35474d09dc91f5220c0915c16b7c4"),
                (4, "c9b075d67356dbbfafeacfcef6e8c1431315e6de720341f432793adb9c5704c1"),
                (5, "8ac46b1f7b2c8621123c279a1bedd91c0f574d352cad4e225d7be1893fe8b634"),
                (6, "baa5ee86aa40dd04a0b201ec346d5a9583b3390009301dbaef4db4d92465707b"),
                (7, "8d1c7a6f5935f2425d19262c94f9327f0d295d6580f317d9605b6b4da09cdd44"),
                (8, "908e4590a9fb117afa6c2437a88914f89f61ebd492db449c1968b6889465a491"),
            )
        ],
    )
    def test_table_report_pinned(self, capsys, argv, exit_code, digest):
        # [DERIVED] sha256 of the table on stdout, which holds no environment
        code, out = run(capsys, *argv)
        assert code == exit_code
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestInvariants:
    def test_reference_values(self, capsys):
        code, out = run(
            capsys, "invariants", "--a", "14", "--b", "8", "--c", "6",
            "--k", "2", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["invariants"] == {
            "chi": 412, "K2": 2016, "divisibility": 2, "fibre_genus": 29,
        }
        assert len(payload["family"]) == 2
        assert payload["hypotheses"]["all_pass"]
        assert payload["deformation_dimension"] == 913

    def test_discrepancy_note_present(self, capsys):
        _, out = run(
            capsys, "invariants", "--a", "14", "--b", "8", "--c", "6", "--format", "json"
        )
        payload = json.loads(out)["payload"]
        assert payload["chi_report"]["variant_agrees"] is False
        assert "note" in json.loads(out)["payload"]

    def test_failed_hypotheses_fail(self, capsys):
        code, out = run(
            capsys, "invariants", "--a", "10", "--b", "6", "--c", "4", "--k", "2"
        )
        assert code == 1
        assert "family-hypotheses" in out

    def test_table_format(self, capsys):
        code, out = run(capsys, "invariants", "--a", "14", "--b", "8", "--c", "6")
        assert code == 0
        assert "chi            412" in out
        assert "note:" in out

    def test_usage(self):
        usage_error("invariants", "--a", "0", "--b", "8", "--c", "6")
        usage_error("invariants", "--a", "14", "--b", "8")

    # CoverType is the one positivity rule, for --d as for --a, --b, --c
    @pytest.mark.parametrize(
        "flag, message",
        [
            ("--a", "a must be a positive integer, got 0"),
            ("--d", "d must be a positive integer, got 0"),
        ],
    )
    def test_nonpositive_parameter_message(self, capsys, flag, message):
        argv = {"--a": "14", "--b": "8", "--c": "6", "--d": "8", flag: "0"}
        usage_error("invariants", *(x for pair in argv.items() for x in pair))
        assert capsys.readouterr().err.endswith(f"error: {message}\n")


class TestBraid:
    def test_eq_equal(self, capsys):
        code, out = run(
            capsys, "braid", "eq", "--n", "3", "--lhs", "[1,2,1]", "--rhs", "[2,1,2]"
        )
        assert code == 0 and "words-equal" in out

    def test_eq_distinguishes_inverse(self, capsys):
        code, _ = run(capsys, "braid", "eq", "--n", "3", "--lhs", "[1]", "--rhs", "[-1]")
        assert code == 1

    def test_eq_usage(self):
        usage_error("braid", "eq", "--n", "3", "--lhs", "[1]")
        usage_error("braid", "eq", "--n", "3", "--lhs", "[1]", "--rhs", "oops")
        usage_error("braid", "eq", "--n", "3", "--lhs", "[1]", "--rhs", "[0]")
        usage_error("braid", "eq", "--n", "2", "--lhs", "[2]", "--rhs", "[1]")

    @pytest.mark.parametrize("n", ["0", "1"])
    def test_fewer_than_two_strands_is_usage_error(self, capsys, n):
        usage_error("braid", "eq", "--n", n, "--lhs", "[]", "--rhs", "[]")
        assert "--n must be at least 2" in capsys.readouterr().err
        usage_error("braid", "manfredini", "--n", n, "--k", "1")
        assert "--n must be at least 2" in capsys.readouterr().err

    def test_json_booleans_are_not_generators(self, capsys):
        usage_error("braid", "eq", "--n", "3", "--lhs", "[true]", "--rhs", "[1]")
        assert "--lhs: braid words are JSON integer arrays" in capsys.readouterr().err
        usage_error("braid", "eq", "--n", "3", "--lhs", "[1]", "--rhs", "[1,false]")
        assert "--rhs: braid words are JSON integer arrays" in capsys.readouterr().err

    def test_eq_malformed_input_is_quoted_short(self, capsys):
        deep = "[" * 3000 + "]" * 3000
        usage_error("braid", "eq", "--n", "3", "--lhs", deep, "--rhs", "[1]")
        err = capsys.readouterr().err
        assert "--lhs" in err and "--rhs" not in err
        assert len(err.encode()) < 1024

    def test_eq_long_word_stays_small(self):
        # the free-group images of (s1 s2^-1)^20 grow exponentially and do
        # not fit in 1 GiB, so equality must be decided by the curve action
        resource = pytest.importorskip("resource")
        cap = 1 << 30

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

        word = [1, -2] * 20
        padded = [2, -2] + word[:20] + [-1, 1] + word[20:] + [1, 2, -2, -1]
        argv = [
            sys.executable, "-m", "twistbench.cli", "braid", "eq", "--n", "3",
            "--lhs", json.dumps(word), "--rhs", json.dumps(padded),
        ]
        start = time.perf_counter()
        done = subprocess.run(
            argv, capture_output=True, env=package_env(), timeout=10, preexec_fn=limit
        )
        assert time.perf_counter() - start < 10
        assert b"Traceback" not in done.stderr
        assert done.returncode == 0
        assert b"words-equal" in done.stdout

    def test_manfredini_holds(self, capsys):
        code, out = run(capsys, "braid", "manfredini", "--n", "4", "--k", "2")
        assert code == 0
        assert out.count("PASS") == 6

    def test_manfredini_inconclusive_only_exits_3(self, capsys):
        code, out = run(capsys, "braid", "manfredini", "--n", "2", "--k", "1")
        assert code == 3
        assert "INCONCLUSIVE" in out and "FAIL" not in out

    def test_manfredini_usage(self):
        usage_error("braid", "manfredini", "--n", "4")
        usage_error("braid", "manfredini", "--n", "4", "--k", "4")


@pytest.fixture
def replay_path(tmp_path):
    from twistbench.factorization import apply_script
    from twistbench.monodromy import lifted_composition
    from twistbench.serialize import replay_file_to_dict, stable_json

    fact = lifted_composition(2)
    script = (("right", 3), ("left", 5))
    payload = replay_file_to_dict(2, fact, script, apply_script(fact, script))
    path = tmp_path / "replay.json"
    path.write_text(stable_json(payload))
    return path


class TestHurwitzReplay:
    def test_good_file_replays(self, capsys, replay_path):
        code, out = run(capsys, "hurwitz", "replay", "--file", str(replay_path))
        assert code == 0
        assert "result-matches" in out

    def test_report_pinned(self, capsys, replay_path, monkeypatch):
        # [DERIVED] sha256 of the JSON report without its environment; the
        # relative path keeps the echoed command fixed
        monkeypatch.chdir(replay_path.parent)
        code, out = run(capsys, "hurwitz", "replay", "--file", "replay.json", "--format", "json")
        assert code == 0
        assert report_digest(out) == (
            "02f9a3dba386352cea6f2260b346ae04c1669396dcabcc2d0cdec694e71928f9"
        )

    def test_edited_result_fails(self, capsys, replay_path):
        payload = json.loads(replay_path.read_text())
        letters = payload["result"]["letters"]
        assert letters[0]["core"] != "beta_2"
        letters[0]["core"] = "beta_2"
        replay_path.write_text(json.dumps(payload))
        code, out = run(capsys, "hurwitz", "replay", "--file", str(replay_path))
        assert code == 1
        assert "letters differ" in out

    def test_bad_move_index_fails_with_step(self, capsys, replay_path):
        # moves keep the letter count, so the loader rejects the index
        payload = json.loads(replay_path.read_text())
        payload["script"][1] = ["right", 999]
        replay_path.write_text(json.dumps(payload))
        usage_error("hurwitz", "replay", "--file", str(replay_path))
        assert "script step 1: move index 999 out of range" in capsys.readouterr().err

    @pytest.mark.parametrize("past_end", [False, True])
    def test_move_index_bounds(self, capsys, replay_path, past_end):
        # n letters have n-1 adjacent pairs: indices 0 .. n-2
        payload = json.loads(replay_path.read_text())
        last = len(payload["factorization"]["letters"]) - 2
        index = last + 1 if past_end else -1
        payload["script"][0] = ["left", index]
        replay_path.write_text(json.dumps(payload))
        usage_error("hurwitz", "replay", "--file", str(replay_path))
        assert f"script step 0: move index {index} out of range" in capsys.readouterr().err
        payload["script"][0] = ["left", last]
        replay_path.write_text(json.dumps(payload))
        code, out = run(capsys, "hurwitz", "replay", "--file", str(replay_path))
        # the last pair moves; only the recorded result no longer matches
        assert code == 1 and "letters differ" in out

    def test_missing_file_is_usage_error(self, capsys, tmp_path):
        usage_error("hurwitz", "replay", "--file", str(tmp_path / "absent.json"))
        assert "cannot read" in capsys.readouterr().err

    def test_out_into_missing_directory_is_usage_error(self, capsys, tmp_path, replay_path):
        target = tmp_path / "absent" / "out.json"
        usage_error("hurwitz", "replay", "--file", str(replay_path), "--out", str(target))
        assert f"cannot write {target}" in capsys.readouterr().err

    def test_payload_missing_key_is_usage_error(self, capsys, replay_path):
        replay_path.write_text('{"b":2}')
        usage_error("hurwitz", "replay", "--file", str(replay_path))
        assert "missing key 'factorization'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "path, message",
        [
            (("script", 0, 1), "key 'script' must hold [str, int] pairs"),
            (("factorization", "letters", 0, "sign"), "key 'sign' must be int, got bool"),
        ],
        ids=["move-index", "letter-sign"],
    )
    def test_json_boolean_is_no_int(self, capsys, replay_path, path, message):
        payload = json.loads(replay_path.read_text())
        *head, last = path
        target = payload
        for key in head:
            target = target[key]
        target[last] = True
        replay_path.write_text(json.dumps(payload))
        usage_error("hurwitz", "replay", "--file", str(replay_path))
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "b, message",
        [
            (True, "key 'b' must be int, got bool"),
            (1, "key 'b' must be at least 2, got 1"),
            (-5, "key 'b' must be at least 2, got -5"),
        ],
    )
    def test_b_must_be_an_int_of_at_least_two(self, capsys, replay_path, b, message):
        payload = json.loads(replay_path.read_text())
        payload["b"] = b
        replay_path.write_text(json.dumps(payload))
        usage_error("hurwitz", "replay", "--file", str(replay_path))
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "part, slot", [("factorization", "core"), ("result", "conjugator")]
    )
    def test_curve_outside_b_configuration(self, capsys, replay_path, part, slot):
        # b=2 chains have 3 curves, so alpha_4 is not in the configuration
        payload = json.loads(replay_path.read_text())
        letter = next(t for t in payload[part]["letters"] if t["conjugator"])
        if slot == "core":
            letter["core"] = "alpha_4"
        else:
            letter["conjugator"][0][0] = "alpha_4"
        replay_path.write_text(json.dumps(payload))
        usage_error("hurwitz", "replay", "--file", str(replay_path))
        assert (
            "curve alpha_4 lies outside the configuration of key 'b' = 2"
            in capsys.readouterr().err
        )
        # b=3 chains have 5 curves: the file loads and replays
        payload["b"] = 3
        replay_path.write_text(json.dumps(payload))
        code, out = run(capsys, "hurwitz", "replay", "--file", str(replay_path))
        assert code in (0, 1) and "script-applies" in out

    def replay_under_one_gib(self, tmp_path, fact, script):
        """``hurwitz replay`` of ``script`` in a fresh process limited to
        1 GiB of address space; returns its one check."""
        from twistbench.serialize import replay_file_to_dict, stable_json

        path = tmp_path / "growth.json"
        path.write_text(stable_json(replay_file_to_dict(2, fact, script, fact)))

        def one_gib():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        proc = subprocess.run(
            [sys.executable, "-m", "twistbench.cli", "hurwitz", "replay",
             "--file", str(path), "--format", "json"],
            env=package_env(), capture_output=True, text=True, timeout=60,
            preexec_fn=one_gib,
        )
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr == ""
        report = json.loads(proc.stdout)
        assert report["exit_code"] == 3
        [check] = report["checks"]
        assert check["name"] == "script-applies"
        assert check["status"] == "inconclusive"
        assert f"over the cap of {factorization.MAX_CONJUGATOR_TOTAL}" in check["details"]
        return check

    @staticmethod
    def growth_letters(n):
        """``n`` letters with two-letter conjugators; ``(("right", i),
        ("left", i + 1)) * k`` on them multiplies the longest conjugator
        by about 2.6 per repeat."""
        from twistbench.factorization import TwistLetter
        from twistbench.surface import build_reference_configuration

        c = build_reference_configuration(2).curves
        return tuple(
            TwistLetter(c[i % 4], 1, ((c[(i + 1) % 4 + 4], 1), (c[(i + 2) % 4 + 8], -1)))
            for i in range(n)
        )

    def test_conjugator_growth_is_inconclusive(self, tmp_path):
        # 16 repeats exhausted 1 GiB of address space before the cap
        from twistbench.factorization import Factorization

        fact = Factorization(self.growth_letters(4))
        self.replay_under_one_gib(tmp_path, fact, (("right", 1), ("left", 2)) * 16)

    def test_conjugator_total_is_capped(self, tmp_path):
        # 11 repeats grow one conjugator to about 377k letters, under the
        # cap; moving that letter to the front then conjugates each of the
        # other 200 letters by it, which would need over 1 GiB
        from twistbench.factorization import Factorization

        fact = Factorization(self.growth_letters(204))
        script = (("right", 201), ("left", 202)) * 11
        script += tuple(("right", i) for i in range(201, -1, -1))
        check = self.replay_under_one_gib(tmp_path, fact, script)
        assert check["details"].startswith("script step 22:")


class TestMemoryBackstop:
    """A command that exhausts memory reports one inconclusive ``memory``
    check (exit 3), not a traceback.  The commands are stubbed to raise
    ``MemoryError``; no test allocates until memory runs out."""

    COMMANDS = [
        ("cmd_verify_psi", ("verify-psi", "--b", "2")),
        ("cmd_auroux", ("auroux", "--b", "2")),
        ("cmd_export", ("export", "config", "--b", "2")),
        ("cmd_monodromy", ("monodromy", "emit", "--b", "2")),
        ("cmd_invariants", ("invariants", "--a", "14", "--b", "8", "--c", "6")),
        ("cmd_braid", ("braid", "eq", "--n", "3", "--lhs", "[1]", "--rhs", "[1]")),
        ("cmd_hurwitz", ("hurwitz", "replay", "--file", "replay.json")),
    ]

    @staticmethod
    def exhausted(args):
        raise MemoryError

    @pytest.mark.parametrize("name, argv", COMMANDS, ids=[a[0] for _, a in COMMANDS])
    def test_every_command_reports_inconclusive(self, capsys, monkeypatch, name, argv):
        from twistbench import cli

        monkeypatch.setattr(cli, name, self.exhausted)
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err == ""
        assert "ran out of memory (MemoryError)" in captured.out

    def test_table_report(self, capsys, monkeypatch):
        from twistbench import cli

        monkeypatch.setattr(cli, "cmd_braid", self.exhausted)
        code, out = run(capsys, "braid", "eq", "--n", "3", "--lhs", "[1]", "--rhs", "[1]")
        assert code == 3
        assert out == (
            "command: braid eq --n 3 --lhs [1] --rhs [1]\n"
            "memory  INCONCLUSIVE  ran out of memory (MemoryError); no verdict\n"
            "exit code: 3\n"
        )

    def test_json_report_names_the_cause(self, capsys, monkeypatch):
        from twistbench import cli

        monkeypatch.setattr(cli, "cmd_verify_psi", self.exhausted)
        code, out = run(capsys, "verify-psi", "--b", "2", "--format", "json")
        report = json.loads(out)
        assert code == report["exit_code"] == 3
        [check] = report["checks"]
        assert (check["name"], check["status"]) == ("memory", "inconclusive")
        assert "MemoryError" in check["details"]

    def test_error_inside_a_layer(self, capsys, monkeypatch):
        # raised below the command, where a real allocation would fail
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(canonical, "probe_signs", exhausted)
        code, out = run(capsys, "verify-psi", "--b", "3", "--sign-mode", "explicit:1,1,1,1")
        assert code == 3 and "MemoryError" in out

    def test_report_to_an_unwritable_out_is_usage_error(self, capsys, tmp_path, monkeypatch):
        from twistbench import cli

        monkeypatch.setattr(cli, "cmd_verify_psi", self.exhausted)
        target = tmp_path / "absent" / "out.json"
        usage_error("verify-psi", "--b", "2", "--out", str(target))
        assert f"cannot write {target}" in capsys.readouterr().err


class TestUsage:
    def test_unknown_actions(self):
        usage_error("braid", "foo", "--n", "3")
        usage_error("hurwitz", "foo", "--file", "replay.json")
        usage_error("monodromy", "foo", "--b", "2")

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify-psi", "--b", "2"),
            ("auroux", "--b", "2"),
            ("export", "config", "--b", "2"),
            ("monodromy", "emit", "--b", "2"),
            ("invariants", "--a", "14", "--b", "8", "--c", "6"),
            ("braid", "eq", "--n", "3", "--lhs", "[1]", "--rhs", "[1]"),
            ("hurwitz", "replay", "--file", "replay.json"),
        ],
    )
    def test_seed_is_not_an_option(self, capsys, argv):
        usage_error(*argv, "--seed", "0")
        assert "unrecognized arguments: --seed 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify-psi", "--b", "2"),
            ("auroux", "--b", "2"),
            ("export", "config", "--b", "2"),
            ("monodromy", "emit", "--b", "2"),
            ("invariants", "--a", "14", "--b", "8", "--c", "6"),
            ("braid", "eq", "--n", "3", "--lhs", "[1]", "--rhs", "[1]"),
        ],
    )
    def test_out_into_missing_directory(self, capsys, tmp_path, argv):
        target = tmp_path / "absent" / "out.json"
        usage_error(*argv, "--out", str(target))
        assert f"cannot write {target}" in capsys.readouterr().err

    def test_deeply_nested_json_is_malformed(self, capsys, tmp_path):
        deep = "[" * 3000 + "]" * 3000
        for name, data in (
            ("deep.json", deep.encode()),
            ("truncated.json", b"[1,2\n"),
            ("binary.json", b"\xff\xfe"),
        ):
            path = tmp_path / name
            path.write_bytes(data)
            for argv in (
                ("hurwitz", "replay", "--file", str(path)),
                ("auroux", "--b", "2", "--replay", str(path)),
            ):
                usage_error(*argv)
                assert f"malformed JSON in {path}" in capsys.readouterr().err
        usage_error("braid", "eq", "--n", "3", "--lhs", deep, "--rhs", "[1]")
        assert "braid words are JSON integer arrays" in capsys.readouterr().err


class TestArgumentTypes:
    """Each rule on one argument is its parser type, so the parser alone
    accepts or rejects a value, without running the command."""

    FIBRES = [
        (("verify-psi",), 375),
        (("auroux",), 40),
        (("export", "config"), 30000),
        (("monodromy", "emit"), 300),
    ]

    @staticmethod
    def rejected(capsys, *argv):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(list(argv))
        assert exc.value.code == 2
        return capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, largest", FIBRES, ids=[" ".join(c) for c, _ in FIBRES]
    )
    def test_fibre_range(self, capsys, command, largest):
        for b in (2, largest):
            assert build_parser().parse_args([*command, "--b", str(b)]).b == b
        err = self.rejected(capsys, *command, "--b", "1")
        assert "argument --b: --b must be at least 2, got 1" in err
        err = self.rejected(capsys, *command, "--b", str(largest + 1))
        assert f"argument --b: {' '.join(command)} accepts --b up to {largest}" in err
        assert err.endswith(f"got {largest + 1}\n")
        err = self.rejected(capsys, *command, "--b", "x")
        assert err.endswith("argument --b: invalid int value: 'x'\n")

    def test_strands(self, capsys):
        args = build_parser().parse_args(["braid", "manfredini", "--n", "2", "--k", "1"])
        assert args.n == 2
        err = self.rejected(capsys, "braid", "manfredini", "--n", "1", "--k", "1")
        assert err.endswith("argument --n: --n must be at least 2 strands, got 1\n")
        err = self.rejected(capsys, "braid", "eq", "--n", "x")
        assert err.endswith("argument --n: invalid int value: 'x'\n")

    def test_sign_mode(self, capsys):
        parse = build_parser().parse_args
        assert parse(["verify-psi", "--b", "2"]).sign_mode == "auto"
        args = parse(["verify-psi", "--b", "2", "--sign-mode", "explicit:1,-1,1,-1"])
        assert args.sign_mode == (1, -1, 1, -1)
        err = self.rejected(capsys, "verify-psi", "--b", "2", "--sign-mode", "garbled")
        assert "argument --sign-mode: --sign-mode must be 'auto' or" in err

    def test_export_above_its_cap_exits_at_parse_time(self):
        # building this export takes over 10 s and, under 1 GiB of address
        # space, ends in a MemoryError; the parser stops it first
        def one_gib():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "twistbench.cli", "export", "config", "--b", "100000"],
            capture_output=True, env=package_env(), timeout=10, text=True,
            preexec_fn=one_gib,
        )
        assert time.perf_counter() - start < 2
        assert done.returncode == 2
        assert "Traceback" not in done.stderr
        assert "argument --b: export config accepts --b up to 30000" in done.stderr
        assert not done.stdout


class TestImportIsolation:
    """Each command loads only the layers it runs: the modules in
    ``sys.modules`` after ``main`` returns, in a fresh interpreter."""

    PROBE = (
        "import json, sys\n"
        "from twistbench import cli\n"
        "code = cli.main(sys.argv[1:])\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('twistbench.'))\n"
        "print(json.dumps([code, loaded]), file=sys.stderr)\n"
    )
    HOMOLOGY_STACK = (
        "homology", "intlin", "surface", "coxeter", "canonical",
        "factorization", "monodromy",
    )
    BRAID_STACK = ("braids", "laminations", "factorization", "monodromy", "invariants")

    def loaded(self, *argv):
        proc = subprocess.run(
            [sys.executable, "-c", self.PROBE, *argv],
            env=package_env(), capture_output=True, text=True, timeout=60,
        )
        code, modules = json.loads(proc.stderr.splitlines()[-1])
        assert code == 0, proc.stderr
        return {name.split(".", 1)[1] for name in modules}

    @pytest.mark.parametrize(
        "argv",
        [
            ("braid", "eq", "--n", "3", "--lhs", "[1,2,1]", "--rhs", "[2,1,2]"),
            ("braid", "manfredini", "--n", "4", "--k", "2"),
            ("invariants", "--a", "14", "--b", "8", "--c", "6"),
        ],
    )
    def test_braid_and_invariants_skip_the_homology_stack(self, argv):
        assert not self.loaded(*argv) & set(self.HOMOLOGY_STACK)

    @pytest.mark.parametrize(
        "argv",
        [
            ("braid", "eq", "--n", "3", "--lhs", "[1,2,1]", "--rhs", "[2,1,2]"),
            ("braid", "manfredini", "--n", "4", "--k", "2"),
            ("auroux", "--b", "2"),
        ],
    )
    def test_braid_decider_skips_the_flip_derivation(self, argv):
        assert "laminations" not in self.loaded(*argv)

    @pytest.mark.parametrize(
        "argv", [("verify-psi", "--b", "2"), ("export", "config", "--b", "2")]
    )
    def test_homology_commands_skip_the_braid_stack(self, argv):
        assert not self.loaded(*argv) & set(self.BRAID_STACK)

    # the letter calculus imports homology only to compute a matrix, so
    # commands that move letters without a model load neither layer
    def test_hurwitz_replay_skips_the_homology_model(self, replay_path):
        assert not self.loaded("hurwitz", "replay", "--file", str(replay_path)) & {
            "homology", "intlin"
        }

    def test_monodromy_emit_skips_the_homology_model(self):
        assert not self.loaded("monodromy", "emit", "--b", "3") & {"homology", "intlin"}

    # the sign probe runs in curve coordinates on the crossing tree, so
    # neither the report nor the calibration behind it builds a model
    def test_verify_psi_skips_the_homology_model(self):
        assert not self.loaded("verify-psi", "--b", "2") & {"homology", "intlin"}

    def test_sign_calibration_skips_the_homology_model(self):
        probe = (
            "import json, sys\n"
            "from twistbench import canonical\n"
            "canonical.canonical_sigma_signs()\n"
            "print(json.dumps(sorted(m for m in sys.modules if m.startswith('twistbench.'))))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe],
            env=package_env(), capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        loaded = set(json.loads(proc.stdout))
        assert "twistbench.crossing" in loaded
        assert not loaded & {"twistbench.homology", "twistbench.intlin"}

    # the sign convention is a constant of surface, so printing the
    # configuration runs no calibration
    def test_export_config_skips_the_sign_calibration(self):
        assert not self.loaded("export", "config", "--b", "2") & {
            "canonical", "coxeter", "homology", "intlin"
        }

    # auroux lists its cores from the six-factor word, which coxeter
    # builds without a homology model
    def test_auroux_skips_the_homology_model(self):
        assert not self.loaded("auroux", "--b", "2") & {"homology", "intlin"}

    # the standard library modules a command may not load: the value
    # classes are tuples (no dataclasses, which pulls in inspect), the
    # version comes from sys (no platform), and only a digest, which the
    # table never prints, loads hashlib
    HEAVY_PROBE = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "from twistbench import cli\n"
        "code = cli.main(sys.argv[1:])\n"
        "heavy = ('dataclasses', 'inspect', 'platform', 'hashlib', 'typing')\n"
        "loaded = sorted(m for m in heavy if m in sys.modules and m not in before)\n"
        "print(json.dumps([code, loaded]), file=sys.stderr)\n"
    )

    def heavy_loaded(self, *argv, flags=()):
        proc = subprocess.run(
            [sys.executable, *flags, "-c", self.HEAVY_PROBE, *argv],
            env=package_env(), capture_output=True, text=True, timeout=60,
        )
        code, modules = json.loads(proc.stderr.splitlines()[-1])
        assert code == 0, proc.stderr
        return set(modules)

    @pytest.mark.parametrize(
        "argv",
        [
            ("braid", "eq", "--n", "3", "--lhs", "[1,2,1]", "--rhs", "[2,1,2]"),
            ("braid", "manfredini", "--n", "4", "--k", "2"),
            ("invariants", "--a", "14", "--b", "8", "--c", "6"),
            ("export", "config", "--b", "2"),
            ("monodromy", "emit", "--b", "2"),
            ("hurwitz", "replay", "--file", "REPLAY"),
            ("auroux", "--b", "2"),
            ("verify-psi", "--b", "2"),
        ],
        ids=lambda argv: " ".join(argv[:2]),
    )
    def test_commands_skip_dataclasses_and_platform(self, argv, replay_path):
        argv = [str(replay_path) if a == "REPLAY" else a for a in argv]
        assert not self.heavy_loaded(*argv) & {"dataclasses", "inspect", "platform"}

    @pytest.mark.parametrize(
        "argv",
        [
            ("braid", "eq", "--n", "3", "--lhs", "[1,2,1]", "--rhs", "[2,1,2]"),
            ("invariants", "--a", "14", "--b", "8", "--c", "6"),
            ("export", "config", "--b", "2", "--format", "dot"),
        ],
        ids=lambda argv: " ".join(argv[:2]),
    )
    def test_table_and_dot_outputs_skip_hashlib(self, argv):
        assert "hashlib" not in self.heavy_loaded(*argv)

    # annotations are never evaluated, so no module imports typing; -S
    # skips the site-packages .pth files, which may load it at start-up
    @pytest.mark.parametrize(
        "argv",
        [
            ("braid", "eq", "--n", "3", "--lhs", "[1,2,1]", "--rhs", "[2,1,2]"),
            ("hurwitz", "replay", "--file", "REPLAY"),
            ("monodromy", "emit", "--b", "2"),
            ("auroux", "--b", "2"),
            ("verify-psi", "--b", "2"),
        ],
        ids=lambda argv: " ".join(argv[:2]),
    )
    def test_commands_skip_typing(self, argv, replay_path):
        argv = [str(replay_path) if a == "REPLAY" else a for a in argv]
        assert "typing" not in self.heavy_loaded(*argv, flags=("-S",))
