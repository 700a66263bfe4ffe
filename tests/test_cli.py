"""Command surface: exit codes, determinism, file outputs."""
import ast
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

import twistbench
from twistbench import canonical, cli, factorization, homology
from twistbench.cli import Check, VerificationReport, main


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def usage_error(*argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2


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

    def test_largest_accepted_fibre_above_old_cap(self, capsys):
        code, out = run(capsys, "verify-psi", "--b", "8")
        assert code == 0
        assert "FAIL" not in out

    def test_usage_errors(self):
        usage_error("verify-psi", "--b", "1")
        usage_error("verify-psi", "--b", "13")
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

    def test_tampered_replay_names_step(self, capsys, tmp_path):
        cert = tmp_path / "cert.json"
        run(capsys, "auroux", "--b", "2", "--out", str(cert))
        payload = json.loads(cert.read_text())
        payload["steps"][3]["front_letter"]["core"] = "beta_1"
        cert.write_text(json.dumps(payload))
        code, out = run(capsys, "auroux", "--b", "2", "--replay", str(cert))
        assert code == 1
        assert "step 3" in out

    def test_growing_replay_is_inconclusive(self, capsys, tmp_path, monkeypatch):
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
        assert "over the cap of 10000" in check["details"]

    def test_replay_payload_missing_key_is_usage_error(self, capsys, tmp_path):
        cert = tmp_path / "cert.json"
        cert.write_text('{"b":2}')
        usage_error("auroux", "--b", "2", "--replay", str(cert))
        assert "missing key 'base_cores'" in capsys.readouterr().err

    @pytest.fixture
    def no_homology_model(self, monkeypatch):
        """Make every homology-model build fail the test, including the
        one behind the cached sign calibration."""

        def forbidden(*args, **kwargs):
            pytest.fail("auroux built a homology model")

        canonical.canonical_sigma_signs.cache_clear()
        monkeypatch.setattr(cli, "reference_model", forbidden)
        monkeypatch.setattr(homology, "homology_model", forbidden)
        monkeypatch.setattr(canonical, "homology_model", forbidden)
        yield
        monkeypatch.undo()
        canonical.canonical_sigma_signs.cache_clear()
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


class TestHurwitzReplay:
    @pytest.fixture
    def replay_path(self, tmp_path):
        from twistbench.factorization import apply_script
        from twistbench.monodromy import lifted_composition
        from twistbench.serialize import replay_file_to_dict, stable_json

        fact = lifted_composition(2)
        script = (("right", 3), ("left", 5))
        payload = replay_file_to_dict(2, fact, script, apply_script(fact, script))
        path = tmp_path / "replay.json"
        path.write_text(stable_json(payload))
        return path

    def test_good_file_replays(self, capsys, replay_path):
        code, out = run(capsys, "hurwitz", "replay", "--file", str(replay_path))
        assert code == 0
        assert "result-matches" in out

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
        payload = json.loads(replay_path.read_text())
        payload["script"][1] = ["right", 999]
        replay_path.write_text(json.dumps(payload))
        code, out = run(capsys, "hurwitz", "replay", "--file", str(replay_path))
        assert code == 1
        assert "step 1" in out

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
        path = tmp_path / "deep.json"
        path.write_text(deep)
        for argv in (
            ("hurwitz", "replay", "--file", str(path)),
            ("auroux", "--b", "2", "--replay", str(path)),
        ):
            usage_error(*argv)
            assert f"malformed JSON in {path}" in capsys.readouterr().err
        usage_error("braid", "eq", "--n", "3", "--lhs", deep, "--rhs", "[1]")
        assert "braid words are JSON integer arrays" in capsys.readouterr().err
