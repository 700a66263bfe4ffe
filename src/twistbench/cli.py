"""Batch command surface tying the modules together.

Subcommands build configurations, run verifications, emit certificates
and stable exports.  Every command echoes its invocation in a
:class:`VerificationReport` whose exit code follows a fixed contract:

* 0 — every check passed (informational exports also exit 0);
* 1 — at least one check failed;
* 2 — usage error (bad flags, unsupported parameter ranges);
* 3 — no check failed but at least one was inconclusive (for example a
  bounded search that exhausted its budget, or a relation instance that
  is skipped because an index falls off the generator range), so CI can
  distinguish "unverified at this budget" from "contradicted".

Outputs are deterministic given identical flags.
"""
from __future__ import annotations

import argparse
import json
import platform
import sys
from dataclasses import dataclass, field

from . import __version__
from .braids import BraidError, braid_equal, verify_manfredini
from .canonical import canonical_sigma_signs
from .coxeter import psi_factorization
from .factorization import (
    ConjugatorCapError,
    MoveError,
    apply_script,
    auroux_certificate,
    replay_certificate,
)
from .homology import (
    AdmissibilityError,
    is_symplectic,
    psi_reference,
    reference_model,
    twist_word_matrix,
)
from .invariants import (
    CoverType,
    chi_report,
    deformation_dimension,
    dimension_consistency,
    family_enumerate,
    invariants,
    theorem_hypotheses,
)
from .monodromy import (
    default_colouring,
    default_composition,
    lifted_composition,
    monodromy_blocks,
    x_block,
    y_block,
)
from .serialize import (
    braid_word_from_ints,
    blocks_to_dict,
    certificate_from_dict,
    certificate_to_dict,
    colouring_to_dict,
    replay_file_from_dict,
    sha256_hex,
    stable_json,
    system_to_dict,
    system_to_dot,
)
from .surface import build_reference_configuration

__all__ = ["Check", "VerificationReport", "main"]

#: Node budget of bounded Hurwitz searches (acceptance criterion A9).
DEFAULT_BUDGET = 20000

#: Largest fibre ``verify-psi`` accepts.  The run is dominated by the
#: Smith-form model build and the dense products of the reference checks,
#: all cubic in the rank 8b-6; at b=12 (rank 90) the whole command takes
#: about 1.7 s on a 2-core x86-64 machine, over half of it in the build.
VERIFY_PSI_MAX_B = 12


@dataclass(frozen=True)
class Check:
    name: str
    status: str  # "pass" | "fail" | "inconclusive"
    details: str = ""

    def __post_init__(self):
        if self.status not in ("pass", "fail", "inconclusive"):
            raise ValueError(f"bad check status {self.status!r}")


@dataclass(frozen=True)
class VerificationReport:
    command: tuple
    checks: tuple
    environment: dict = field(default_factory=dict)

    @property
    def exit_code(self) -> int:
        statuses = [c.status for c in self.checks]
        if "fail" in statuses:
            return 1
        if "inconclusive" in statuses:
            return 3
        return 0

    def to_dict(self) -> dict:
        return {
            "command": list(self.command),
            "checks": [
                {"name": c.name, "status": c.status, "details": c.details}
                for c in self.checks
            ],
            "environment": self.environment,
            "exit_code": self.exit_code,
        }

    def to_table(self) -> str:
        width = max((len(c.name) for c in self.checks), default=4)
        lines = [f"command: {' '.join(str(p) for p in self.command)}"]
        for c in self.checks:
            lines.append(f"{c.name.ljust(width)}  {c.status.upper():>12}  {c.details}")
        lines.append(f"exit code: {self.exit_code}")
        return "\n".join(lines) + "\n"


def _environment() -> dict:
    env = {
        "package": __version__,
        "python": platform.python_version(),
    }
    env["fingerprint"] = sha256_hex(stable_json(env))[:16]
    return env


def _emit(text: str, out: str | None) -> None:
    """Write ``text`` to the file ``out``, or to stdout; an unwritable
    path is a ValueError naming it."""
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as err:
            raise ValueError(f"cannot write {out}: {err.strerror or err}") from err
    else:
        sys.stdout.write(text)


def _finish(report: VerificationReport, fmt: str, out: str | None) -> int:
    text = stable_json(report.to_dict()) if fmt == "json" else report.to_table()
    _emit(text, out)
    return report.exit_code


def _read_json(parser, path: str):
    """The JSON payload of an input file; an unreadable file is a usage
    error, and malformed JSON (nesting too deep to parse included) a
    ValueError."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as err:
        parser.error(f"cannot read {path}: {err.strerror or err}")
    except RecursionError:
        raise ValueError(f"malformed JSON in {path}: nested too deeply") from None


# ---------------------------------------------------------------------------
# verify-psi


def _parse_sign_mode(parser, value):
    if value == "auto":
        return "auto"
    if value.startswith("explicit:"):
        parts = value[len("explicit:") :].split(",")
        try:
            signs = tuple(int(p) for p in parts)
        except ValueError:
            signs = ()
        if len(signs) == 4 and all(s in (1, -1) for s in signs):
            return signs
    parser.error(
        f"--sign-mode must be 'auto' or 'explicit:s1,s2,s3,s4' with signs ±1, got {value!r}"
    )


def cmd_verify_psi(args, argv, parser) -> int:
    checks = []
    signs = canonical_sigma_signs() if args.sign_mode == "auto" else args.sign_mode
    checks.append(
        Check(
            "sign-convention",
            "pass",
            f"sigma crossing signs {signs}"
            + (" (from search)" if args.sign_mode == "auto" else " (explicit)"),
        )
    )
    try:
        model = reference_model(args.b, signs)
    except AdmissibilityError as err:
        checks.append(Check("model-admissible", "fail", str(err)))
        model = None
    if model is not None:
        checks.append(
            Check(
                "model-admissible",
                "pass",
                f"rank {model.rank}, genus {model.genus}, torsion-free",
            )
        )
        try:
            reference = psi_reference(model)
        except AdmissibilityError as err:
            # NotWellDefinedError, or an involution that does not square to
            # one or does not preserve the form
            checks.append(Check("reference-well-defined", "fail", str(err)))
            reference = None
        if reference is not None:
            word = psi_factorization(args.b)
            product = twist_word_matrix(model, word)
            equal = product.matrix == reference.matrix
            checks.append(
                Check(
                    "product-equals-reference",
                    "pass" if equal else "fail",
                    f"six-factor product vs curve-swap involution, "
                    f"{len(word)} letters",
                )
            )
            checks.append(
                Check(
                    "product-symplectic",
                    "pass" if is_symplectic(product, model) else "fail",
                    "M^T J M = J",
                )
            )
            checks.append(
                Check(
                    "reference-symplectic",
                    "pass" if is_symplectic(reference, model) else "fail",
                    "M^T J M = J",
                )
            )
    report = VerificationReport(tuple(argv), tuple(checks), _environment())
    return _finish(report, args.format, args.out)


# ---------------------------------------------------------------------------
# auroux


def _composition(args):
    if args.composition is None:
        return default_composition(args.b)
    return tuple(args.composition.split(","))


def cmd_auroux(args, argv, parser) -> int:
    checks = []
    composition = _composition(args)

    if args.replay:
        payload = _read_json(parser, args.replay)
        cert = certificate_from_dict(payload)
        composition = payload.get("composition", list(composition))
        if not isinstance(composition, list):
            raise ValueError("key 'composition' must be a list of block labels")
        fact = lifted_composition(args.b, tuple(composition))
        try:
            fronts = replay_certificate(fact, cert)
            checks.append(
                Check("certificate-replays", "pass", f"{len(fronts)} steps reproduced")
            )
        except ConjugatorCapError as err:
            checks.append(Check("certificate-replays", "inconclusive", str(err)))
        except MoveError as err:
            checks.append(
                Check(
                    "certificate-replays",
                    "fail",
                    f"first bad move at step {err.step}: {err}",
                )
            )
        report = VerificationReport(tuple(argv), tuple(checks), _environment())
        return _finish(report, args.format, args.out)

    fact = lifted_composition(args.b, composition)
    cores = []
    for c, _ in psi_factorization(args.b):
        if c not in cores:
            cores.append(c)
    present = {t.core for t in fact.letters}
    missing = [c for c in cores if c not in present]
    if missing:
        names = ", ".join(str(c) for c in missing)
        checks.append(
            Check(
                "core-coverage",
                "fail",
                f"hypothesis unmet: no positive letter with core {names} in "
                f"composition {','.join(composition)} ({len(fact)} letters); "
                "every reference core must appear in the lifted factorization",
            )
        )
        report = VerificationReport(tuple(argv), tuple(checks), _environment())
        return _finish(report, args.format, None)

    checks.append(
        Check("core-coverage", "pass", f"all {len(cores)} reference cores appear")
    )
    cert = auroux_certificate(fact, cores)
    fronts = replay_certificate(fact, cert)
    checks.append(Check("certificate-replays", "pass", f"{len(fronts)} steps reproduced"))
    checks.append(
        Check(
            "fronts-bare",
            "pass" if cert.all_bare else "fail",
            "every moved letter arrives unconjugated and positive",
        )
    )
    if args.out:
        payload = certificate_to_dict(
            cert, b=args.b, composition=list(composition)
        )
        _emit(stable_json(payload), args.out)
    report = VerificationReport(tuple(argv), tuple(checks), _environment())
    return _finish(report, args.format, None)


# ---------------------------------------------------------------------------
# export config / monodromy emit


def cmd_export(args, argv, parser) -> int:
    system = build_reference_configuration(args.b)
    if args.format == "dot":
        _emit(system_to_dot(system), args.out)
    else:
        _emit(stable_json(system_to_dict(system)), args.out)
    return 0


def cmd_monodromy(args, argv, parser) -> int:
    m = 2 * args.b
    payload = {
        "b": args.b,
        "strands": 2 * m,
        "colouring": colouring_to_dict(default_colouring(m)),
        "composition_default": list(default_composition(args.b)),
        "blocks": blocks_to_dict({"X": x_block(m), "Y": y_block(m)}),
    }
    _emit(stable_json(payload), args.out)
    return 0


# ---------------------------------------------------------------------------
# invariants


def cmd_invariants(args, argv, parser) -> int:
    d = args.d if args.d is not None else args.b
    cover = CoverType(args.a, args.b, args.c, d)
    inv = invariants(cover)
    report_chi = chi_report(cover)
    checks = [
        Check(
            "chi-character-oracle",
            "pass" if report_chi["oracle_agrees"] else "fail",
            f"chi = {inv.chi} both by the quarter-product formula and the "
            "character decomposition",
        )
    ]
    payload = {
        "type": {"a": cover.a, "b": cover.b, "c": cover.c, "d": cover.d},
        "invariants": {
            "chi": inv.chi,
            "K2": inv.K2,
            "divisibility": inv.divisibility,
            "fibre_genus": inv.fibre_genus,
        },
        "chi_report": report_chi,
        "deformation_dimension": deformation_dimension(args.a, args.b, args.c),
        "dimension_consistency": dimension_consistency(args.a, args.b, args.c),
    }
    if "variant_agrees" in report_chi and not report_chi["variant_agrees"]:
        payload["note"] = (
            "the coefficient-four closed form for chi disagrees with the "
            "quarter-product formula and the character oracle; reported, not used"
        )
    if args.k is not None:
        checklist = theorem_hypotheses(args.a, args.b, args.c, args.k)
        payload["hypotheses"] = checklist
        try:
            members = family_enumerate(args.a, args.b, args.c, args.k)
            payload["family"] = [
                {
                    "type": {"a": t.a, "b": t.b, "c": t.c, "d": t.d},
                    "chi": m.chi,
                    "K2": m.K2,
                    "divisibility": m.divisibility,
                }
                for t, m in members
            ]
            checks.append(
                Check(
                    "family-shares-invariants",
                    "pass",
                    f"{len(members)} members, identical (chi, K2, divisibility)",
                )
            )
        except ValueError as err:
            checks.append(Check("family-hypotheses", "fail", str(err)))
    report = VerificationReport(tuple(argv), tuple(checks), _environment())
    if args.format == "table":
        lines = [report.to_table()]
        lines.append(
            "\n".join(
                f"{key.ljust(14)} {value}"
                for key, value in payload["invariants"].items()
            )
            + "\n"
        )
        if "note" in payload:
            lines.append(f"note: {payload['note']}\n")
        _emit("".join(lines), args.out)
        return report.exit_code
    merged = report.to_dict()
    merged["payload"] = payload
    _emit(stable_json(merged), args.out)
    return report.exit_code


# ---------------------------------------------------------------------------
# braid


def cmd_braid(args, argv, parser) -> int:
    checks = []
    if args.action == "eq":
        try:
            w1 = braid_word_from_ints(_parse_int_list(parser, args.lhs))
            w2 = braid_word_from_ints(_parse_int_list(parser, args.rhs))
            equal = braid_equal(w1, w2, args.n)
        except (BraidError, ValueError) as err:
            parser.error(str(err))
        checks.append(
            Check(
                "words-equal",
                "pass" if equal else "fail",
                f"curve action and exponent sum on {args.n} strands",
            )
        )
    else:  # manfredini
        if args.k is None:
            parser.error("braid manfredini requires --k")
        try:
            results = verify_manfredini(args.n, args.k)
        except BraidError as err:
            parser.error(str(err))
        status = {"holds": "pass", "fails": "fail", "skipped": "inconclusive"}
        for name, outcome in results:
            checks.append(
                Check(
                    f"relation: {name}",
                    status[outcome],
                    "" if outcome != "skipped" else "generator index off range",
                )
            )
    report = VerificationReport(tuple(argv), tuple(checks), _environment())
    return _finish(report, args.format, args.out)


def _parse_int_list(parser, text: str) -> list:
    try:
        values = json.loads(text)
    except (json.JSONDecodeError, RecursionError):
        parser.error(f"braid words are JSON integer arrays, got {text!r}")
    if not isinstance(values, list) or not all(isinstance(v, int) for v in values):
        parser.error(f"braid words are JSON integer arrays, got {text!r}")
    return values


# ---------------------------------------------------------------------------
# hurwitz replay


def cmd_hurwitz(args, argv, parser) -> int:
    b, fact, script, expected = replay_file_from_dict(_read_json(parser, args.file))
    checks = []
    try:
        result = apply_script(fact, script)
        checks.append(Check("script-applies", "pass", f"{len(script)} moves"))
        exact = result.letters == expected.letters
        checks.append(
            Check(
                "result-matches",
                "pass" if exact else "fail",
                "letterwise structural equality" if exact else "letters differ",
            )
        )
    except ConjugatorCapError as err:
        checks.append(Check("script-applies", "inconclusive", str(err)))
    except MoveError as err:
        checks.append(Check("script-applies", "fail", f"step {err.step}: {err}"))
    report = VerificationReport(tuple(argv), tuple(checks), _environment())
    return _finish(report, args.format, args.out)


# ---------------------------------------------------------------------------
# parser


def _add_common(sub, formats=("table", "json")):
    """``--format`` (the first of ``formats`` is the default) and ``--out``."""
    sub.add_argument("--format", default=formats[0], choices=formats)
    sub.add_argument("--out", default=None, help="write output to a file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twistbench",
        description="verification workbench for curve configurations, twist "
        "factorizations, and bidouble-cover invariants",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("verify-psi", help="check the six-factor product on homology")
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--sign-mode", default="auto")
    _add_common(p)

    p = subs.add_parser("auroux", help="emit/replay a core-coverage certificate")
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--composition", default=None, help="comma-separated block labels")
    p.add_argument("--replay", default=None, help="replay a certificate file")
    _add_common(p)

    p = subs.add_parser("export", help="stable JSON/DOT exports")
    p.add_argument("what", choices=["config"])
    p.add_argument("--b", type=int, required=True)
    _add_common(p, ("json", "dot"))

    p = subs.add_parser("monodromy", help="monodromy block emission")
    p.add_argument("action", choices=["emit"])
    p.add_argument("--b", type=int, required=True)
    _add_common(p, ("json",))

    p = subs.add_parser("invariants", help="numerical invariants and families")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    _add_common(p)

    p = subs.add_parser("braid", help="braid word comparisons and relation checks")
    p.add_argument("action", choices=["eq", "manfredini"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--lhs", default=None, help="JSON integer array (eq)")
    p.add_argument("--rhs", default=None, help="JSON integer array (eq)")
    _add_common(p)

    p = subs.add_parser("hurwitz", help="replay recorded move scripts bit-exactly")
    p.add_argument("action", choices=["replay"])
    p.add_argument("--file", required=True)
    _add_common(p)

    return parser


def _validate(args, parser) -> None:
    if getattr(args, "b", None) is not None and args.command in (
        "verify-psi", "auroux", "export", "monodromy",
    ):
        if args.b < 2:
            parser.error(f"--b must be at least 2, got {args.b}")
        if args.command == "verify-psi" and args.b > VERIFY_PSI_MAX_B:
            parser.error(
                f"verify-psi accepts --b up to {VERIFY_PSI_MAX_B}: the model "
                "build and the reference checks grow as the cube of the rank "
                f"8b-6, got {args.b}"
            )
    if args.command == "verify-psi":
        args.sign_mode = _parse_sign_mode(parser, args.sign_mode)
    if args.command == "braid" and args.action == "eq":
        if args.lhs is None or args.rhs is None:
            parser.error("braid eq needs --lhs and --rhs braid words")
    if args.command == "invariants":
        for name in ("a", "b", "c"):
            if getattr(args, name) < 1:
                parser.error(f"--{name} must be positive")


DISPATCH = {
    "verify-psi": cmd_verify_psi,
    "auroux": cmd_auroux,
    "export": cmd_export,
    "monodromy": cmd_monodromy,
    "invariants": cmd_invariants,
    "braid": cmd_braid,
    "hurwitz": cmd_hurwitz,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    _validate(args, parser)
    try:
        return DISPATCH[args.command](args, [args.command] + argv[1:], parser)
    except ValueError as err:
        parser.error(str(err))


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
