"""Batch command surface tying the modules together.

Subcommands build configurations, run verifications, emit certificates
and stable exports.  Each ``cmd_*`` takes the parsed arguments and
returns data: its checks, or the text of an export.  :func:`main` alone
puts the checks in one :class:`VerificationReport` that echoes the
invocation, renders it as a table or JSON, writes it to stdout or
``--out`` and returns its exit code, by a fixed contract:

* 0 — every check passed (informational exports also exit 0);
* 1 — at least one check failed;
* 2 — usage error (bad flags, unsupported parameter ranges, unreadable
  or malformed input);
* 3 — no check failed but at least one was inconclusive (for example a
  bounded search that exhausted its budget, or a relation instance that
  is skipped because an index falls off the generator range), so CI can
  distinguish "unverified at this budget" from "contradicted".

Outputs are deterministic given identical flags.

Each rule on one argument is that argument's type in :func:`build_parser`
(the range of ``--b`` for each command, ``--n`` of at least two strands,
the form of ``--sign-mode``), so argparse rejects a bad value naming the
argument.  A rule that involves two arguments lives in the one ``cmd_*``
that reads them, and like any unusable input there it is a
``ValueError``, which :func:`main` reports as a usage error.

Each ``cmd_*`` imports the layers it runs when it runs, so a process
loads only what its command uses: ``braid`` and ``invariants`` never
load the homology stack, ``verify-psi`` and ``export config`` never
load the braid layer, and no command loads the lamination layer, which
is the test oracle of the braid decider, or the homology model
(``homology`` and ``intlin``), the test oracle of the sign probe.
"""
from __future__ import annotations

import argparse
import json
import sys
from collections import namedtuple

from . import __version__
from .serialize import sha256_hex, stable_json

__all__ = ["Check", "VerificationReport", "main"]

#: Node budget of bounded Hurwitz searches (acceptance criterion A9).
DEFAULT_BUDGET = 20000

#: Largest fibres of the ``--b`` commands: for each, the largest timed b
#: whose every run, as one process under a 1 GiB address-space cap on a
#: 2-core x86-64 machine, took at most 7.5 s, so a run at the cap keeps a
#: quarter of a 10 s limit against the spread between runs.
#: ``verify-psi`` builds no homology model: it moves sparse curve
#: coordinates one row per letter of the gluing word (40b^2 + O(b)
#: letters); it took 5.7-6.4 s at b=375 (128 MB resident) and 6.6-8.0 s
#: at b=400, ten runs each.
#: ``auroux --out`` took 2.5-3.5 s at b=40 and 3.1-4.0 s at b=42, and
#: its cap stays where it was set when these read 6.1-6.7 s and 7.4-8.7 s;
#: ``monodromy emit`` 5.7-7.3 s at b=300 (33 MB out) and 6.9-7.6 s at
#: b=320; ``export config`` 5.3-5.9 s at b=30000 and 6.1-7.7 s at b=40000.
VERIFY_PSI_MAX_B = 375
AUROUX_MAX_B = 40
MONODROMY_MAX_B = 300
EXPORT_MAX_B = 30000

#: Most blocks of an ``auroux`` composition, from ``--composition`` or a
#: certificate, by the rule above: ``auroux --b 40 --out`` over ``X,Y``
#: blocks passed in 3.2-4.3 s at 10,000 and 4.1-5.4 s (149 MB, a 1.65 MB
#: certificate) at 20,000, ten runs each.
AUROUX_MAX_BLOCKS = 20000


class Check(namedtuple("Check", ("name", "status", "details"))):
    """One verdict: ``status`` is "pass", "fail" or "inconclusive"."""

    __slots__ = ()

    def __new__(cls, name: str, status: str, details: str = "") -> "Check":
        if status not in ("pass", "fail", "inconclusive"):
            raise ValueError(f"bad check status {status!r}")
        return tuple.__new__(cls, (name, status, details))


class VerificationReport(namedtuple("VerificationReport", ("command", "checks", "environment"))):
    """The checks of one invocation; ``environment`` (package and Python
    versions and their fingerprint) is filled for JSON reports only."""

    __slots__ = ()

    def __new__(
        cls, command: tuple, checks: tuple, environment: dict | None = None
    ) -> "VerificationReport":
        return tuple.__new__(cls, (command, checks, {} if environment is None else environment))

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
        "python": sys.version.split()[0],
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


def _read_json(path: str):
    """The JSON payload of an input file; an unreadable file or malformed
    JSON (bytes that are not UTF-8 and nesting too deep to parse
    included) is a ValueError naming it."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as err:
        raise ValueError(f"cannot read {path}: {err.strerror or err}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as err:
        raise ValueError(f"malformed JSON in {path}: {err}") from None
    except RecursionError:
        raise ValueError(f"malformed JSON in {path}: nested too deeply") from None


def _replay_check(name, replay, passed, bad_step):
    """The check ``name`` of ``replay()``, with the result (``None``
    unless it passed): ``passed(result)`` details a pass, going over the
    conjugator cap or the certificate cost budget is inconclusive, and a
    bad move fails naming its step."""
    from .factorization import ConjugatorCapError, MoveBudgetError, MoveError

    try:
        result = replay()
    except (ConjugatorCapError, MoveBudgetError) as err:
        return Check(name, "inconclusive", str(err)), None
    except MoveError as err:
        return Check(name, "fail", f"{bad_step} {err.step}: {err}"), None
    return Check(name, "pass", passed(result)), result


# ---------------------------------------------------------------------------
# verify-psi


def _parse_sign_mode(value):
    """The ``--sign-mode`` type: "auto", or the four signs of
    ``explicit:s1,s2,s3,s4``."""
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
    raise argparse.ArgumentTypeError(
        f"--sign-mode must be 'auto' or 'explicit:s1,s2,s3,s4' with signs ±1, got {value!r}"
    )


def cmd_verify_psi(args) -> list:
    from .canonical import canonical_sigma_signs, probe_signs
    from .coxeter import psi_factorization_length

    auto = args.sign_mode == "auto"
    signs = canonical_sigma_signs() if auto else args.sign_mode
    checks = [
        Check(
            "sign-convention",
            "pass",
            # "(from search)" keeps the bytes of pinned reports
            f"sigma crossing signs {signs}" + (" (from search)" if auto else " (explicit)"),
        )
    ]
    probe = probe_signs(args.b, signs)
    if not probe.admissible:
        checks.append(Check("model-admissible", "fail", probe.detail))
    else:
        checks.append(
            Check(
                "model-admissible",
                "pass",
                f"rank {probe.rank}, genus {probe.genus}, torsion-free",
            )
        )
        if not probe.psi_defined:
            # curve images that violate the relations among curve classes,
            # or an involution that does not preserve the form
            checks.append(Check("reference-well-defined", "fail", probe.detail))
        else:
            checks.append(
                Check(
                    "product-equals-reference",
                    "pass" if probe.product_matches else "fail",
                    f"six-factor product vs curve-swap involution, "
                    f"{psi_factorization_length(args.b)} letters",
                )
            )
            checks.append(
                Check(
                    "product-symplectic",
                    "pass" if probe.product_symplectic else "fail",
                    "M^T J M = J",
                )
            )
            # the probe checked P^T C P = C before psi_defined was set
            checks.append(Check("reference-symplectic", "pass", "M^T J M = J"))
    return checks


# ---------------------------------------------------------------------------
# auroux


def cmd_auroux(args) -> list:
    from .coxeter import psi_factorization
    from .factorization import (
        MissingCoreError,
        MoveBudgetError,
        auroux_certificate,
        bare,
        replay_certificate,
    )
    from .monodromy import default_composition, lifted_composition
    from .serialize import certificate_from_dict, certificate_to_dict

    if args.replay and args.certificate:
        raise ValueError(
            "auroux --out writes a new certificate and cannot be combined with --replay"
        )
    if args.composition is None:
        composition = default_composition(args.b)
    else:
        composition = tuple(args.composition.split(","))

    if args.replay:
        payload = _read_json(args.replay)
        cert = certificate_from_dict(payload)
        b = payload.get("b")
        if type(b) is not int or b != args.b:
            found = json.dumps(b) if b is None or isinstance(b, int) else type(b).__name__
            raise ValueError(f"certificate key 'b' is {found}, not --b {args.b}")
        composition = payload.get("composition", list(composition))
        if not isinstance(composition, list):
            raise ValueError("key 'composition' must be a list of block labels")
        if args.composition is not None and composition != args.composition.split(","):
            found = ",".join(str(label) for label in composition)
            raise ValueError(
                f"certificate key 'composition' is {found}, "
                f"not --composition {args.composition}"
            )
    if len(composition) > AUROUX_MAX_BLOCKS:
        raise ValueError(
            f"composition has {len(composition)} blocks, over the cap of {AUROUX_MAX_BLOCKS}"
        )
    fact = lifted_composition(args.b, tuple(composition))
    cores = list(dict.fromkeys(c for c, _ in psi_factorization(args.b)))
    covered = Check("core-coverage", "pass", f"all {len(cores)} reference cores appear")
    if not args.replay:
        try:
            cert = auroux_certificate(fact, cores)
        except MoveBudgetError as err:
            return [covered, Check("certificate-replays", "inconclusive", str(err))]
        except MissingCoreError as err:
            return [
                Check(
                    "core-coverage",
                    "fail",
                    f"hypothesis unmet: {err} in composition {','.join(composition)} "
                    f"({len(fact)} letters); every reference core must appear in the "
                    "lifted factorization",
                )
            ]

    check, fronts = _replay_check(
        "certificate-replays",
        lambda: replay_certificate(fact, cert),
        lambda fronts: f"{len(fronts)} steps reproduced",
        "first bad move at step",
    )
    if fronts is None:
        # no fronts to check: a read certificate reports its replay alone,
        # an emitted one also the coverage of the lift it was built from
        return [check] if args.replay else [covered, check]
    named = [step.core for step in cert.steps]
    if named != cores:
        k = next(k for k, (x, y) in enumerate(zip(named + [None], cores + [None])) if x != y)
        covered = Check(
            "core-coverage",
            "fail",
            f"the steps must name the {len(cores)} reference cores in order; "
            f"they name {len(named)} cores, first differing at step {k}",
        )
    # a certificate is written only once it has replayed
    if args.certificate:
        payload = certificate_to_dict(cert, b=args.b, composition=list(composition))
        _emit(stable_json(payload), args.certificate)
    return [
        covered,
        check,
        Check(
            "fronts-bare",
            "pass" if fronts == [bare(core) for core in named] else "fail",
            "every moved letter arrives unconjugated and positive",
        ),
    ]


# ---------------------------------------------------------------------------
# export config / monodromy emit


def cmd_export(args) -> str:
    from .serialize import system_to_dict, system_to_dot
    from .surface import build_reference_configuration

    system = build_reference_configuration(args.b)
    if args.format == "dot":
        return system_to_dot(system)
    return stable_json(system_to_dict(system))


def cmd_monodromy(args) -> str:
    from .monodromy import default_colouring, default_composition, x_block, y_block
    from .serialize import blocks_to_dict, colouring_to_dict

    m = 2 * args.b
    return stable_json({
        "b": args.b,
        "strands": 2 * m,
        "colouring": colouring_to_dict(default_colouring(m)),
        "composition_default": list(default_composition(args.b)),
        "blocks": blocks_to_dict({"X": x_block(m), "Y": y_block(m)}),
    })


# ---------------------------------------------------------------------------
# invariants


def cmd_invariants(args) -> tuple:
    from .invariants import (
        CoverType,
        chi_report,
        deformation_dimension,
        dimension_consistency,
        family_enumerate,
        invariants,
        theorem_hypotheses,
    )

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
    extra = "".join(
        f"{key.ljust(14)} {value}\n" for key, value in payload["invariants"].items()
    )
    if "note" in payload:
        extra += f"note: {payload['note']}\n"
    return checks, payload, extra


# ---------------------------------------------------------------------------
# braid


def cmd_braid(args) -> list:
    from .braids import braid_equal, verify_manfredini
    from .serialize import braid_word_from_ints

    if args.action == "eq":
        if args.lhs is None or args.rhs is None:
            raise ValueError("braid eq needs --lhs and --rhs braid words")
        w1 = braid_word_from_ints(_parse_int_list("lhs", args.lhs))
        w2 = braid_word_from_ints(_parse_int_list("rhs", args.rhs))
        equal = braid_equal(w1, w2, args.n)
        return [
            Check(
                "words-equal",
                "pass" if equal else "fail",
                f"curve action and exponent sum on {args.n} strands",
            )
        ]
    if args.k is None:
        raise ValueError("braid manfredini requires --k")
    status = {"holds": "pass", "fails": "fail", "skipped": "inconclusive"}
    return [
        Check(
            f"relation: {name}",
            status[outcome],
            "" if outcome != "skipped" else "generator index off range",
        )
        for name, outcome in verify_manfredini(args.n, args.k)
    ]


def _parse_int_list(option: str, text: str) -> list:
    """The JSON integer array given as ``--option``; anything else (JSON
    ``true``/``false`` included, though Python counts them as ints) is a
    ValueError naming the option and quoting at most 40 characters."""
    try:
        values = json.loads(text)
    except (json.JSONDecodeError, RecursionError):
        values = None
    if not isinstance(values, list) or not all(
        isinstance(v, int) and not isinstance(v, bool) for v in values
    ):
        more = "..." if len(text) > 40 else ""
        raise ValueError(
            f"--{option}: braid words are JSON integer arrays, got {text[:40]!r}{more}"
        )
    return values


# ---------------------------------------------------------------------------
# hurwitz replay


def cmd_hurwitz(args) -> list:
    from .factorization import apply_script
    from .serialize import replay_file_from_dict

    b, fact, script, expected = replay_file_from_dict(_read_json(args.file))
    check, result = _replay_check(
        "script-applies",
        lambda: apply_script(fact, script),
        lambda _: f"{len(script)} moves",
        "step",
    )
    if result is None:
        return [check]
    exact = result.letters == expected.letters
    return [
        check,
        Check(
            "result-matches",
            "pass" if exact else "fail",
            "letterwise structural equality" if exact else "letters differ",
        ),
    ]


# ---------------------------------------------------------------------------
# parser


def _int(text):
    """``int(text)``, with argparse's own message for anything else."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _fibre(command, largest):
    """The ``--b`` type of ``command``: an integer from 2 to ``largest``."""

    def fibre(text):
        b = _int(text)
        if b < 2:
            raise argparse.ArgumentTypeError(f"--b must be at least 2, got {b}")
        if b > largest:
            raise argparse.ArgumentTypeError(f"{command} accepts --b up to {largest}, got {b}")
        return b

    return fibre


def _strands(text):
    """The ``--n`` type: a braid on at least two strands."""
    n = _int(text)
    if n < 2:
        raise argparse.ArgumentTypeError(f"--n must be at least 2 strands, got {n}")
    return n


def _add_common(sub, run, formats=("table", "json")):
    """``--format`` (the first of ``formats`` is the default), ``--out``,
    and ``run``, the command the subparser names."""
    sub.add_argument("--format", default=formats[0], choices=formats)
    sub.add_argument("--out", default=None, help="write output to a file")
    sub.set_defaults(run=run)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twistbench",
        description="verification workbench for curve configurations, twist "
        "factorizations, and bidouble-cover invariants",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("verify-psi", help="check the six-factor product on homology")
    p.add_argument("--b", type=_fibre("verify-psi", VERIFY_PSI_MAX_B), required=True)
    p.add_argument("--sign-mode", default="auto", type=_parse_sign_mode)
    _add_common(p, cmd_verify_psi)

    p = subs.add_parser("auroux", help="emit/replay a core-coverage certificate")
    p.add_argument("--b", type=_fibre("auroux", AUROUX_MAX_B), required=True)
    p.add_argument("--composition", default=None, help="comma-separated block labels")
    p.add_argument("--replay", default=None, help="replay a certificate file")
    p.add_argument("--format", default="table", choices=("table", "json"))
    # the report always goes to stdout; --out names the certificate
    p.add_argument("--out", dest="certificate", default=None, help="write the certificate to a file")
    p.set_defaults(run=cmd_auroux)

    p = subs.add_parser("export", help="stable JSON/DOT exports")
    p.add_argument("what", choices=["config"])
    p.add_argument("--b", type=_fibre("export config", EXPORT_MAX_B), required=True)
    _add_common(p, cmd_export, ("json", "dot"))

    p = subs.add_parser("monodromy", help="monodromy block emission")
    p.add_argument("action", choices=["emit"])
    p.add_argument("--b", type=_fibre("monodromy emit", MONODROMY_MAX_B), required=True)
    _add_common(p, cmd_monodromy, ("json",))

    p = subs.add_parser("invariants", help="numerical invariants and families")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    _add_common(p, cmd_invariants)

    p = subs.add_parser("braid", help="braid word comparisons and relation checks")
    p.add_argument("action", choices=["eq", "manfredini"])
    p.add_argument("--n", type=_strands, required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--lhs", default=None, help="JSON integer array (eq)")
    p.add_argument("--rhs", default=None, help="JSON integer array (eq)")
    _add_common(p, cmd_braid)

    p = subs.add_parser("hurwitz", help="replay recorded move scripts bit-exactly")
    p.add_argument("action", choices=["replay"])
    p.add_argument("--file", required=True)
    _add_common(p, cmd_hurwitz)

    return parser


def _render(args, argv, result) -> int:
    """Write the result of ``args.run`` (the text of an export, its checks,
    or ``(checks, payload, extra table lines)``) and return the exit
    code."""
    out = getattr(args, "out", None)
    if isinstance(result, str):
        _emit(result, out)
        return 0
    checks, payload, extra = result if isinstance(result, tuple) else (result, None, "")
    # the table never prints the environment, so only JSON builds it
    environment = _environment() if args.format == "json" else None
    report = VerificationReport((args.command, *argv[1:]), tuple(checks), environment)
    if args.format == "json":
        data = report.to_dict()
        if payload is not None:
            data["payload"] = payload
        _emit(stable_json(data), out)
    else:
        _emit(report.to_table() + extra, out)
    return report.exit_code


def main(argv=None) -> int:
    """Run one command; return its exit code.  A ``ValueError`` from the
    command is a usage error, as is an argument that its parser type
    rejects.  A run that exhausts memory reached no verdict: it reports
    one inconclusive ``memory`` check (exit 3), not a traceback."""
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        try:
            return _render(args, argv, args.run(args))
        except MemoryError:
            # the frames that held the command's objects are gone, so
            # the report has their memory to be built in
            cause = Check("memory", "inconclusive", "ran out of memory (MemoryError); no verdict")
            return _render(args, argv, [cause])
    except ValueError as err:
        parser.error(str(err))


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
