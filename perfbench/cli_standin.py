"""Traced stand-in for one ``twistbench`` command of the cli-mix workload.

Runs in a fresh interpreter, like the command, and calls the same layer
functions in the order the command does, each inside a span.  Prints
one JSON line: the exit code the command would give, the time the
package finished importing, and the span aggregates.  With
``"trace": false`` in the item it runs the same calls with tracing off,
which is the untraced time the tracing overhead is measured against.

Usage: ``python3 perfbench/cli_standin.py '{"kind": ..., "params": {...}, "trace": true}'``
"""
from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from twistbench import braids, laminations  # noqa: E402
from twistbench.coxeter import psi_factorization  # noqa: E402
from twistbench.factorization import MoveError, apply_script, auroux_certificate, replay_certificate  # noqa: E402
from twistbench.homology import is_symplectic, psi_reference, twist_word_matrix  # noqa: E402
from twistbench.invariants import (  # noqa: E402
    CoverType,
    chi_report,
    deformation_dimension,
    dimension_consistency,
    family_enumerate,
    invariants,
    theorem_hypotheses,
)
from twistbench.monodromy import (  # noqa: E402
    default_colouring,
    default_composition,
    lifted_composition,
    x_block,
    y_block,
)
from twistbench.serialize import (  # noqa: E402
    blocks_to_dict,
    braid_word_from_ints,
    certificate_from_dict,
    certificate_to_dict,
    colouring_to_dict,
    replay_file_from_dict,
    stable_json,
    system_to_dot,
)

IMPORTED = time.perf_counter()

from inproc import build_model  # noqa: E402
from tracing import NULL_TRACER, Tracer  # noqa: E402


def _emit(tr, make_text, file: str | None = None) -> None:
    """Serialize, and write to ``file`` as ``--out`` does."""
    with tr.span("serialize.emit"):
        text = make_text()
        if file is not None:
            (ROOT / file).write_text(text)
    tr.count("serialize.bytes", len(text.encode()))


def _read_json(tr, path: str):
    with tr.span("serialize.parse"):
        return json.loads((ROOT / path).read_text())


def _cores(b: int) -> list:
    cores = []
    for c, _ in psi_factorization(b):
        if c not in cores:
            cores.append(c)
    return cores


def _lift(tr, b: int, model):
    with tr.span("monodromy.lift"):
        fact = lifted_composition(b, default_composition(b), model=model)
    tr.count("monodromy.lift_letters", len(fact))
    return fact


def verify_psi(tr, b: int) -> int:
    model = build_model(b, tr)
    with tr.span("homology.psi_reference"):
        reference = psi_reference(model)
    word = psi_factorization(b)
    with tr.span("homology.twist_product"):
        product = twist_word_matrix(model, word)
    tr.count("homology.twist_letters", len(word))
    with tr.span("homology.symplectic_check"):
        ok = is_symplectic(product, model) and is_symplectic(reference, model)
    return 0 if ok and product.matrix == reference.matrix else 1


def auroux_emit(tr, b: int, file: str) -> int:
    model = build_model(b, tr)
    fact = _lift(tr, b, model)
    with tr.span("factorization.certificate"):
        cert = auroux_certificate(fact, _cores(b))
    tr.count("factorization.certificate_moves", sum(len(s.script) for s in cert.steps))
    with tr.span("factorization.replay"):
        replay_certificate(fact, cert)
    _emit(tr, lambda: stable_json(certificate_to_dict(cert, b=b, composition=list(default_composition(b)))), file)
    return 0 if cert.all_bare else 1


def auroux_replay(tr, b: int, file: str) -> int:
    model = build_model(b, tr)
    fact = _lift(tr, b, model)
    payload = _read_json(tr, file)
    cert = certificate_from_dict(payload)
    tr.count("factorization.certificate_moves", sum(len(s.script) for s in cert.steps))
    try:
        with tr.span("factorization.replay"):
            replay_certificate(fact, cert)
    except MoveError:
        return 1
    return 0


def hurwitz_replay(tr, file: str) -> int:
    b, fact, script, expected = replay_file_from_dict(_read_json(tr, file))
    try:
        with tr.span("factorization.apply_script"):
            result = apply_script(fact, script)
    except MoveError:
        return 1
    tr.count("factorization.moves", len(script))
    return 0 if result.letters == expected.letters else 1


def braid_eq(tr, n: int, lhs: list, rhs: list) -> int:
    with tr.span("laminations.derive"):
        laminations.derivation_report()
    w1, w2 = braid_word_from_ints(lhs), braid_word_from_ints(rhs)
    with tr.span("braids.equal"):
        equal = braids.braid_equal(w1, w2, n)
    with tr.span("braids.artin"):
        images = braids.artin_image(w1, n), braids.artin_image(w2, n)
    tr.count("braids.artin_image_letters", sum(len(g) for image in images for g in image))
    return 0 if equal else 1


def braid_manfredini(tr, n: int, k: int) -> int:
    with tr.span("laminations.derive"):
        laminations.derivation_report()
    with tr.span("braids.manfredini"):
        results = braids.verify_manfredini(n, k)
    outcomes = {outcome for _, outcome in results}
    return 1 if "fails" in outcomes else 3 if "skipped" in outcomes else 0


def invariants_(tr, a: int, b: int, c: int, d, k) -> int:
    with tr.span("invariants.eval"):
        cover = CoverType(a, b, c, b if d is None else d)
        inv = invariants(cover)
        report = chi_report(cover)
        payload = {
            "invariants": [inv.chi, inv.K2, inv.divisibility, inv.fibre_genus],
            "chi_report": report,
            "deformation_dimension": deformation_dimension(a, b, c),
            "dimension_consistency": dimension_consistency(a, b, c),
        }
        ok = report["oracle_agrees"]
        if k is not None:
            payload["hypotheses"] = theorem_hypotheses(a, b, c, k)
            try:
                payload["family"] = len(family_enumerate(a, b, c, k))
            except ValueError:
                ok = False
    _emit(tr, lambda: stable_json(payload))
    return 0 if ok else 1


def export(tr, what: str, b: int) -> int:
    if what == "config":
        model = build_model(b, tr)
        _emit(tr, lambda: system_to_dot(model.system))
        return 0
    m = 2 * b
    with tr.span("monodromy.blocks"):
        blocks = {"X": x_block(m), "Y": y_block(m)}
    _emit(tr, lambda: stable_json({
        "b": b,
        "strands": 2 * m,
        "colouring": colouring_to_dict(default_colouring(m)),
        "composition_default": list(default_composition(b)),
        "blocks": blocks_to_dict(blocks),
    }))
    return 0


COMMANDS = {
    "verify-psi": verify_psi,
    "auroux-emit": auroux_emit,
    "auroux-replay": auroux_replay,
    "hurwitz-replay": hurwitz_replay,
    "braid-eq": braid_eq,
    "braid-manfredini": braid_manfredini,
    "invariants": invariants_,
    "export": export,
}


def main() -> int:
    item = json.loads(sys.argv[1])
    tr = Tracer() if item.get("trace", True) else NULL_TRACER
    with tr.span("cli.command"):
        code = COMMANDS[item["kind"]](tr, **item["params"])
    report = {"exit": code, "imported": IMPORTED}
    if tr.enabled:
        report.update(spans=tr.summary(), counts=tr.counts, maxima=tr.maxima)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
