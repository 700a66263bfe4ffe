"""Byte-stable JSON and DOT serialization for the public structures.

Every emitter returns deterministic text: JSON uses sorted keys and
fixed separators, DOT iterates curves and crossings in system order, so
identical inputs give identical bytes.  Braid words serialize as signed
integer arrays (sign = generator sign), twist letters as ``{core,
sign, conjugator}`` objects, and move scripts as replayable arrays;
round-trip loaders validate as they parse.

Only the loaders, and ``_curve_label``, import the classes they build or
check, when they run; a process that only writes stable JSON loads none
of the other layers, and one that takes no digest loads no ``hashlib``.
"""
from __future__ import annotations

import json

__all__ = [
    "stable_json",
    "sha256_hex",
    "system_to_dict",
    "system_to_dot",
    "letter_to_dict",
    "letter_from_dict",
    "factorization_to_dict",
    "factorization_from_dict",
    "script_to_json",
    "script_from_json",
    "braid_word_to_ints",
    "braid_word_from_ints",
    "colouring_to_dict",
    "blocks_to_dict",
    "certificate_to_dict",
    "certificate_from_dict",
    "replay_file_to_dict",
    "replay_file_from_dict",
]


def _is(value, kind: type) -> bool:
    """``isinstance(value, kind)``, except that JSON ``true``/``false``,
    which Python counts as ints, are no ``int``."""
    return isinstance(value, kind) and not (kind is int and isinstance(value, bool))


def _field(item, key: str, kind: type):
    """``item[key]``, checked to be a ``kind``; a missing or ill-typed key
    is a ValueError naming it."""
    if not isinstance(item, dict):
        raise ValueError(f"expected an object with key {key!r}, got {type(item).__name__}")
    if key not in item:
        raise ValueError(f"missing key {key!r}")
    value = item[key]
    if not _is(value, kind):
        raise ValueError(
            f"key {key!r} must be {kind.__name__}, got {type(value).__name__}"
        )
    return value


def _pairs(items, key: str, first: type, second: type):
    """The ``key`` array, checked to hold ``[first, second]`` pairs."""
    for pair in items:
        if not (
            isinstance(pair, (list, tuple))
            and len(pair) == 2
            and _is(pair[0], first)
            and _is(pair[1], second)
        ):
            raise ValueError(
                f"key {key!r} must hold [{first.__name__}, {second.__name__}] "
                f"pairs, got {pair!r}"
            )
    return items


def stable_json(payload) -> str:
    """Canonical JSON text: sorted keys, fixed separators, newline end."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def sha256_hex(text: str) -> str:
    # imported here: OpenSSL's hashlib costs every command a few ms at
    # start, and only JSON reports and file names take a digest
    import hashlib

    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# curve systems


def system_to_dict(sys: CurveSystem) -> dict:
    return {
        "b": sys.b,
        "sigma_signs": list(sys.sigma_signs) if sys.sigma_signs else None,
        "curves": [c.label for c in sys.curves],
        "crossings": [
            {"first": x.first.label, "second": x.second.label, "sign": x.sign}
            for x in sys.crossings
        ],
        "cyclic_orders": [
            {"curve": c.label, "crossings": list(sys.incidences_of(c))}
            for c in sys.curves
        ],
    }


def system_to_dot(sys: CurveSystem) -> str:
    """The crossing graph: one node per crossing, one edge per arc of a
    curve between consecutive crossings in its cyclic order (every node
    has valence four: two arcs per curve through it)."""
    lines = ["graph configuration {"]
    for i, x in enumerate(sys.crossings):
        tag = "+" if x.sign == 1 else "-"
        lines.append(
            f'  c{i} [label="{x.first.label} x {x.second.label} ({tag})"];'
        )
    for c in sys.curves:
        ring = sys.incidences_of(c)
        for k, here in enumerate(ring):
            there = ring[(k + 1) % len(ring)]
            lines.append(f'  c{here} -- c{there} [label="{c.label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# twist letters and factorizations


def _curve_label(core) -> str:
    from .surface import CurveId

    if isinstance(core, CurveId):
        return core.label
    raise TypeError(f"only curve cores serialize here, got {core!r}")


def letter_to_dict(letter: TwistLetter) -> dict:
    return {
        "core": _curve_label(letter.core),
        "sign": letter.sign,
        "conjugator": [[_curve_label(c), s] for c, s in letter.conjugator],
    }


def letter_from_dict(item: dict) -> TwistLetter:
    from .factorization import TwistLetter
    from .surface import parse_curve

    return TwistLetter(
        parse_curve(_field(item, "core", str)),
        _field(item, "sign", int),
        tuple(
            (parse_curve(c), s)
            for c, s in _pairs(_field(item, "conjugator", list), "conjugator", str, int)
        ),
    )


def factorization_to_dict(fact: Factorization) -> dict:
    return {"letters": [letter_to_dict(t) for t in fact.letters]}


def factorization_from_dict(item: dict) -> Factorization:
    from .factorization import Factorization

    return Factorization(tuple(letter_from_dict(t) for t in _field(item, "letters", list)))


def script_to_json(script) -> list:
    return [[direction, index] for direction, index in script]


def script_from_json(items) -> tuple:
    script = []
    for direction, index in _pairs(items, "script", str, int):
        if direction not in ("left", "right"):
            raise ValueError(f"bad move direction {direction!r}")
        script.append((direction, index))
    return tuple(script)


# ---------------------------------------------------------------------------
# braid words, colourings, monodromy blocks


def braid_word_to_ints(word) -> list:
    return [g * s for g, s in word]


def braid_word_from_ints(values) -> tuple:
    word = []
    for value in values:
        value = int(value)
        if value == 0:
            raise ValueError("generator 0 does not exist")
        word.append((abs(value), 1 if value > 0 else -1))
    return tuple(word)


def colouring_to_dict(colouring: Colouring) -> dict:
    return {
        "blocks": [
            {"label": str(label), "strands": list(block)}
            for label, block in colouring.blocks
        ]
    }


def blocks_to_dict(blocks: dict) -> dict:
    """Monodromy blocks in printed form plus machine-readable letters."""
    out = {}
    for name, block in blocks.items():
        out[name] = [
            {
                "label": letter.label(),
                "core": letter.core,
                "power": letter.power,
                "sign": letter.sign,
                "conjugator": braid_word_to_ints(letter.conjugator),
                "braid_word": braid_word_to_ints(letter.braid_word()),
            }
            for letter in block
        ]
    return out


# ---------------------------------------------------------------------------
# certificates and replay files


def certificate_to_dict(cert: AurouxCertificate, **context) -> dict:
    payload = dict(context)
    payload["base_cores"] = [_curve_label(c) for c in cert.base_cores]
    payload["steps"] = [
        {
            "core": _curve_label(step.core),
            "sign": step.sign,
            "source_index": step.source_index,
            "script": script_to_json(step.script),
            "front_letter": letter_to_dict(step.front_letter),
            "stripped_bare": step.stripped_bare,
        }
        for step in cert.steps
    ]
    return payload


def certificate_from_dict(item: dict) -> AurouxCertificate:
    from .factorization import AurouxCertificate, AurouxStep
    from .surface import parse_curve

    return AurouxCertificate(
        base_cores=tuple(parse_curve(c) for c in _field(item, "base_cores", list)),
        steps=tuple(
            AurouxStep(
                core=parse_curve(_field(step, "core", str)),
                sign=_field(step, "sign", int),
                source_index=_field(step, "source_index", int),
                script=script_from_json(_field(step, "script", list)),
                front_letter=letter_from_dict(_field(step, "front_letter", dict)),
                stripped_bare=_field(step, "stripped_bare", bool),
            )
            for step in _field(item, "steps", list)
        ),
    )


def replay_file_to_dict(b: int, fact: Factorization, script, result: Factorization) -> dict:
    return {
        "b": b,
        "factorization": factorization_to_dict(fact),
        "script": script_to_json(script),
        "result": factorization_to_dict(result),
    }


def replay_file_from_dict(item: dict) -> tuple:
    """``(b, factorization, script, result)``; ``b`` must be at least 2,
    every curve the two factorizations name must lie in the reference
    configuration of that ``b``, and every move index must name a pair of
    adjacent letters (moves keep the letter count)."""
    b = _field(item, "b", int)
    if b < 2:
        raise ValueError(f"key 'b' must be at least 2, got {b}")
    fact = factorization_from_dict(_field(item, "factorization", dict))
    script = script_from_json(_field(item, "script", list))
    for step, (_, index) in enumerate(script):
        if not 0 <= index < len(fact) - 1:
            raise ValueError(
                f"script step {step}: move index {index} out of range for "
                f"{len(fact)} letters"
            )
    result = factorization_from_dict(_field(item, "result", dict))
    chain = 2 * b - 1
    for letter in fact.letters + result.letters:
        for c in (letter.core, *(c for c, _ in letter.conjugator)):
            if c.index > chain:
                raise ValueError(
                    f"curve {c.label} lies outside the configuration of key "
                    f"'b' = {b}, whose chains have {chain} curves"
                )
    return b, fact, script, result
