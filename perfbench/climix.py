"""The ``cli-mix`` workload: one ``twistbench`` process at a time.

The seed fixes one list of command items; every pass runs the whole
list again in a new shuffled order, so each item repeats within a run
and its stdout can be compared byte for byte.  Each item carries the
exit codes it may end with, fixed by how its input was built:

* ``verify-psi``, ``auroux --out`` then ``--replay``, ``invariants``,
  ``export config`` and ``monodromy emit`` exit 0;
* ``hurwitz replay`` files replay a script followed by its inverse, so
  the recorded result is the start factorization (exit 0); one file has
  a sign changed in its result (exit 1);
* ``braid eq`` pairs are equal by relator insertion and free
  cancellation (exit 0), or unequal because one letter changes the strand
  permutation, or because one side is multiplied by the full twist, which
  is central and changes only the exponent sum (exit 1);
* ``braid manfredini`` exits 0 when ``2 <= k <= n-2`` and 3 (a relation
  skipped, off the generator range) otherwise.
"""
from __future__ import annotations

import json
import random

from twistbench.factorization import Factorization, TwistLetter, invert_script
from twistbench.serialize import replay_file_to_dict, sha256_hex, stable_json

from inproc import random_factorization, reference_curves
from run import WORK_DIR

VERIFY_BS = (2, 3, 4)
AUROUX_BS = (2, 3)
REPLAY_GOOD = 4
BRAID_EQUAL = 12
BRAID_PERMUTATION = 3
BRAID_EXPONENT = 3
#: the 3-strand family (s1 s2^-1)^k, whose free-group cross-check grows
#: exponentially with k
FAMILY_KS = (3, 6, 9)
MANFREDINI = ((4, 2), (6, 3), (8, 4), (4, 3), (5, 1), (6, 5))
EXIT_OF = {0: "pass", 1: "fail", 3: "inconclusive"}


class Item:
    """One command: its kind, argv after ``twistbench``, the parameters
    the traced stand-in needs, and the exit codes it may end with."""

    def __init__(self, kind: str, argv: list, params: dict, exits, out_file=None):
        self.kind = kind
        self.argv = [str(a) for a in argv]
        self.params = params
        self.exits = frozenset(exits)
        self.out_file = out_file

    @property
    def id(self) -> str:
        return " ".join(self.argv)


def _replay_file(root, rng: random.Random, corrupt: bool) -> str:
    curves = reference_curves(2)
    fact = random_factorization(rng, curves, 4, 6)
    half = tuple(
        (rng.choice(("left", "right")), rng.randrange(len(fact) - 1))
        for _ in range(rng.randrange(3, 9))
    )
    script = half + invert_script(half)
    result = fact
    if corrupt:
        first = result.letters[0]
        changed = TwistLetter(first.core, -first.sign, first.conjugator)
        result = Factorization((changed,) + result.letters[1:])
    text = stable_json(replay_file_to_dict(2, fact, script, result))
    name = f"{WORK_DIR}/replay-{sha256_hex(text)[:12]}.json"
    (root / name).write_text(text)
    return name


def _letters(rng: random.Random, n: int, count: int) -> list:
    return [rng.randrange(1, n) * rng.choice((1, -1)) for _ in range(count)]


def _pad(rng: random.Random, word: list, n: int, length: int) -> list:
    """Insert cancelling pairs and relators until ``word`` has ``length``
    letters; the braid it names does not change."""
    word = list(word)
    while len(word) < length:
        pos = rng.randrange(len(word) + 1)
        i = rng.randrange(1, n)
        if n >= 3 and length - len(word) >= 6 and rng.random() < 0.5:
            i = rng.randrange(1, n - 1)
            j = i + 1
            # s_i s_j s_i (s_j s_i s_j)^-1
            insert = [i, j, i, -j, -i, -j]
        else:
            s = rng.choice((1, -1))
            insert = [i * s, -i * s]
        word[pos:pos] = insert
    return word


def _braid_pair(rng: random.Random, change: str | None, j: int):
    """Pair ``j``: strands and lengths on a fixed grid, letters random.

    The braid itself is a random word of 2-4 letters, padded to 10-60;
    a random word of 10 letters can already have free-group images of
    thousands of letters, which would make the mix depend on the seed."""
    n = 3 + j % 6
    base = _letters(rng, n, 2 + j % 3)
    rhs_base = list(base)
    if change == "exponent":
        # times the full twist: central, so only the exponent sum tells
        rhs_base += list(range(1, n)) * n
    elif change == "permutation":
        k = rng.randrange(len(base))
        g = abs(rhs_base[k])
        other = rng.choice([h for h in range(1, n) if h != g])
        rhs_base[k] = other if rhs_base[k] > 0 else -other
    lhs = _pad(rng, base, n, 10 + (j * 7) % 51)
    rhs = _pad(rng, rhs_base, n, 10 + (j * 13) % 51)
    return n, lhs, rhs


def _braid_item(n: int, lhs: list, rhs: list, exits) -> Item:
    argv = ["braid", "eq", "--n", n, "--lhs", json.dumps(lhs), "--rhs", json.dumps(rhs)]
    return Item("braid-eq", argv, {"n": n, "lhs": lhs, "rhs": rhs}, exits)


def family_item(rng: random.Random, k: int) -> Item:
    word = [1, -2] * k
    return _braid_item(3, word, _pad(rng, word, 3, 2 * k + 4), {0})


def items(root, seed: int) -> list:
    """The seeded item list of one run; writes its input files."""
    rng = random.Random(f"cli-mix:{seed}")
    (root / WORK_DIR).mkdir(exist_ok=True)
    out = []
    for b in VERIFY_BS:
        out.append(Item("verify-psi", ["verify-psi", "--b", b], {"b": b}, {0}))
    for b in AUROUX_BS:
        cert = f"{WORK_DIR}/cert-b{b}.json"
        out.append(Item("auroux-emit", ["auroux", "--b", b, "--out", cert], {"b": b, "file": cert}, {0}, cert))
        out.append(Item("auroux-replay", ["auroux", "--b", b, "--replay", cert], {"b": b, "file": cert}, {0}))
    for j in range(REPLAY_GOOD + 1):
        corrupt = j == REPLAY_GOOD
        name = _replay_file(root, rng, corrupt)
        out.append(
            Item("hurwitz-replay", ["hurwitz", "replay", "--file", name], {"file": name}, {1} if corrupt else {0})
        )
    for change, count in ((None, BRAID_EQUAL), ("permutation", BRAID_PERMUTATION), ("exponent", BRAID_EXPONENT)):
        for j in range(count):
            n, lhs, rhs = _braid_pair(rng, change, j)
            out.append(_braid_item(n, lhs, rhs, {0} if change is None else {1}))
    for k in FAMILY_KS:
        out.append(family_item(rng, k))
    for n, k in MANFREDINI:
        argv = ["braid", "manfredini", "--n", n, "--k", k]
        out.append(Item("braid-manfredini", argv, {"n": n, "k": k}, {0} if 2 <= k <= n - 2 else {3}))
    for fmt in ("table", "json", "table", "json", "table"):
        a, b, c, d = (rng.randrange(1, 31) for _ in range(4))
        argv = ["invariants", "--a", a, "--b", b, "--c", c, "--d", d, "--format", fmt]
        out.append(Item("invariants", argv, {"a": a, "b": b, "c": c, "d": d, "k": None}, {0}))
    out.append(
        Item(
            "invariants",
            ["invariants", "--a", 14, "--b", 8, "--c", 6, "--k", 2],
            {"a": 14, "b": 8, "c": 6, "d": None, "k": 2},
            {0},
        )
    )
    for b in (2, 3, 4):
        out.append(Item("export", ["export", "config", "--b", b, "--format", "dot"], {"what": "config", "b": b}, {0}))
        out.append(Item("export", ["monodromy", "emit", "--b", b, "--format", "json"], {"what": "monodromy", "b": b}, {0}))
    return out


def shuffled_pass(all_items: list, seed: int, k: int) -> list:
    """Pass ``k`` in a seeded order, each emit ahead of its replay."""
    order = list(all_items)
    random.Random(f"cli-mix:{seed}:{k}").shuffle(order)
    position = {item.id: i for i, item in enumerate(order)}
    for item in all_items:
        if item.kind == "auroux-replay":
            emit = next(e for e in all_items if e.out_file == item.params["file"])
            i, j = position[emit.id], position[item.id]
            if j < i:
                order[i], order[j] = item, emit
                position[emit.id], position[item.id] = j, i
    return order
