"""Seeded check streams of the three in-process workloads.

Every check calls public functions of the program inside spans named
``<layer>.<operation>`` and returns a verdict: ``pass``, ``fail`` or
``inconclusive``.  Each check also carries the verdicts it may end with,
fixed by how its input was built, so a wrong answer is caught without a
second implementation.

A workload is an endless sequence of passes.  Pass ``k`` of seed ``s`` is
drawn from ``random.Random(f"<workload>:<s>:<k>")``, so the same seed
always gives the same checks, and every pass has the same composition
(kinds and sizes) in a shuffled order.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from twistbench.canonical import canonical_sigma_signs
from twistbench.cli import DEFAULT_BUDGET
from twistbench.coxeter import coxeter, psi_factor_chains, psi_factorization, verify_chain_action
from twistbench.factorization import (
    Factorization,
    TwistLetter,
    apply_script,
    greedy_match_script,
    hurwitz_search,
    inverse_op,
    letter_matrix,
    product_matrix,
)
from twistbench.homology import (
    homology_model,
    is_symplectic,
    psi_reference,
    twist_word_matrix,
)
from twistbench.monodromy import mu_nu_block, mu_nu_normal_form
from twistbench.surface import FAMILIES, build_reference_configuration, curve, ribbon_from_system

PASS, FAIL, INCONCLUSIVE = "pass", "fail", "inconclusive"


@dataclass
class Check:
    kind: str
    run: Callable  # (tracer) -> verdict
    expect: frozenset


class Models:
    """Reference models of one run, built on first use inside the check
    that needs them (a user process pays each model once)."""

    def __init__(self):
        self._models: dict = {}

    def get(self, b: int, tr):
        model = self._models.get(b)
        if model is None:
            model = build_model(b, tr)
            self._models[b] = model
        return model


def reference_curves(b: int) -> tuple:
    """The curves of the reference configuration for ``b``."""
    return tuple(curve(f, i) for f in FAMILIES for i in range(1, 2 * b)) + (curve("sigma"),)


def build_model(b: int, tr):
    """``reference_model(b)`` split at the layer boundaries."""
    with tr.span("canonical.calibrate"):
        canonical_sigma_signs()
    with tr.span("surface.configure"):
        ribbon = ribbon_from_system(build_reference_configuration(b))
    with tr.span("homology.model_build"):
        return homology_model(ribbon)


# ---------------------------------------------------------------------------
# psi-sweep: the gluing identity and chain actions, b = 2..4

PSI_BS = (2, 3, 4)
#: twist relations per pass, by b: (crossing pairs, disjoint pairs).  The
#: crossing pairs at b=4 form the largest block of checks of one cost, and
#: the median check of a pass falls inside it.
RELATIONS = {2: (4, 4), 3: (4, 4), 4: (24, 4)}


def _psi_pipeline(b: int, flip_at: int | None, tr) -> str:
    model = build_model(b, tr)
    word = psi_factorization(b)
    if flip_at is not None:
        c, s = word[flip_at]
        # T_c^2 is the identity on H_1 only when the class of c is zero
        if not any(model.curve_class(c)):
            raise RuntimeError(f"flipped letter {c.label} has a zero class")
        word = word[:flip_at] + ((c, -s),) + word[flip_at + 1:]
    with tr.span("homology.psi_reference"):
        reference = psi_reference(model)
    with tr.span("homology.twist_product"):
        product = twist_word_matrix(model, word)
    tr.count("homology.twist_letters", len(word))
    with tr.span("homology.symplectic_check"):
        symplectic = is_symplectic(product, model) and is_symplectic(reference, model)
    return PASS if symplectic and product.matrix == reference.matrix else FAIL


def _chain_action(models: Models, b: int, chain, tr) -> str:
    model = models.get(b, tr)
    tr.count("coxeter.word_letters", len(coxeter(chain, 1 if len(chain) % 2 else 2)))
    try:
        with tr.span("coxeter.chain_action"):
            verify_chain_action(model, chain)
    except AssertionError:
        return FAIL
    return PASS


def _relation(models: Models, b: int, lhs, rhs, tr) -> str:
    model = models.get(b, tr)
    with tr.span("homology.twist_product"):
        equal = twist_word_matrix(model, lhs).matrix == twist_word_matrix(model, rhs).matrix
    tr.count("homology.twist_letters", len(lhs) + len(rhs))
    return PASS if equal else FAIL


def _meet(a, c) -> bool:
    """Whether two curves of the reference configuration cross once:
    consecutive curves of a family, or sigma and a family's first curve."""
    if "sigma" in (a.family, c.family):
        return (c if a.family == "sigma" else a).index == 1
    return a.family == c.family and abs(a.index - c.index) == 1


def _pair_curves(curves, rng: random.Random, crossing: bool):
    """Two curves that cross once, or two distinct disjoint curves."""
    while True:
        a, c = rng.choice(curves), rng.choice(curves)
        if a != c and _meet(a, c) == crossing:
            return a, c


def psi_pass(rng: random.Random, models: Models) -> list:
    checks = []
    for b in PSI_BS:
        curves = reference_curves(b)
        word_len = len(psi_factorization(b))
        flip_at = rng.randrange(word_len)
        checks.append(Check(f"psi-b{b}", lambda tr, b=b: _psi_pipeline(b, None, tr), frozenset([PASS])))
        checks.append(
            Check(
                f"psi-flipped-b{b}",
                lambda tr, b=b, k=flip_at: _psi_pipeline(b, k, tr),
                frozenset([FAIL]),
            )
        )
        for chain in psi_factor_chains(b).values():
            checks.append(
                Check(
                    f"chain-action-b{b}",
                    lambda tr, b=b, chain=chain: _chain_action(models, b, chain, tr),
                    frozenset([PASS]),
                )
            )
        crossing, disjoint = RELATIONS[b]
        for j in range(crossing):
            s = 1 if j % 2 else -1
            a, c = _pair_curves(curves, rng, crossing=True)
            lhs, rhs = ((a, s), (c, s), (a, s)), ((c, s), (a, s), (c, s))
            checks.append(
                Check(
                    f"braid-relation-b{b}",
                    lambda tr, b=b, lhs=lhs, rhs=rhs: _relation(models, b, lhs, rhs, tr),
                    frozenset([PASS]),
                )
            )
        for j in range(disjoint):
            a, c = _pair_curves(curves, rng, crossing=False)
            s, t = (1, 1) if j % 2 else (-1, 1)
            lhs, rhs = ((a, s), (c, t)), ((c, t), (a, s))
            checks.append(
                Check(
                    f"commutation-b{b}",
                    lambda tr, b=b, lhs=lhs, rhs=rhs: _relation(models, b, lhs, rhs, tr),
                    frozenset([PASS]),
                )
            )
    rng.shuffle(checks)
    return checks


# ---------------------------------------------------------------------------
# hurwitz-churn: long move scripts, product unchanged

CHURN_BS = (2, 3)
CHURN_RANDOM_PER_B = 40
#: repeats of the (right i, left i+1) pattern in the growth checks; each
#: repeat multiplies conjugator length by about 2.6 (8,000, 21,000 and
#: 55,000 letters on four letters with two-letter conjugators)
CHURN_GROWTH_REPEATS = (7, 8, 9)
#: bound on the unreduced conjugator length a random script may reach
CHURN_CONJUGATOR_CAP = 3000


def random_letter(rng: random.Random, curves, conjugator_len: int | None = None) -> TwistLetter:
    """A random conjugated twist; its conjugator has 0-2 letters, or
    exactly ``conjugator_len``."""
    length = rng.randrange(0, 3) if conjugator_len is None else conjugator_len
    conjugator = tuple((rng.choice(curves), rng.choice((1, -1))) for _ in range(length))
    return TwistLetter(rng.choice(curves), rng.choice((1, -1)), conjugator)


def random_factorization(
    rng: random.Random, curves, lo: int, hi: int, conjugator_len: int | None = None
) -> Factorization:
    count = rng.randrange(lo, hi + 1)
    return Factorization(tuple(random_letter(rng, curves, conjugator_len) for _ in range(count)))


def _grow(lengths: list, op) -> list:
    """Upper bound on conjugator lengths after one move (no cancellation)."""
    direction, i = op
    a, b = lengths[i], lengths[i + 1]
    pair = [b, a + 2 * b + 1] if direction == "right" else [b + 2 * a + 1, a]
    return lengths[:i] + pair + lengths[i + 2:]


def capped_script(rng: random.Random, fact: Factorization, moves: int, cap: int) -> tuple:
    """``moves`` random moves.  A move that would let the unreduced
    conjugator bound pass ``cap`` is redrawn; after 20 redraws the move
    undoing the previous one is taken, which restores the letters exactly."""
    lengths = [len(t.conjugator) for t in fact.letters]
    script: list = []
    before: list = []  # lengths before each move of the script
    while len(script) < moves:
        for _ in range(20):
            op = (rng.choice(("left", "right")), rng.randrange(len(fact) - 1))
            grown = _grow(lengths, op)
            if max(grown) <= cap:
                break
        else:
            op, grown = inverse_op(script[-1]), before[-1]
        before.append(lengths)
        lengths = grown
        script.append(op)
    return tuple(script)


def _churn(models: Models, b: int, fact: Factorization, script, tr) -> str:
    model = models.get(b, tr)
    with tr.span("factorization.product_matrix"):
        before = product_matrix(model, fact)
    with tr.span("factorization.apply_script"):
        moved = apply_script(fact, script)
    with tr.span("factorization.product_matrix"):
        after = product_matrix(model, moved)
    if tr.enabled:
        tr.count("factorization.moves", len(script))
        for f in (fact, moved):
            tr.count("factorization.expansion_letters", sum(2 * len(t.conjugator) + 1 for t in f.letters))
        tr.maximum("factorization.max_conjugator_len", max(len(t.conjugator) for t in moved.letters))
        tr.maximum("factorization.reduced_word_len", max(len(before.word), len(after.word)))
    return PASS if before.matrix == after.matrix else FAIL


def churn_pass(rng: random.Random, models: Models) -> list:
    checks = []
    for b in CHURN_BS:
        curves = reference_curves(b)
        for j in range(CHURN_RANDOM_PER_B):
            # sizes on a fixed grid, so every pass and seed has the same mix
            fact = random_factorization(rng, curves, 3 + j % 6, 3 + j % 6)
            script = capped_script(rng, fact, 1 + (j * 50) // CHURN_RANDOM_PER_B, CHURN_CONJUGATOR_CAP)
            checks.append(
                Check(
                    "churn",
                    lambda tr, b=b, f=fact, s=script: _churn(models, b, f, s, tr),
                    frozenset([PASS]),
                )
            )
        for repeats in CHURN_GROWTH_REPEATS:
            # letters of one shape, so the growth, not the draw, sets the size
            fact = random_factorization(rng, curves, 4, 4, conjugator_len=2)
            i = rng.randrange(len(fact) - 2)
            script = (("right", i), ("left", i + 1)) * repeats
            checks.append(
                Check(
                    "churn-growth",
                    lambda tr, b=b, f=fact, s=script: _churn(models, b, f, s, tr),
                    frozenset([PASS]),
                )
            )
    rng.shuffle(checks)
    return checks


# ---------------------------------------------------------------------------
# hurwitz-search: planted scripts and the mu/nu block normal form

SEARCH_PLANTED = 60
SEARCH_GREEDY_BS = (2, 3)
SEARCH_BFS_B = 2
SEARCH_BFS_DEPTHS = (6, 7, 8)
#: greedy normalizer script lengths for the mu/nu block, by b
GREEDY_MOVES = {2: 24, 3: 80}


def _keyed(key, tr):
    if not tr.enabled:
        return key

    def traced(letter):
        tr.count("factorization.search_key_calls")
        with tr.span("factorization.search_key"):
            return key(letter)

    return traced


def _structural(letter):
    return letter


def _planted(start: Factorization, goal: Factorization, tr) -> str:
    with tr.span("factorization.search"):
        script = hurwitz_search(start, goal, _keyed(_structural, tr), max_depth=5)
    tr.count("factorization.searches")
    if script is None:
        return INCONCLUSIVE
    tr.count("factorization.found")
    with tr.span("factorization.apply_script"):
        reached = apply_script(start, script)
    tr.count("factorization.moves", len(script))
    return PASS if reached.letters == goal.letters else FAIL


def _matches(model, start, goal, script, tr) -> bool:
    with tr.span("factorization.apply_script"):
        reached = apply_script(start, script)
    tr.count("factorization.moves", len(script))
    with tr.span("factorization.letter_matrix"):
        return [letter_matrix(model, t) for t in reached.letters] == [
            letter_matrix(model, t) for t in goal.letters
        ]


def _greedy(models: Models, b: int, tr) -> str:
    model = models.get(b, tr)
    start, goal = mu_nu_block(b), mu_nu_normal_form(b)
    key = lambda letter: letter_matrix(model, letter)  # noqa: E731
    with tr.span("factorization.greedy"):
        script = greedy_match_script(start, goal, key)
    tr.count("factorization.searches")
    if script is not None:
        tr.count("factorization.found")
    if script is None or len(script) != GREEDY_MOVES[b]:
        return FAIL
    return PASS if _matches(model, start, goal, script, tr) else FAIL


def _bfs(models: Models, b: int, depth: int, tr) -> str:
    model = models.get(b, tr)
    start, goal = mu_nu_block(b), mu_nu_normal_form(b)
    key = _keyed(lambda letter: letter_matrix(model, letter), tr)
    with tr.span("factorization.search"):
        script = hurwitz_search(start, goal, key, max_depth=depth, budget=DEFAULT_BUDGET)
    tr.count("factorization.searches")
    if script is None:
        return INCONCLUSIVE
    tr.count("factorization.found")
    return PASS if _matches(model, start, goal, script, tr) else FAIL


def search_pass(rng: random.Random, models: Models) -> list:
    curves = reference_curves(2)
    checks = []
    for j in range(SEARCH_PLANTED):
        # sizes and depths on a fixed grid, so every pass has the same mix
        start = random_factorization(rng, curves, 4 + j % 4, 4 + j % 4)
        planted = tuple(
            (rng.choice(("left", "right")), rng.randrange(len(start) - 1))
            for _ in range(1 + (j // 4) % 5)
        )
        goal = apply_script(start, planted)
        checks.append(
            Check("planted", lambda tr, s=start, g=goal: _planted(s, g, tr), frozenset([PASS]))
        )
    for gb in SEARCH_GREEDY_BS:
        checks.append(Check("greedy", lambda tr, gb=gb: _greedy(models, gb, tr), frozenset([PASS])))
    for depth in SEARCH_BFS_DEPTHS:
        # whether a script of this depth exists is not known; a found
        # script is replayed, so only "fail" is wrong
        checks.append(
            Check(
                "block-search",
                lambda tr, d=depth: _bfs(models, SEARCH_BFS_B, d, tr),
                frozenset([PASS, INCONCLUSIVE]),
            )
        )
    rng.shuffle(checks)
    return checks


PASSES = {
    "psi-sweep": psi_pass,
    "hurwitz-churn": churn_pass,
    "hurwitz-search": search_pass,
}


def passes(workload: str, seed: int):
    """Endless passes of ``workload``, each a list of checks."""
    make_pass = PASSES[workload]
    models = Models()
    k = 0
    while True:
        yield make_pass(random.Random(f"{workload}:{seed}:{k}"), models)
        k += 1
