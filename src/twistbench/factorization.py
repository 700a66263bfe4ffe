"""Factorizations into conjugated twists and their elementary moves.

A letter is a conjugate ``(core^sign)_w = w^{-1} T_core^sign w`` of a
single twist, stored as (core, sign, conjugator word).  Reduced words
in, reduced words out: the constructor freely reduces outside input once,
and moves and products only join reduced words, cancelling where they
meet (``words.join_conjugate``).  A factorization is a sequence of
letters whose product is read left to right with the rightmost letter
acting first, matching twist-word composition.

The two elementary moves swap adjacent letters without changing the
product:

    right at i:  (a, b) -> (b, (a)_b)
    left  at i:  (a, b) -> ((b)_{a^{-1}}, a)

The calculus is generic over the core type: homology contexts use curve
ids, braid contexts use generator indices.  Nothing here touches a
homology model except ``product_matrix`` and ``letter_matrix``.  They
import ``homology`` only where they compute a matrix, so commands that
move letters without a model (``hurwitz replay``, ``monodromy emit``)
never load it or ``intlin``, and a cached letter matrix pays no import.
"""
from __future__ import annotations

from collections import namedtuple
from operator import eq, itemgetter

from . import words
from .words import Word

# annotations are never evaluated, so only a type checker imports typing
TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Callable, Sequence

    from .homology import HomologyModel, MappingClassMatrix

__all__ = [
    "MoveError",
    "ConjugatorCapError",
    "MAX_CONJUGATOR_TOTAL",
    "MissingCoreError",
    "MoveBudgetError",
    "MOVE_COST",
    "MAX_CERTIFICATE_COST",
    "TwistLetter",
    "Factorization",
    "bare",
    "inverse_op",
    "invert_script",
    "apply_script",
    "letter_matrix",
    "product_matrix",
    "strip_to_front",
    "AurouxStep",
    "AurouxCertificate",
    "auroux_certificate",
    "replay_certificate",
    "hurwitz_search",
    "greedy_match_script",
]

MoveOp = tuple  # ("right"|"left", index)


class MoveError(ValueError):
    """A move script step that cannot be applied; carries the step index
    and the message without it."""

    def __init__(self, step: int, message: str):
        self.step = step
        self.detail = message
        super().__init__(f"script step {step}: {message}")


#: Most conjugator letters, summed over the factorization, that
#: ``apply_script`` lets a script build.  A move can nearly triple a
#: conjugator, so a short script grows it exponentially: on four letters
#: with two-letter conjugators, ``(("right", 1), ("left", 2)) * k`` makes
#: the longest about 1.0M letters at k=12 in 0.9 s, 2.6M at k=13 in 2.5 s
#: and 6.7M at k=14 in 7.3 s (a 2-core x86-64 machine), and k=16 exhausts
#: 1 GiB of address space.  Capping the sum, not each letter, also stops a
#: long conjugator from being copied into every letter it passes.  The cap
#: bounds memory only; time still grows with the script's length.
MAX_CONJUGATOR_TOTAL = 1_000_000


class ConjugatorCapError(MoveError):
    """A script step after which the factorization's conjugators total
    more than ``MAX_CONJUGATOR_TOTAL`` letters; carries the step and the
    total, and, for a certificate step, the index of the move inside its
    script (``None`` otherwise)."""

    def __init__(self, step: int, total: int, move: int | None = None):
        self.total = total
        self.move = move
        detail = f"conjugators total {total} letters, over the cap of {MAX_CONJUGATOR_TOTAL}"
        super().__init__(step, detail if move is None else f"move {move}: {detail}")


#: What one move of a certificate script costs, counted in conjugator
#: letters, on top of the conjugator of the letter it passes: a least-squares
#: fit to ``auroux --out`` over ``Y`` blocks then ``X``, at b from 2 to 40,
#: gave about 10.7 us a move and 31 ns a conjugator letter on a 2-core
#: x86-64 machine (``--replay`` alone: 8.9 us and 16 ns).  ``strip_to_front``
#: measures a move before it builds it, so the letters are cheap and the
#: moves dominate.
MOVE_COST = 340

#: Most cost that the scripts of one ``auroux`` certificate may have in
#: all, known before the first move: each move costs ``MOVE_COST`` plus the
#: conjugator length of the letter of the original factorization at its
#: index, which is the letter a move of ``strip_to_front`` passes.  The
#: conjugators grow with b, so this bounds the time at every b where a flat
#: move count would not.  Set by the rule of the caps in ``cli`` on
#: compositions whose first ``X`` block comes late, where every move is
#: paid: the cost of ``auroux --b 40 --out`` over five ``Y`` blocks then
#: ``X`` (362,610 moves).  Timings are in ``CHANGES.md``.
MAX_CERTIFICATE_COST = 160_305_220


class MissingCoreError(ValueError):
    """Target cores with no positive letter in the factorization; carries
    them."""

    def __init__(self, cores: list):
        self.cores = cores
        super().__init__(f"no positive letter with core {', '.join(map(str, cores))}")


class MoveBudgetError(ValueError):
    """Certificate scripts that cost more than ``MAX_CERTIFICATE_COST``
    in all, refused before the first move; carries the move count and the
    cost."""

    def __init__(self, moves: int, cost: int):
        self.moves = moves
        self.cost = cost
        super().__init__(
            f"certificate scripts make {moves} moves at a cost of {cost}, "
            f"over the budget of {MAX_CERTIFICATE_COST}"
        )


def _move_costs(letters) -> list:
    """What a move passing each letter costs."""
    return [MOVE_COST + len(t.conjugator) for t in letters]


class TwistLetter(namedtuple("TwistLetter", ("core", "sign", "conjugator"))):
    """``(core^sign)_conjugator``.  The constructor freely reduces the
    conjugator; every letter a move derives from reduced letters joins
    reduced words and skips that pass.

    An immutable tuple ``(core, sign, conjugator)``, so hashing and
    equality run in C.  It equals, and hashes like, the plain tuple:
    ``TwistLetter(c, 1) == (c, 1, ())``."""

    __slots__ = ()

    def __new__(cls, core, sign: int, conjugator: Word = ()) -> "TwistLetter":
        if sign not in (1, -1):
            raise ValueError("letter sign must be +1 or -1")
        return tuple.__new__(cls, (core, sign, words.free_reduce(conjugator)))

    @classmethod
    def _reduced(cls, core, sign: int, conjugator: Word) -> "TwistLetter":
        """A letter over a conjugator that is already freely reduced."""
        return tuple.__new__(cls, (core, sign, conjugator))

    def reduced_expansion(self) -> Word:
        """The plain twist word (inverse conjugator, core, conjugator),
        freely reduced."""
        return words.join_conjugate((), (self.core, self.sign), self.conjugator)


#: the core of a letter, read in C
_core = itemgetter(0)


def bare(core, sign: int = 1) -> TwistLetter:
    return TwistLetter(core, sign)


class Factorization(namedtuple("Factorization", ("letters",))):
    """A sequence of twist letters, the leftmost first.

    A one-field tuple ``(letters,)``, equal to the plain tuple; ``len``
    and indexing run over the letters, so iterate over ``letters``."""

    __slots__ = ()

    def __new__(cls, letters) -> "Factorization":
        return tuple.__new__(cls, (tuple(letters),))

    def __len__(self) -> int:
        return len(self.letters)

    def __getitem__(self, i) -> TwistLetter:
        return self.letters[i]

    def cores(self) -> tuple:
        return tuple(map(_core, self.letters))


def _swap(a: TwistLetter, b: TwistLetter, direction: str) -> tuple[tuple, int]:
    """The pair replacing ``(a, b)`` under a move, and the index (0 or 1)
    of its one new letter; the other letter of the pair is kept as is."""
    if direction == "right":
        conjugator = words.join_conjugate(a.conjugator, (b.core, b.sign), b.conjugator)
        return (b, TwistLetter._reduced(a.core, a.sign, conjugator)), 1
    if direction == "left":
        conjugator = words.join_conjugate(b.conjugator, (a.core, -a.sign), a.conjugator)
        return (TwistLetter._reduced(b.core, b.sign, conjugator), a), 0
    raise ValueError(f"unknown move direction {direction!r}")


def inverse_op(op: MoveOp) -> MoveOp:
    direction, index = op
    return ("left" if direction == "right" else "right", index)


def invert_script(script: Sequence) -> tuple:
    return tuple(inverse_op(op) for op in reversed(tuple(script)))


def apply_script(fact: Factorization, script: Sequence) -> Factorization:
    """Apply the moves of ``script`` in order, each replacing its pair in
    place in one list of the letters.  Raises ``MoveError`` at the first
    step that is not a valid move, and ``ConjugatorCapError`` at the first
    step after which the conjugators total more than
    ``MAX_CONJUGATOR_TOTAL`` letters."""
    letters = list(fact.letters)
    total = sum(len(t.conjugator) for t in letters)
    for step, op in enumerate(tuple(script)):
        try:
            direction, index = op
            if not 0 <= index < len(letters) - 1:
                raise IndexError(f"move index {index} out of range for {len(letters)} letters")
            pair, new = _swap(letters[index], letters[index + 1], direction)
        except (IndexError, ValueError, TypeError) as exc:
            raise MoveError(step, str(exc)) from exc
        # the new letter replaces the old one in the other slot of the pair
        total += len(pair[new].conjugator) - len(letters[index + 1 - new].conjugator)
        if total > MAX_CONJUGATOR_TOTAL:
            raise ConjugatorCapError(step, total)
        letters[index:index + 2] = pair
    return Factorization(letters)


def letter_matrix(model: HomologyModel, letter: TwistLetter):
    cache = model.letter_matrices
    hit = cache.get(letter)
    if hit is None:
        from .homology import twist_word_matrix

        hit = cache[letter] = twist_word_matrix(model, letter.reduced_expansion()).matrix
    return hit


def product_matrix(model: HomologyModel, fact: Factorization) -> MappingClassMatrix:
    from .homology import twist_word_matrix

    # join the reduced expansions: moves leave the reduced word small
    # even when individual conjugators have grown large
    word = ()
    for t in fact.letters:
        word = words.join_conjugate(word, (t.core, t.sign), t.conjugator)
    return twist_word_matrix(model, word)


def strip_to_front(fact: Factorization, index: int) -> tuple[TwistLetter, tuple]:
    """Bubble the letter at ``index`` to the front, using a left move
    whenever it strictly shortens the letter's conjugator and a right move
    otherwise.  Returns the front letter and the script.  The move at
    ``i`` meets ``fact[i]`` untouched and a right move keeps the moving
    letter, so only the moving letter is followed, and its new conjugator
    is built only for a left move."""
    if not 0 <= index < len(fact):
        raise IndexError(f"letter index {index} out of range")
    letter = fact.letters[index]
    script: list = []
    for i in range(index - 1, -1, -1):
        a = fact.letters[i]
        inverse = (a.core, -a.sign)
        # measure the left move's conjugator, and build it only to take it
        left = (
            words.join_conjugate_length(letter.conjugator, inverse, a.conjugator)
            < len(letter.conjugator)
        )
        if left:
            conjugator = words.join_conjugate(letter.conjugator, inverse, a.conjugator)
            letter = TwistLetter._reduced(letter.core, letter.sign, conjugator)
        script.append(("left" if left else "right", i))
    return letter, tuple(script)


class AurouxStep(namedtuple("AurouxStep", ("core", "script", "front_letter"))):
    """One certificate step: the script that moves a positive letter with
    ``core`` to the front, and the letter it arrives as."""

    __slots__ = ()


class AurouxCertificate(namedtuple("AurouxCertificate", ("base_cores", "steps"))):
    """The cores of the prefix of the factorization that the steps touch,
    and one step per target core.  ``all_bare`` says whether every
    recorded front is the bare twist of its core."""

    __slots__ = ()

    @property
    def all_bare(self) -> bool:
        # read by perfbench/cli_standin.py; from the recorded fronts, which
        # a replay compares, so no stored flag can disagree with a replay
        return all(s.front_letter == bare(s.core) for s in self.steps)


def auroux_certificate(fact: Factorization, targets: Sequence) -> AurouxCertificate:
    """For each target core, pick a positive letter of the factorization
    with that core (shortest conjugator first) and record a script moving
    it to the front, stripping its conjugator along the way.

    Each step starts again from the original factorization; the
    certificate witnesses one core at a time, and ``base_cores`` holds the
    cores of the prefix its scripts touch: a script of n moves starts from
    the letter at index n, so the prefix runs up to the longest script.
    Raises ``MissingCoreError`` naming every target core with no positive
    letter, then ``MoveBudgetError`` if the scripts would cost more than
    ``MAX_CERTIFICATE_COST``, both before the first move.
    """
    # each core's positive letter of least (conjugator length, index); the
    # copies of a repeated block share letter objects, so each is read once
    letters = fact.letters
    shortest: dict = {}
    for i in dict(zip(map(id, reversed(letters)), range(len(letters) - 1, -1, -1))).values():
        t = letters[i]
        if t.sign == +1:
            key = (len(t.conjugator), i)
            if key < shortest.setdefault(t.core, key):
                shortest[t.core] = key
    missing = [core for core in targets if core not in shortest]
    if missing:
        raise MissingCoreError(missing)
    indices = [shortest[core][1] for core in targets]
    # the step from index i makes i moves, passing letters 0..i-1
    costs = _move_costs(letters[: max(indices, default=0)])
    cost = sum(sum(costs[:i]) for i in indices)
    if cost > MAX_CERTIFICATE_COST:
        raise MoveBudgetError(sum(indices), cost)
    moved = [strip_to_front(fact, index) for index in indices]
    steps = tuple(
        AurouxStep(core=core, script=script, front_letter=front)
        for core, (front, script) in zip(targets, moved)
    )
    prefix = Factorization(letters[: max(indices, default=-1) + 1])
    return AurouxCertificate(base_cores=prefix.cores(), steps=steps)


def replay_certificate(fact: Factorization, certificate: AurouxCertificate) -> list:
    """Re-run every step's script on the prefix of the factorization that
    ``base_cores`` covers, comparing its cores in place, and check the
    recorded front letter is reproduced; a certificate whose
    ``base_cores`` span the whole factorization is its own prefix.  Raises
    ``MoveBudgetError`` before the first move if the scripts cost more
    than ``MAX_CERTIFICATE_COST``, and ``MoveError`` (``ConjugatorCapError``
    over the conjugator cap) with the first failing certificate step; a
    move inside its script is named in the message as ``move <index>``.
    Returns the recomputed front letters."""
    base = certificate.base_cores
    prefix = Factorization(fact.letters[: len(base)])
    if len(prefix) != len(base) or not all(map(eq, map(_core, prefix.letters), base)):
        raise MoveError(0, "certificate was issued for a different factorization")
    # a move out of range costs the least; apply_script refuses it
    costs = _move_costs(prefix.letters)
    moved = [i for step in certificate.steps for _, i in step.script]
    cost = sum(costs[i] if 0 <= i < len(costs) else MOVE_COST for i in moved)
    if cost > MAX_CERTIFICATE_COST:
        raise MoveBudgetError(len(moved), cost)
    fronts = []
    for k, step in enumerate(certificate.steps):
        try:
            front = apply_script(prefix, step.script).letters[:1]
        except ConjugatorCapError as err:
            raise ConjugatorCapError(k, err.total, err.step) from err
        except MoveError as err:
            raise MoveError(k, f"move {err.step}: {err.detail}") from err
        if front != (step.front_letter,):
            raise MoveError(k, f"replayed front letter differs for core {step.core!r}")
        fronts.append(front[0])
    return fronts


def hurwitz_search(
    start: Factorization,
    goal: Factorization,
    letter_key: Callable[[TwistLetter], object],
    *,
    max_depth: int = 6,
    budget: int = 20000,
) -> tuple | None:
    """Bidirectional breadth-first search for a move script carrying
    ``start`` to ``goal``, where letters are identified by ``letter_key``.
    Returns a script, or None when the search is inconclusive (depth or
    budget exhausted).

    Keys must be hashable.  Each distinct key value is interned to a
    small int for the length of one search, so a state is a tuple of
    ints and two letters are identified exactly when their keys are
    equal.  A move replaces one letter of the pair it swaps and keeps
    the other, so each expansion (one unit of ``budget``) evaluates
    ``letter_key`` once, on the new letter, and builds the neighbour's
    key from its parent's.

    Keys must be congruent for moves: the key of the letter a move
    creates depends only on the keys of the two letters swapped and the
    direction.  Then a state's neighbours depend only on its key, so
    skipping a state whose key was seen loses no script, and a move
    could be looked up from ``(id_a, id_b, direction)``.  The letter
    itself, its ``letter_matrix`` and the braid fingerprint of its
    expansion are congruent keys.
    """
    if len(start) != len(goal):
        return None

    ids: dict = {}

    def intern(letter: TwistLetter) -> int:
        return ids.setdefault(letter_key(letter), len(ids))

    start_key = tuple(intern(t) for t in start.letters)
    goal_key = tuple(intern(t) for t in goal.letters)
    if start_key == goal_key:
        return ()

    # forward scripts carry start -> state, backward scripts goal -> state;
    # on a meet the combined script is forward + inverse(backward).  A
    # frontier entry is (letters, key, script).
    forward_seen = {start_key: ()}
    backward_seen = {goal_key: ()}
    forward_frontier = [(start.letters, start_key, ())]
    backward_frontier = [(goal.letters, goal_key, ())]
    spent = 0
    depth_used = 0
    while forward_frontier and backward_frontier and depth_used < max_depth:
        expand_forward = len(forward_frontier) <= len(backward_frontier)
        frontier = forward_frontier if expand_forward else backward_frontier
        seen = forward_seen if expand_forward else backward_seen
        other_seen = backward_seen if expand_forward else forward_seen
        new_frontier = []
        for letters, key, script in frontier:
            for i in range(len(letters) - 1):
                a, b = letters[i], letters[i + 1]
                for direction in ("right", "left"):
                    spent += 1
                    if spent > budget:
                        return None
                    pair, new = _swap(a, b, direction)
                    # the kept letter is b (right) or a (left)
                    if new:
                        pair_key = (key[i + 1], intern(pair[1]))
                    else:
                        pair_key = (intern(pair[0]), key[i])
                    k = key[:i] + pair_key + key[i + 2:]
                    if k in seen:
                        continue
                    moved_script = script + ((direction, i),)
                    if k in other_seen:
                        if expand_forward:
                            return moved_script + invert_script(other_seen[k])
                        return other_seen[k] + invert_script(moved_script)
                    seen[k] = moved_script
                    new_frontier.append(
                        (letters[:i] + pair + letters[i + 2:], k, moved_script)
                    )
        if expand_forward:
            forward_frontier = new_frontier
        else:
            backward_frontier = new_frontier
        depth_used += 1
    return None


def greedy_match_script(
    start: Factorization,
    goal: Factorization,
    letter_key: Callable[[TwistLetter], object],
) -> tuple | None:
    """Deterministic normalization towards ``goal``: for each position in
    turn, bubble the first later letter whose key matches the goal letter's
    key to it with right moves.  The moving letter is never modified by
    right moves, so the candidate is chosen by its key before any move,
    while the letters it passes get conjugated by it — which is exactly
    what unwinds nested conjugators.  Returns the combined script (applying
    it to ``start`` yields a letterwise key match with ``goal``), or None
    when some position has no candidate.  Unlike :func:`hurwitz_search`
    this is not bounded-complete: None means this strategy failed, not
    that no script exists."""
    if len(start) != len(goal):
        return None
    goal_keys = [letter_key(letter) for letter in goal.letters]
    fact = start
    script: list = []
    for position, want in enumerate(goal_keys):
        candidate = next(
            (i for i in range(position, len(fact)) if letter_key(fact[i]) == want),
            None,
        )
        if candidate is None:
            return None
        run = tuple(("right", i) for i in range(candidate - 1, position - 1, -1))
        fact = apply_script(fact, run)
        script.extend(run)
    return tuple(script)
