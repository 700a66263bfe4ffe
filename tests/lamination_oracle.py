"""The half-twist action on lamination coordinates: the test oracle of
the braid decider.

``twistbench.laminations`` derives, for each local shape of the acting
pair, every shortest flip sequence that realizes a puncture swap.  The
search cannot see the difference between the two twist handednesses, so
here a consistency battery (inverses, braid relations, far commutation,
non-triviality) screens the candidate solutions, the first surviving
assignment is frozen (``_selected_cases``), and ``word_action`` applies
it to coordinates by the exchange rule x' = max(a+c, b+d) - x.  The
leftover global mirror freedom maps every generator to its inverse,
which no equality test can observe.  ``test_family`` is a separating
probe set of round curves.
"""
import itertools
from functools import lru_cache

from twistbench.laminations import (
    _REFERENCE,
    LaminationCoords,
    LaminationError,
    _candidates,
    _round_values,
    edge_index,
    edge_names,
    round_curve,
)


def _case_of(n: int, i: int) -> tuple:
    if not 1 <= i <= n - 1:
        raise LaminationError(f"generator index {i} out of range for {n} punctures")
    if n == 2:
        return "both", 0
    if i == 1:
        return "left", 0
    if i == n - 1:
        return "right", i - (_REFERENCE["right"][1])
    return "interior", i - _REFERENCE["interior"][1]


def _translate_name(name, offset: int, n: int):
    kind, t = name
    t = t + offset
    if kind == "w" and t in (1, n):
        return ("v", t)
    return (kind, t)


def _instantiate(case_solution, offset: int, n: int):
    ops, relabel = case_solution
    idx = edge_index(n)
    ops_idx = tuple(
        tuple(idx[_translate_name(nm, offset, n)] for nm in op) for op in ops
    )
    size = len(edge_names(n))
    perm = list(range(size))
    for target, source in relabel:
        perm[idx[_translate_name(target, offset, n)]] = idx[
            _translate_name(source, offset, n)
        ]
    inv = [0] * size
    for k, p in enumerate(perm):
        inv[p] = k
    return ops_idx, tuple(perm), tuple(inv)


def _act_with(data, values: tuple, sign: int) -> tuple:
    ops, perm, inv_perm = data
    vec = list(values)
    if sign == +1:
        for e, a, b, c, d in ops:
            vec[e] = max(vec[a] + vec[c], vec[b] + vec[d]) - vec[e]
        return tuple(vec[p] for p in perm)
    if sign != -1:
        raise LaminationError("sign must be +1 or -1")
    vec = [vec[p] for p in inv_perm]
    for e, a, b, c, d in reversed(ops):
        vec[e] = max(vec[a] + vec[c], vec[b] + vec[d]) - vec[e]
    return tuple(vec)


def _battery(choice: dict) -> bool:
    """Internal consistency screen for a full assignment of case data.
    The probes repeat their images across checks, so each image is
    computed once per assignment."""
    instantiated: dict = {}
    images: dict = {}

    def case_data(n, i):
        data = instantiated.get((n, i))
        if data is None:
            case, offset = _case_of(n, i)
            data = instantiated[(n, i)] = _instantiate(
                _candidates()[case][0][choice[case]], offset, n
            )
        return data

    def act(n, i, sign, values):
        key = (n, i, sign, values)
        image = images.get(key)
        if image is None:
            image = images[key] = _act_with(case_data(n, i), values, sign)
        return image

    def act_word(n, word, values):
        for i, s in reversed(word):
            values = act(n, i, s, values)
        return values

    for n in (2, 3, 4, 5, 6):
        probes = [_round_values(n, j, k) for j in range(1, n + 1) for k in range(j, n + 1)]
        gens = range(1, n)
        for p in probes:
            for i in gens:
                if act(n, i, -1, act(n, i, +1, p)) != p:
                    return False
                if act(n, i, +1, act(n, i, -1, p)) != p:
                    return False
            for i in range(1, n - 1):
                left = act_word(n, ((i, 1), (i + 1, 1), (i, 1)), p)
                right = act_word(n, ((i + 1, 1), (i, 1), (i + 1, 1)), p)
                if left != right:
                    return False
            for i in gens:
                for j in gens:
                    if j >= i + 2:
                        ij = act(n, i, 1, act(n, j, 1, p))
                        ji = act(n, j, 1, act(n, i, 1, p))
                        if ij != ji:
                            return False
    # non-triviality: a full twist moves something, and handedness matters
    n = 3
    probes = [_round_values(n, j, k) for j in range(1, n + 1) for k in range(j, n + 1)]
    square_moves = any(act(n, 1, 1, act(n, 1, 1, p)) != p for p in probes)
    hands_differ = any(act(n, 1, 1, p) != act(n, 1, -1, p) for p in probes)
    return square_moves and hands_differ


@lru_cache(maxsize=1)
def _selected_cases() -> dict:
    candidates = _candidates()
    names = sorted(candidates)
    pools = [range(len(candidates[c][0])) for c in names]
    for combo in itertools.product(*pools):
        choice = dict(zip(names, combo))
        if _battery(choice):
            return {
                case: candidates[case][0][choice[case]] for case in names
            }
    raise LaminationError("no consistent assignment of half-twist solutions")


@lru_cache(maxsize=None)
def _case_data(n: int, i: int):
    case, offset = _case_of(n, i)
    return _instantiate(_selected_cases()[case], offset, n)


@lru_cache(maxsize=None)
def test_family(n: int) -> tuple:
    """Separating probe set: singletons, adjacent pairs, and prefixes."""
    ranges = (
        [(j, j) for j in range(1, n + 1)]
        + [(i, i + 1) for i in range(1, n)]
        + [(1, j) for j in range(1, n + 1)]
    )
    seen, fam = set(), []
    for j, k in ranges:
        if (j, k) not in seen:
            seen.add((j, k))
            fam.append(round_curve(n, j, k))
    return tuple(fam)


def word_action(lam: LaminationCoords, word) -> LaminationCoords:
    """Image of the lamination under a word of (i, sign) half-twist
    letters, rightmost letter first.  The intermediate coordinates stay
    raw tuples; only the image is validated, once per word."""
    n, values = lam.n, lam.normal
    for i, s in reversed(word):
        values = _act_with(_case_data(n, i), values, s)
    return LaminationCoords(n, values)
