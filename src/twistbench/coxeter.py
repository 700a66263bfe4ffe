"""Chains of curves, Coxeter twist products, and the six-factor expansion
of the gluing involution.

A chain is a sequence of curves in which consecutive members meet exactly
once and non-consecutive members are disjoint.  The Coxeter product of a
chain ``(c_1, ..., c_N)`` is the twist word

    Delta = (T_1)(T_2 T_1)(T_3 T_2 T_1) ... (T_N ... T_1)

with ``N(N+1)/2`` letters, the rightmost acting first.  Twist matrices do
not depend on curve orientations, so the word is orientation-free; the
orientation bookkeeping (the signs making consecutive chain intersections
+1) only enters when stating how ``Delta`` permutes the chain classes.

In acting order ``Delta`` is the runs ``c_1 ... c_k`` for k = N ... 1,
slices of the chain: ``coxeter_runs`` gives them over any index list,
and ``coxeter`` and ``psi_factorization`` write them out as words.

The words need no homology model, and a chain's action needs no matrix:
``verify_chain_action`` runs the Coxeter runs on the chain's own crossing
form, built from the pairings of consecutive curves, with the
curve-coordinate kernel of ``crossing``.  A chain's curves are a basis
of ``H_1`` of its regular neighbourhood, so the images are compared
exactly in chain coordinates, and equality there implies it in ``H_1``
of the fibre.  So ``coxeter`` imports neither ``homology`` nor
``intlin``, and imports ``crossing`` only where a chain action runs.
"""
from __future__ import annotations

from . import words
from .surface import CurveId, CurveSystem, curve

# annotations are never evaluated, so only a type checker imports typing
TYPE_CHECKING = False
if TYPE_CHECKING:
    from .homology import HomologyModel

__all__ = [
    "ChainError",
    "validate_chain",
    "chain_signs",
    "coxeter",
    "coxeter_runs",
    "psi_factor_chains",
    "psi_factor_runs",
    "psi_factorization",
    "psi_factorization_length",
    "verify_chain_action",
]

class ChainError(ValueError):
    def __init__(self, index: int, message: str):
        self.index = index
        super().__init__(f"chain condition violated at position {index}: {message}")


def validate_chain(sys: CurveSystem, seq) -> tuple[CurveId, ...]:
    """Check the two geometric chain conditions and return the chain.

    One pass over the incidence lists counts the crossings each pair of
    positions shares; the first bad pair in ``(i, j)`` order is reported."""
    chain = tuple(seq)
    if not chain:
        raise ChainError(0, "empty chain")
    known = set(sys.curves)
    for i, c in enumerate(chain):
        if c not in known:
            raise ChainError(i, f"unknown curve {c.label}")
    position = {c: i for i, c in enumerate(chain)}
    if len(position) != len(chain):
        raise ChainError(0, "repeated curve")
    shared: dict[tuple[int, int], int] = {}
    for i, c in enumerate(chain):
        for x in sys.incidences_of(c):
            first, second, _ = sys.crossings[x]
            j = position.get(second if first == c else first, -1)
            if j > i:
                shared[i, j] = shared.get((i, j), 0) + 1
    bad = [pair for pair in shared if pair[1] > pair[0] + 1]
    bad.extend((i, i + 1) for i in range(len(chain) - 1) if shared.get((i, i + 1)) != 1)
    if bad:
        i, j = min(bad)
        if j == i + 1:
            raise ChainError(
                i,
                f"{chain[i].label} and {chain[j].label} share "
                f"{shared.get((i, j), 0)} crossings, consecutive curves need exactly 1",
            )
        raise ChainError(i, f"{chain[i].label} and {chain[j].label} must be disjoint")
    return chain


def _chain_pairings(model: HomologyModel, chain: tuple) -> list[int]:
    """The pairings of consecutive chain curves; each must be ±1."""
    pairings = [model.pairing(a, b) for a, b in zip(chain, chain[1:])]
    for i, pair in enumerate(pairings):
        if pair not in (+1, -1):
            a, b = chain[i : i + 2]
            raise ChainError(i, f"{a.label}, {b.label} pair to {pair}, expected ±1")
    return pairings


def chain_signs(model: HomologyModel, chain, pairings=None) -> tuple[int, ...]:
    """Reorientation signs: ``eps_1 = 1`` and ``eps_i * class(c_i)`` meets the
    next reoriented class positively along the chain, whose ``pairings`` may be given."""
    eps = [1]
    for pair in _chain_pairings(model, tuple(chain)) if pairings is None else pairings:
        eps.append(eps[-1] * pair)
    return tuple(eps)


def coxeter_runs(indices, power: int = 1):
    """The Coxeter word of the chain at ``indices``, raised to ``power``,
    as runs ``(sign, slice of indices)`` in acting order."""
    if power == 0:
        raise ValueError("power must be a nonzero integer")
    if power > 0:
        return ((1, indices[:k]) for _ in range(power) for k in range(len(indices), 0, -1))
    return ((-1, indices[k - 1 :: -1]) for _ in range(-power) for k in range(1, len(indices) + 1))


def coxeter(chain, power: int = 1) -> words.Word:
    """The Coxeter twist word of the chain, raised to ``power``: its runs
    written out, the last letter acting first."""
    # one letter object per curve, shared by all N(N+1)/2 positions
    letters = tuple((c, 1 if power > 0 else -1) for c in chain)
    runs = list(coxeter_runs(letters, power))
    return tuple(letter for _, run in reversed(runs) for letter in reversed(run))


def _family_run(family: str, start: int, stop: int) -> tuple[CurveId, ...]:
    step = 1 if stop >= start else -1
    return tuple(curve(family, i) for i in range(start, stop + step, step))


def psi_factor_chains(b: int) -> dict[str, tuple[CurveId, ...]]:
    """The six chains whose Coxeter products factor the gluing involution, A1 acting first.

    Factors A1..A3 use the three long chains through sigma at power 1;
    A4 and A5 use power -2; A6 uses power -1.
    """
    n = 2 * b - 1
    sigma = curve("sigma")
    return {
        "A1": _family_run("delta", n, 1) + (sigma,) + _family_run("alpha", 1, n),
        "A2": _family_run("alpha", n, 1) + (sigma,) + _family_run("beta", 1, n),
        "A3": _family_run("beta", n, 1) + (sigma,) + _family_run("gamma", 1, n),
        "A4": _family_run("alpha", n, 2),
        "A5": _family_run("gamma", n, 1) + (sigma,),
        "A6": _family_run("alpha", n, 1) + (sigma,) + _family_run("gamma", 1, n),
    }


PSI_FACTOR_POWERS = {"A1": 1, "A2": 1, "A3": 1, "A4": -2, "A5": -2, "A6": -1}


def psi_factor_runs(b: int, index):
    """The six-factor word's runs over ``index``, one at a time, A1 first."""
    return (
        run
        for name, chain in psi_factor_chains(b).items()
        for run in coxeter_runs(tuple(index[c] for c in chain), PSI_FACTOR_POWERS[name])
    )


def psi_factorization(b: int) -> words.Word:
    """Twist word of the six-factor product A6 A5 A4 A3 A2 A1, concatenated
    so that A1 acts first (rightmost)."""
    factors = [coxeter(chain, PSI_FACTOR_POWERS[n]) for n, chain in psi_factor_chains(b).items()]
    return tuple(letter for factor in reversed(factors) for letter in factor)


def psi_factorization_length(b: int) -> int:
    """``len(psi_factorization(b))``, without building the word: the
    Coxeter word of an N-chain has N(N+1)/2 letters per unit of power."""
    return sum(
        len(chain) * (len(chain) + 1) // 2 * abs(PSI_FACTOR_POWERS[name])
        for name, chain in psi_factor_chains(b).items()
    )


def _chain_form(pairings) -> tuple[dict[int, int], ...]:
    """The crossing form of a chain from its consecutive ``pairings``."""
    form: list[dict[int, int]] = [{} for _ in range(len(pairings) + 1)]
    for i, pair in enumerate(pairings):
        form[i][i + 1], form[i + 1][i] = pair, -pair
    return tuple(form)


def verify_chain_action(model: HomologyModel, chain) -> None:
    """Assert the Coxeter action on the reoriented chain curves: for odd
    chains Delta sends the i-th curve to the (N+1-i)-th with sign (-1)^(i+1);
    for even chains Delta^2 negates every chain curve.  The runs act on
    chain positions, and the images are compared exactly there."""
    from .crossing import twist_images

    chain = validate_chain(model.system, chain)
    pairings = _chain_pairings(model, chain)
    eps = chain_signs(model, chain, pairings)
    size = len(chain)
    odd = size % 2
    runs = coxeter_runs(range(size), 1 if odd else 2)
    columns: list[dict[int, int]] = [{} for _ in chain]
    for k, row in enumerate(twist_images(_chain_form(pairings), runs)):
        for i, x in row.items():
            columns[i][k] = x
    for i, column in enumerate(columns):
        # the image of the unsigned curve c_i is +-c_k
        if odd:
            k = size - 1 - i
            sign = eps[i] * eps[k] * (-1 if i % 2 else +1)
        else:
            k, sign = i, -1
        if column != {k: sign}:
            raise AssertionError(
                f"{'odd-chain' if odd else 'even-chain squared'} action failed at "
                f"position {i + 1} of {[c.label for c in chain]}"
            )
