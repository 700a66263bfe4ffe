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

The words need no homology model.  ``coxeter_matrix`` and
``verify_chain_action`` import ``homology`` and ``intlin`` where they
compute, so ``auroux``, which lists its cores from the word, loads
neither.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

from . import words
from .surface import (
    CurveId,
    CurveSystem,
    curve,
    euler_and_genus,
    ribbon_from_system,
    subsystem,
)

if TYPE_CHECKING:
    from .homology import HomologyModel, MappingClassMatrix

__all__ = [
    "ChainError",
    "validate_chain",
    "chain_signs",
    "coxeter",
    "coxeter_matrix",
    "chain_neighborhood_stats",
    "psi_factor_chains",
    "psi_factorization",
    "verify_chain_action",
]

class ChainError(ValueError):
    def __init__(self, index: int, message: str):
        self.index = index
        super().__init__(f"chain condition violated at position {index}: {message}")


def validate_chain(sys: CurveSystem, seq) -> tuple[CurveId, ...]:
    """Check the two geometric chain conditions and return the chain."""
    chain = tuple(seq)
    if not chain:
        raise ChainError(0, "empty chain")
    known = set(sys.curves)
    for i, c in enumerate(chain):
        if c not in known:
            raise ChainError(i, f"unknown curve {c.label}")
    if len(set(chain)) != len(chain):
        raise ChainError(0, "repeated curve")
    for i in range(len(chain)):
        for j in range(i + 1, len(chain)):
            shared = sys.shared_crossings(chain[i], chain[j])
            if j == i + 1 and len(shared) != 1:
                raise ChainError(
                    i,
                    f"{chain[i].label} and {chain[j].label} share "
                    f"{len(shared)} crossings, consecutive curves need exactly 1",
                )
            if j > i + 1 and shared:
                raise ChainError(
                    i,
                    f"{chain[i].label} and {chain[j].label} must be disjoint",
                )
    return chain


def chain_signs(model: HomologyModel, chain) -> tuple[int, ...]:
    """Reorientation signs: ``eps_1 = 1`` and ``eps_i * class(c_i)`` meets
    the next reoriented class positively along the chain."""
    chain = tuple(chain)
    eps = [1]
    for a, b in zip(chain, chain[1:]):
        pair = model.pairing(a, b)
        if pair not in (+1, -1):
            raise ChainError(0, f"{a.label}, {b.label} pair to {pair}, expected ±1")
        eps.append(eps[-1] * pair)
    return tuple(eps)


def coxeter(chain, power: int = 1) -> words.Word:
    """The Coxeter twist word of the chain, raised to ``power``."""
    chain = tuple(chain)
    if power == 0:
        raise ValueError("power must be a nonzero integer")
    delta = tuple(
        (chain[j], +1) for k in range(1, len(chain) + 1) for j in range(k - 1, -1, -1)
    )
    word = delta if power > 0 else words.invert(delta)
    return word * abs(power)


def coxeter_matrix(model: HomologyModel, chain, power: int = 1) -> MappingClassMatrix:
    from .homology import twist_word_matrix

    return twist_word_matrix(model, coxeter(chain, power))


def chain_neighborhood_stats(sys: CurveSystem, chain) -> tuple[int, int]:
    """(number of boundary walks, capped genus) of the regular
    neighbourhood of the chain inside ``sys``."""
    chain = validate_chain(sys, chain)
    rg = ribbon_from_system(subsystem(sys, chain))
    _, genus = euler_and_genus(rg)
    return len(rg.walks), genus


def _family_run(family: str, start: int, stop: int) -> tuple[CurveId, ...]:
    step = 1 if stop >= start else -1
    return tuple(curve(family, i) for i in range(start, stop + step, step))


def psi_factor_chains(b: int) -> dict[str, tuple[CurveId, ...]]:
    """The six chains whose Coxeter products factor the gluing involution.

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


def psi_factorization(b: int) -> words.Word:
    """Twist word of the six-factor product A6 A5 A4 A3 A2 A1, concatenated
    so that A1 acts first (rightmost)."""
    chains = psi_factor_chains(b)
    word: list = []
    for name in ("A6", "A5", "A4", "A3", "A2", "A1"):
        word.extend(coxeter(chains[name], PSI_FACTOR_POWERS[name]))
    return tuple(word)


def verify_chain_action(model: HomologyModel, chain) -> None:
    """Assert the Coxeter action on the reoriented chain classes: for odd
    chains Delta sends the i-th class to the (N+1-i)-th with sign (-1)^(i+1);
    for even chains Delta^2 negates every chain class."""
    from .intlin import mat_vec

    chain = validate_chain(model.system, chain)
    eps = chain_signs(model, chain)
    classes = [
        tuple(e * x for x in model.curve_class(c)) for c, e in zip(chain, eps)
    ]
    size = len(chain)
    if size % 2:
        matrix = coxeter_matrix(model, chain, 1).matrix
        for i, v in enumerate(classes, start=1):
            sign = +1 if i % 2 else -1
            expected = tuple(sign * x for x in classes[size - i])
            if mat_vec(matrix, v) != expected:
                raise AssertionError(
                    f"odd-chain action failed at position {i} of {[c.label for c in chain]}"
                )
    else:
        matrix = coxeter_matrix(model, chain, 2).matrix
        for i, v in enumerate(classes, start=1):
            if mat_vec(matrix, v) != tuple(-x for x in v):
                raise AssertionError(
                    f"even-chain squared action failed at position {i} of "
                    f"{[c.label for c in chain]}"
                )
