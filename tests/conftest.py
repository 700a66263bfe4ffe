"""Oracles shared by several test modules."""
from twistbench.coxeter import _chain_form, _chain_pairings, validate_chain
from twistbench.crossing import twist_images
from twistbench.surface import (
    ConfigurationError,
    CurveSystem,
    _system_from_orders,
    euler_and_genus,
    ribbon_from_system,
)


def scanned_shared_crossings(sys_, c1, c2) -> tuple[int, ...]:
    """The crossings of ``c1`` with ``c2`` in index order, by a scan over
    every crossing of the system; every crossing of ``c1`` when they are
    equal."""
    return tuple(
        i
        for i, x in enumerate(sys_.crossings)
        if c1 in (x.first, x.second) and c2 in (x.first, x.second)
    )


def splice_runs(runs, m, sign) -> list:
    """Twist runs ``(s, indices)`` with the letter at acting position ``m``
    given ``sign`` times its sign: -1 flips the letter, 0 drops it."""
    out = []
    for s, run in runs:
        run = tuple(run)
        if 0 <= m < len(run):
            out += [(s, run[:m])] + ([(sign * s, run[m : m + 1])] if sign else []) + [(s, run[m + 1 :])]
        else:
            out.append((s, run))
        m -= len(run)
    return out


def word_images(form, index, word) -> list[dict[int, int]]:
    """``twist_images`` of a twist word (the rightmost letter acts first),
    each curve read through ``index``."""
    return twist_images(form, [(s, (index[c],)) for c, s in reversed(word)])


def chain_word_images(model, chain, word) -> list[dict[int, int]]:
    """The images of the chain's curves under a twist word over its curves,
    as sparse rows in the chain's own coordinates: ``X[k][i]`` is the
    coefficient of ``c_k`` in the image of ``c_i``.  The form is the one
    ``verify_chain_action`` builds from the consecutive pairings."""
    chain = validate_chain(model.system, chain)
    form = _chain_form(_chain_pairings(model, chain))
    return word_images(form, {c: i for i, c in enumerate(chain)}, word)


def subsystem(sys: CurveSystem, keep) -> CurveSystem:
    """Restriction to a subset of curves, keeping only their mutual
    crossings; per-curve cyclic orders are inherited from ``sys``."""
    keep = tuple(keep)
    keep_set = set(keep)
    if not keep_set <= set(sys.curves):
        missing = sorted(c.label for c in keep_set - set(sys.curves))
        raise ConfigurationError(f"unknown curves: {missing}")
    old_indices = [
        i
        for i, x in enumerate(sys.crossings)
        if x.first in keep_set and x.second in keep_set
    ]
    renumber = {old: new for new, old in enumerate(old_indices)}
    crossings = tuple(sys.crossings[i] for i in old_indices)
    orders = {
        c: tuple(renumber[i] for i in sys.incidences_of(c) if i in renumber)
        for c in keep
    }
    return _system_from_orders(keep, crossings, orders, None, None)


def chain_neighborhood_stats(sys: CurveSystem, chain) -> tuple[int, int]:
    """(number of boundary walks, capped genus) of the regular
    neighbourhood of the chain inside ``sys``."""
    chain = validate_chain(sys, chain)
    rg = ribbon_from_system(subsystem(sys, chain))
    _, genus = euler_and_genus(rg)
    return len(rg.walks), genus
