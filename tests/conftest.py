"""Oracles shared by several test modules."""


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
