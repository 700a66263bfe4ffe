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
