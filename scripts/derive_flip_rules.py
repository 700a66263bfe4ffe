#!/usr/bin/env python3
"""Show how the half-twist coordinate rules are derived, case by case.

For each boundary case (leftmost, interior, rightmost, two-puncture disc)
a breadth-first search over flips of the edges in a window near the
swapped punctures finds the shortest flip sequences that carry the base
triangulation to its image under the swap.  The search cannot tell the
two handednesses apart, so a case can have several shortest solutions;
the test oracle of the braid decider (``tests/lamination_oracle.py``)
then picks one per case by a consistency battery (inverses, braid
relations, far commutation, non-triviality).  The report lists the
window, the ring of fixed edges around it, how many elementary flips
realize the move, and how many shortest solutions the search found
before the battery picks one.
"""
import json

from twistbench.laminations import derivation_report, edge_names, round_curve


def main() -> int:
    report = derivation_report()
    for case, data in report.items():
        window = " ".join(f"{kind}{idx}" for kind, idx in data["window"])
        ring = " ".join(f"{kind}{idx}" for kind, idx in data["ring"]) or "-"
        print(f"case {case:9} reference n,i = {tuple(data['reference'])}")
        print(f"  flips: {data['flips']}   shortest solutions: {data['candidates']}")
        print(f"  window: {window}")
        print(f"  fixed ring: {ring}")
    print()
    print("edge order at n=4:", " ".join(f"{k}{i}" for k, i in edge_names(4)))
    print("round curve around punctures 2..3 at n=4:", round_curve(4, 2, 3))
    print()
    print(json.dumps({k: dict(v) for k, v in report.items()}, default=list))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
