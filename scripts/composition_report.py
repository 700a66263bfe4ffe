#!/usr/bin/env python3
"""Survey block arrangements for the fibre-bundle monodromy word.

Every arrangement of the two braid-monodromy blocks preserves the
strand colouring and induces the identity permutation, so neither
constraint singles out a composition; and no arrangement of up to
--max-blocks blocks lifts to a homologically trivial twist word, so
triviality cannot break the tie either.  The survey prints these facts
and the documented convention (one block coupled with its mirror), then
lists what the convention's lift contains.
"""
import argparse
from collections import Counter

from twistbench.monodromy import (
    appendix_factorization,
    composition_search,
    default_composition,
    generation_check,
    lifted_composition,
    x_block,
    y_block,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--b", type=int, default=2)
    parser.add_argument("--max-blocks", type=int, default=6)
    args = parser.parse_args()
    if args.b < 2:
        # below 2 the fibre has no configuration to survey
        parser.error(f"--b must be at least 2, got {args.b}")

    survey = composition_search(args.b, max_blocks=args.max_blocks)
    print(f"arrangements of up to {args.max_blocks} blocks at b={args.b}:")
    print(f"  colour preserved by every arrangement: {survey['colour_preserving']}")
    print(f"  identity strand permutation:           {survey['permutation_identity']}")
    print(f"  homologically trivial arrangements:    {survey['trivial_arrangements'] or 'none'}")
    print(f"  single X trivial: {survey['x_block_trivial']}   single Y trivial: {survey['y_block_trivial']}")
    print(f"  under-determined: {survey['ambiguous']}")
    print()

    convention = default_composition(args.b)
    fact = lifted_composition(args.b, convention)
    counts = Counter(str(t.core) for t in fact.letters)
    print(f"documented convention: {','.join(convention)}")
    print(f"  lifts to {len(fact)} positive twist letters over {len(counts)} cores:")
    width = max(len(k) for k in counts)
    for core, count in sorted(counts.items()):
        print(f"    {core.ljust(width)}  x{count}")
    print()

    generation = generation_check([x_block(2 * args.b), y_block(2 * args.b)])
    print(f"both blocks contain every generator: {generation['all_generators_present']}")
    print(f"  missing: {', '.join(generation['missing']) or 'none'}")
    appendix = appendix_factorization(args.b)
    print(f"printed global factorization: {len(appendix)} letters")
    print(f"  all positive: {all(t.sign == 1 for t in appendix.letters)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
