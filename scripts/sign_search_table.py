#!/usr/bin/env python3
"""Tabulate all sixteen crossing-sign conventions for the central curve.

For each tuple of signs at the four central crossings the probe reports
whether the traced surface is admissible (four boundary walks, the
expected closed genus, full-rank torsion-free homology), whether the
curve-swap involution is well defined on classes, and whether the
six-factor product reproduces it.
"""
import argparse

from twistbench.canonical import canonical_sigma_signs, sigma_sign_search


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--b", type=int, default=2)
    args = parser.parse_args()
    if args.b < 2:
        # below 2 no probe builds a model, and the table cannot print one
        parser.error(f"--b must be at least 2, got {args.b}")

    probes = sigma_sign_search(args.b)
    header = (
        f"{'signs':16}  {'admissible':10}  {'walks':5}  {'genus':5}  {'rank':4}  {'psi':5}"
        "  product"
    )
    print(header)
    print("-" * len(header))
    for p in probes:
        print(
            f"{','.join(f'{s:+d}' for s in p.signs):16}  "
            f"{str(p.admissible):10}  {p.walks:5}  {p.genus:5}  {p.rank:4}  "
            f"{str(p.psi_defined):5}  {p.product_matches}"
        )
    print()
    print(f"calibrated convention: {canonical_sigma_signs()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
