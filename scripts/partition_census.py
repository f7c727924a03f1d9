#!/usr/bin/env python3
"""Classify the four three-level driver/constraint sparsity splittings:
integrate each randomized (H, F) pair and report whether H(t) stays
constant, recurs periodically, or neither.  A bad grid exits 65 and a
path that diverges exits 2, each with one line on stderr, as `qbrach run`
does."""

import argparse
import sys

from qbrach import catalog
from qbrach.brach import DriftAbort
from qbrach.cli import EXIT_BAD_PARAMS, EXIT_DRIFT
from qbrach.matcore import ValidationError


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--t-max", type=float, default=catalog.CENSUS_T_MAX)
    ap.add_argument("--dt", type=float, default=catalog.CENSUS_DT)
    ap.add_argument("--seed", type=int, default=42)
    args = ap.parse_args()

    try:
        results = catalog.su3_partitions(t_max=args.t_max, dt=args.dt,
                                         seed=args.seed)
    except DriftAbort as exc:
        print(f"drift abort: {exc}", file=sys.stderr)
        return EXIT_DRIFT
    except ValidationError as exc:
        print(f"bad parameters: {exc}", file=sys.stderr)
        return EXIT_BAD_PARAMS
    for r in results:
        period = f"{r.period:.7f}" if r.period is not None else "-"
        print(f"pair {r.index}: {r.description}")
        print(f"    classification: {r.classification:9s} "
              f"period: {period:12s} max excursion: {r.max_excursion:.3e}")


if __name__ == "__main__":
    sys.exit(main())
