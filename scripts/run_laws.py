#!/usr/bin/env python3
"""Run the categorical law ensemble and print a residual table.

Usage: python scripts/run_laws.py [--seed S] [--draws N] [--dims D]
"""

import argparse
import sys
import time

from dilatory.laws import run_default_suite
from dilatory.numerics import Tolerance


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--draws", type=int, default=100)
    parser.add_argument("--dims", type=int, default=3)
    parser.add_argument("--tol", type=float, default=1e-9)
    args = parser.parse_args()

    tol = Tolerance(eps_rank=max(args.tol, 2.3e-16), eps_eq=args.tol)
    start = time.perf_counter()
    result = run_default_suite(seed=args.seed, draws=args.draws, max_dim=args.dims, tol=tol)
    elapsed = time.perf_counter() - start

    print(f"law suite: seed={args.seed} draws={args.draws} dims<={args.dims} "
          f"({elapsed:.2f}s)")
    print(f"{'law':<28}{'max residual':>14}  verdict")
    for report in result.reports:
        verdict = "pass" if report.passed else "FAIL"
        print(f"{report.name:<28}{report.max_residual:>14.3e}  {verdict}")
        for witness in report.witnesses:
            print(f"    witness: {witness}")
    print()
    print(f"{'negative control':<34}{'residual':>14}  verdict")
    for control in result.controls:
        verdict = "fails as required" if control.failed_as_required else "UNEXPECTEDLY PASSES"
        print(f"{control.name:<34}{control.max_residual:>14.3e}  {verdict}")
    print()
    print("overall:", "OK" if result.ok else "FAILED")
    return 0 if result.ok else 1


if __name__ == "__main__":
    sys.exit(main())
