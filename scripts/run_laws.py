#!/usr/bin/env python3
"""Run the categorical law ensemble and print a residual table.

Usage: python scripts/run_laws.py [--seed S] [--draws N] [--dims D] [--tol T]

The arguments go to `dilatory laws` as they are, so its input rules, its
tolerance rule and its exit codes are this script's too; the table is read
from the JSON it writes.
"""

import contextlib
import io
import json
import sys
import time

from dilatory.cli import main as dilatory


def main(argv) -> int:
    text = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(text):
            code = dilatory(["laws", *argv, "--out", "-"])
    except SystemExit:
        # --help, or refused input, which dilatory explains on stderr
        sys.stdout.write(text.getvalue())
        raise
    elapsed = time.perf_counter() - start
    result = json.loads(text.getvalue())

    print(f"law suite: seed={result['seed']} draws={result['draws']} ({elapsed:.2f}s)")
    if "error" in result:
        print(f"error: {result['error']}")
    print(f"{'law':<28}{'max residual':>14}  verdict")
    for report in result.get("reports", []):
        verdict = "pass" if report["passed"] else "FAIL"
        print(f"{report['name']:<28}{report['max_residual']:>14.3e}  {verdict}")
        for witness in report["witnesses"]:
            print(f"    witness: {witness}")
    print()
    print(f"{'negative control':<34}{'residual':>14}  verdict")
    for control in result.get("negative_controls", []):
        verdict = "fails as required" if control["failed_as_required"] else "UNEXPECTEDLY PASSES"
        print(f"{control['name']:<34}{control['max_residual']:>14.3e}  {verdict}")
    print()
    print("overall:", "OK" if result["ok"] else "FAILED")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
