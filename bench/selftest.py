#!/usr/bin/env python3
"""Negative controls for the benchmark itself.

Run from the repository root:

    python3 bench/selftest.py

For each workload one real output must pass its check, and sabotaged
copies of it must be counted as failed: a flipped entry of U or of V, a
wrong exit code, a wrong label, a commutant basis missing one element, a
wrong minimality verdict, a law suite whose negative control passed, and
output bytes that differ from an earlier run of the same input.  Also checks
that BENCHMARK.json lists exactly the per-layer metrics the tracer reports.
Exits 0 when every control behaves, 1 otherwise.
"""

import json
import shutil
import sys

import run  # sets the BLAS thread count before numpy loads
from run import oracle, spans, workloads

run.load_program()

from dilatory.numerics import Tolerance  # noqa: E402

FAILURES = []


def expect(condition: bool, what: str):
    print(("ok    " if condition else "FAIL  ") + what)
    if not condition:
        FAILURES.append(what)


def rejected(workload, case, out) -> bool:
    try:
        workload.check(case, out)
    except oracle.Rejected:
        return True
    return False


def edit(out, change):
    """A CLI output with its JSON document changed by ``change``."""
    code, text = out
    doc = json.loads(text)
    change(doc)
    return code, json.dumps(doc, sort_keys=True, indent=2) + "\n"


def flip_entry(matrix):
    matrix["entries"][0][0][0] = -matrix["entries"][0][0][0] - 1.0


def first(cases, prefix):
    return next(i for i, c in enumerate(cases) if c.name.startswith(prefix))


def other_bytes(name, out):
    """An equally valid output of the same input, in other bytes."""
    if name == "rep-audit":
        ok, residuals, minimal, basis, mults, r = out
        return ok, residuals, minimal, [-basis[0], *basis[1:]], mults, r
    return out[0], json.dumps(json.loads(out[1]))


def controls_for(name, workdir, tol):
    workload = workloads.WORKLOADS[name](7, workdir, tol)
    cases = workload.generate()
    if name == "dilate-ladder":
        case = cases[first(cases, "dilate (3,) k=2")]
        out = workload.run(case)
        yield workload, case, out, None
        yield workload, case, edit(out, lambda d: flip_entry(d["rep"]["V"])), "flipped entry of V"
        yield workload, case, (2, out[1]), "exit code 2 for a CP map"
        bad = cases[first(cases, "dilate") + sorted(workload.NOT_CP)[0]]
        out = workload.run(bad)
        yield workload, bad, out, None

        def shift(d):
            d["min_eigenvalues"][0] *= 0.5

        yield workload, bad, edit(out, shift), "wrong Choi minimum eigenvalue"
    elif name == "purify-pairs":
        case = cases[first(cases, "purify (2, 2) k=2 eq1")]
        out = workload.run(case)
        yield workload, case, out, None
        yield workload, case, edit(out, lambda d: flip_entry(d["U"])), "flipped entry of U"
        yield workload, case, edit(out, lambda d: d.update(label="isometry")), "wrong label"
        yield workload, case, (5, ""), "exit code 5 for an equivalent pair"
        refused = cases[first(cases, "purify") + workload.KINDS.index("refused")]
        yield workload, refused, workload.run(refused), None
        yield workload, refused, (0, out[1]), "exit code 0 for a refused pair"
    elif name == "law-suite":
        case = cases[0]
        out = workload.run(case)
        yield workload, case, out, None

        def control_passed(d):
            d["negative_controls"][0]["failed_as_required"] = False

        yield workload, case, edit(out, control_passed), "negative control passed"
        yield workload, case, (1, out[1]), "exit code 1 for a passing suite"
    else:
        case = cases[first(cases, "audit (2,) k=2 r=1 junk=(1,)")]
        out = workload.run(case)
        yield workload, case, out, None
        ok, residuals, minimal, basis, mults, r = out
        yield workload, case, (ok, residuals, minimal, basis[:-1], mults, r), (
            "commutant basis missing one element"
        )
        yield workload, case, (ok, residuals, not minimal, basis, mults, r), "wrong is_minimal"


def main() -> int:
    tol = Tolerance()
    workdir = run.STATE / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name in run.WORKLOAD_NAMES:
            clean = []
            for workload, case, out, sabotage in controls_for(name, workdir, tol):
                if sabotage is None:
                    expect(not rejected(workload, case, out), f"{name}: {case.name} passes")
                    clean.append((workload, case, out))
                else:
                    expect(rejected(workload, case, out), f"{name}: {sabotage} is rejected")
            workload, case, out = clean[0]
            expect(not rejected(workload, case, other_bytes(name, out)),
                   f"{name}: the same result in other bytes passes the oracle")
            fresh = run.Verifier(workload, {})
            expect(fresh.verify(0, case, out) and fresh.verify(0, case, out),
                   f"{name}: a repeated identical output passes")
            expect(not fresh.verify(0, case, other_bytes(name, out)),
                   f"{name}: other bytes for an input seen before count as failed")
            stale = run.Verifier(workload, {"0": "0" * 64})
            expect(not stale.verify(0, case, out),
                   f"{name}: output differing from an earlier run counts as failed")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    expect(listed == spans.per_layer_metrics(), "BENCHMARK.json per_layer matches the tracer")
    print(f"{len(FAILURES)} control(s) misbehaved" if FAILURES else "all controls behave")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
