#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of dilatory.

Run from the repository root:

    python3 bench/run.py --workload dilate-ladder --seed 1 --seconds 20 --trace 0

One closed-loop client in this process drives the program from outside,
through dilatory.cli.main(argv) with stdout captured and through the public
library functions, with the BLAS thread count pinned.  Inputs are generated
from --seed before timing.  The timed loop runs whole passes over the
workload's inputs until --seconds of op time and at least MIN_OPS ops are
done.  Every output is checked by the plain-numpy oracle the first time its
input runs, and must be byte-identical on every later run of that input, in
this process and in earlier runs of the same inputs in this checkout.

--trace 0 prints the end-to-end metrics, with times rescaled to a reference
host speed by a calibration kernel timed between ops (see speed.py); the raw
times are in the details line.  --trace 1 runs one untraced pass, then
traced passes, and prints the per-layer metrics and the tracing overhead.  The last line of stdout is the result object; the line before it
holds the environment and the run's details.  See bench/README.md.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# pinned before numpy loads OpenBLAS; at or below nproc on any machine
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
# the CLI reads its default tolerance from here; the benchmark uses the default
os.environ.pop("DILATORY_TOL", None)

import numpy as np  # noqa: E402

import oracle  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".bench_build" / "dilatory-bench"
WORKLOAD_NAMES = ("dilate-ladder", "law-suite", "purify-pairs", "rep-audit")
# at least this many timed ops, so the tail percentile has >= 10 samples
# beyond p95 at every workload's sample count
MIN_OPS = 200
SETUP_REPEATS = 3
# no new pass starts after this much wall time, to end well within 180 s
WALL_LIMIT_S = 120.0
PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
EPS = 2.0**-52


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative")  # numpy seed sequences need it
    return args


def load_program():
    """Import dilatory from this checkout's src/, never from elsewhere."""
    if not (SRC / "dilatory" / "__init__.py").is_file():
        raise SystemExit(f"error: no dilatory sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import dilatory
    import dilatory.cli  # noqa: F401  (loads every module the CLI uses)

    if Path(dilatory.__file__).resolve().parent != SRC / "dilatory":
        raise SystemExit(f"error: imported dilatory from {dilatory.__file__}")


# --- environment ------------------------------------------------------------


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "dilatory").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
    }


# --- the run ----------------------------------------------------------------


class Verifier:
    """Oracle on first sight of an input, byte identity afterwards.

    ``stored`` holds the per-input output digests of an earlier run of the
    same inputs in this checkout; a difference from it is a failure too.
    """

    def __init__(self, workload, stored):
        self.workload, self.stored = workload, stored
        self.digests = {}
        self.rejected = {}
        self.worst = 0.0

    def verify(self, index, case, out) -> bool:
        digest = hashlib.sha256(self.workload.output_bytes(out)).hexdigest()
        if index not in self.digests:
            self.digests[index] = digest
            try:
                self.worst = max(self.worst, self.workload.check(case, out))
            except oracle.Rejected as exc:
                self.rejected[index] = str(exc)
        elif digest != self.digests[index]:
            self.rejected.setdefault(index, "output bytes differ between runs of one input")
            return False
        if self.stored.get(str(index), digest) != digest:
            self.rejected.setdefault(index, "output bytes differ from an earlier run")
            return False
        return index not in self.rejected


def import_time() -> float:
    """Seconds to import numpy and dilatory.cli in a fresh interpreter."""
    code = (
        "import time; t0 = time.perf_counter(); import sys, numpy; "
        f"sys.path.insert(0, {str(SRC)!r}); import dilatory.cli; "
        "print(repr(time.perf_counter() - t0))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=60
    )
    return float(done.stdout)


def timed_pass(workload, cases, verifier, times, starts, tracer=None, first_op=0, kernel=None):
    """One closed-loop pass; returns (op seconds, failed ops).

    With a calibration kernel, it is timed before every op and once after
    the last one.
    """
    busy, failed = 0.0, 0
    if kernel is not None:
        kernel.sample()
    for i, case in enumerate(cases):
        if tracer is not None:
            tracer.op = first_op + i
        t0 = time.perf_counter()
        try:
            out = workload.run(case)
        except Exception as exc:  # an op that raises is a failed op
            out, error = None, exc
        else:
            error = None
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.op = -1
        if kernel is not None:
            kernel.sample()
        times.append(dt)
        starts.append(t0)
        busy += dt
        if error is not None:
            verifier.rejected.setdefault(i, f"raised {type(error).__name__}: {error}")
            failed += 1
        elif not verifier.verify(i, case, out):
            failed += 1
    return busy, failed


def tail(times):
    """(percentile, value): the highest listed percentile with >= 10 samples
    beyond it, by nearest rank."""
    ordered = sorted(times)
    n = len(ordered)
    best = None
    for p in PERCENTILES:
        rank = math.ceil(p / 100.0 * n)
        if n - rank >= 10:
            best = (p, ordered[rank - 1])
    return best if best is not None else (50.0, statistics.median(ordered))


def layer_metrics(tracer, passes: int, overhead_s: float) -> dict:
    """Per-layer values by name; see spans.per_layer_metrics."""
    out = {}
    for name, (calls, self_s) in tracer.totals(in_ops=True).items():
        out[f"{name}.calls"] = calls / passes
        out[f"{name}.self_s"] = self_s / passes
    for key, value in tracer.counts.items():
        out[key] = value / passes
    out.update(tracer.peaks)
    dilations = out["dilation.stinespring_dilate.calls"] * passes
    out["dilation.stinespring_dilate.unique_ratio"] = (
        len(tracer.distinct) / dilations if dilations else 1.0
    )
    out["randgen.setup_s"] = sum(
        s for name, (_, s) in tracer.totals(in_ops=False).items() if name.startswith("randgen.")
    )
    out["trace.overhead_s"] = overhead_s
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    load_program()
    from dilatory.numerics import Tolerance

    import_s = time.perf_counter() - T_START
    tol = Tolerance()
    tracer = spans.Tracer() if args.trace else None
    kernel = speed.Kernel() if tracer is None else None
    workdir = STATE / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        # --- set-up, repeated; inputs must come out identical every time
        setup_times, setup_scaled, input_digests, warm_failed = [], [], set(), 0
        for r in range(SETUP_REPEATS):
            before = kernel.runs() if kernel is not None else []
            t0 = time.perf_counter()
            workload = workloads.WORKLOADS[args.workload](args.seed, workdir, tol)
            if tracer is not None and r == 0:
                tracer.install()
            cases = workload.generate()
            if tracer is not None and r == 0:
                tracer.uninstall()
            warm = cases[workload.warmup_index()]
            warm_out = workload.run(warm)
            setup_times.append(time.perf_counter() - t0)
            if kernel is not None:
                setup_scaled.append(speed.at_ref(setup_times[-1], before + kernel.runs()))
            input_digests.add(workloads.inputs_digest(cases))
            try:
                workload.check(warm, warm_out)
            except oracle.Rejected:
                warm_failed += 1
        if kernel is not None:
            # the import once more, in fresh interpreters, for a median
            import_raw, import_scaled = [], []
            for _ in range(SETUP_REPEATS):
                before = kernel.runs()
                import_raw.append(import_time())
                import_scaled.append(speed.at_ref(import_raw[-1], before + kernel.runs()))
            setup_raw_s = statistics.median(import_raw) + statistics.median(setup_times)
            setup_s = statistics.median(import_scaled) + statistics.median(setup_scaled)
        inputs_digest = min(input_digests)

        # keyed by the program's sources too: only runs of the same code must agree
        key = f"{args.workload}-{args.seed}-{inputs_digest[:16]}-{_src_digest()[:16]}"
        digest_file = STATE / "digests" / f"{key}.json"
        stored = json.loads(digest_file.read_text()) if digest_file.is_file() else {}
        verifier = Verifier(workload, stored)
        memory_bound = [workload.memory_bound(case) for case in cases]

        # --- timed loop; a traced run times its first pass untraced
        times, starts, busy, failed, passes = [], [], 0.0, 0, 0
        min_passes, min_ops = (2, 0) if tracer is not None else (1, MIN_OPS)
        wall0 = time.perf_counter()
        while True:
            traced = tracer is not None and passes > 0
            if traced and passes == 1:
                tracer.reset_counts()
                tracer.install()
            if traced:
                tracer.pass_index = passes
            spent, bad = timed_pass(
                workload, cases, verifier, times, starts,
                tracer if traced else None, first_op=passes * len(cases), kernel=kernel,
            )
            busy, failed, passes = busy + spent, failed + bad, passes + 1
            if passes == 1:
                first_pass_s = spent
            enough = busy >= args.seconds and len(times) >= min_ops
            if passes >= min_passes and (enough or time.perf_counter() - wall0 > WALL_LIMIT_S):
                break
        if tracer is not None:
            tracer.uninstall()
        wall_s = time.perf_counter() - wall0
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        attempted = len(times)
        identical = len(input_digests) == 1
        correct = failed == 0 and warm_failed == 0 and identical
        if not stored and correct:
            digest_file.parent.mkdir(parents=True, exist_ok=True)
            tmp = digest_file.with_suffix(f".{os.getpid()}.tmp")
            tmp.write_text(json.dumps(verifier.digests, sort_keys=True))
            os.replace(tmp, digest_file)
        output_digest = hashlib.sha256(
            "".join(verifier.digests.get(i, "") for i in range(len(cases))).encode()
        ).hexdigest()

        pct, tail_raw_s = tail(times)
        details = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "environment": environment(),
            "client": "closed loop, 1 client, 1 process",
            "cases": len(cases),
            "passes": passes,
            "samples": attempted,
            "op_s_total": busy,
            "wall_s": wall_s,
            "tail_percentile": pct,
            "tail_samples_beyond": attempted - math.ceil(pct / 100.0 * attempted),
            "fail_frac": failed / attempted,
            "rejections": {cases[i].name: why for i, why in sorted(verifier.rejected.items())},
            "setup_runs_s": setup_times,
            "import_s": import_s,
            "inputs_digest": inputs_digest,
            "output_digest": output_digest,
            "compared_with_stored_digests": bool(stored),
        }
        if tracer is None:
            details["raw"] = {
                "ops_per_s": (attempted - failed) / busy,
                "op_p50_ms": 1e3 * statistics.median(times),
                "op_tail_ms": 1e3 * tail_raw_s,
                "setup_s": setup_raw_s,
                "import_runs_s": import_raw,
            }
            details["speed"] = dict(kernel.summary(), raw_ops_per_pass=sum(memory_bound))
            scaled = kernel.rescale(times, starts, memory_bound * passes)
            metrics = {
                "setup_s": (setup_s, "s"),
                "ops_per_s": ((attempted - failed) / sum(scaled), "1/s"),
                "op_p50_ms": (1e3 * statistics.median(scaled), "ms"),
                "op_tail_ms": (1e3 * tail(scaled)[1], "ms"),
                "verified_frac": ((attempted - failed) / attempted, "fraction"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
                "residual_digits": (-math.log10(max(verifier.worst, EPS)), "digits"),
            }
        else:
            # the same input untraced and traced, paired, so that the mix of
            # inputs and slow phases of the host weigh less
            n = len(cases)
            ratio = statistics.median(t / u for u, t in zip(times[:n], times[n : 2 * n]))
            overhead = (ratio - 1.0) * first_pass_s
            details["trace_overhead_s_per_pass"] = overhead
            details["untraced_pass_s"] = first_pass_s
            details["spans"] = len(tracer.span_start)
            layers = layer_metrics(tracer, passes - 1, overhead)
            metrics = {
                name: (layers.get(name, 0.0), unit)
                for name, unit, _ in spans.per_layer_metrics()
            }
            STATE.mkdir(parents=True, exist_ok=True)
            tracer.write(STATE / f"trace-{args.workload}.npz")
        print(json.dumps(details, sort_keys=True))
        result = {
            "correct": bool(correct),
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
