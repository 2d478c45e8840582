import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_with_src(argv, **kwargs):
    """Run the interpreter on argv from the repo root, with src importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, timeout=120, **kwargs
    )


@pytest.mark.parametrize(
    "argv",
    [["scripts/run_laws.py", "--draws", "2"], ["scripts/purification_demo.py"]],
)
def test_demo_script_runs(argv):
    # the demos print dilation internals, so they break when those change
    proc = run_with_src(argv, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


@pytest.mark.parametrize(
    "argv",
    [["--tol", "0"], ["--tol", "1.5"], ["--tol", "nan"], ["--seed", "-1"], ["--draws", "-2"]],
    ids=["tol-0", "tol-1.5", "tol-nan", "seed-neg", "draws-neg"],
)
def test_run_laws_refuses_what_dilatory_laws_refuses(argv):
    # the script runs `dilatory laws` itself, so it exits 3 where the CLI does
    proc = run_with_src(["scripts/run_laws.py", *argv], text=True)
    assert proc.returncode == 3, proc.stdout + proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")
    assert not proc.stdout


def test_cli_module_pipes_and_exits(tmp_path):
    # through the __main__ guard: random | dilate -, and the exit code of a
    # truncated input reaching the shell through sys.exit
    cli = ["-m", "dilatory.cli"]
    drawn = run_with_src([*cli, "random", "--seed", "3", "--blocks", "1,2", "--k", "2"])
    assert drawn.returncode == 0, drawn.stderr
    dilated = run_with_src([*cli, "dilate", "-"], input=drawn.stdout)
    assert dilated.returncode == 0, dilated.stderr
    assert json.loads(dilated.stdout)["kind"] == "dilation_certificate"

    truncated = tmp_path / "map.json"
    truncated.write_bytes(drawn.stdout[: len(drawn.stdout) // 2])
    refused = run_with_src([*cli, "dilate", str(truncated)])
    assert refused.returncode == 3
    assert not refused.stdout


def test_benchmark_selftest_passes():
    # the benchmark's own negative controls, and BENCHMARK.json against its tracer
    proc = subprocess.run(
        [sys.executable, "bench/selftest.py"], cwd=ROOT, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
