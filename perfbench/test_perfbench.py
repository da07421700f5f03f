"""Self-test of the benchmark at the tiny scale: every workload runs, passes
its checks and emits every metric BENCHMARK.json names, with its unit.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    for name in ("env ", "failed_frac "):
        assert any(line.startswith(name) for line in proc.stdout.splitlines())


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("eval-mnist784", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_missing_trace_targets_are_reported_not_fatal(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from tracing import Tracer

    tracer = Tracer()
    tracer.install([("dvae.tensor", "no_such_function", "x", None, None),
                    ("dvae.network", "Mlp.no_such_method", "x", None, None),
                    ("dvae.oracle", "SUITES[no_such_suite]", "x", None, None),
                    ("dvae.no_such_module", "f", "x", None, None)])
    tracer.uninstall()
    assert len(tracer.missing) == 4


def test_a_wrong_output_fails_its_check(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from workloads import SIZES, Checks, Eval

    w = Eval(3, SIZES["tiny"]["eval"], tmp_path)
    w.prepare()
    checks = Checks()
    w.load(checks)
    b, terms = w.call(0)
    off = (terms[0] * (1 + 1e-8), *terms[1:])
    w.check([(b, terms), (b, off)], checks)
    assert checks.attempted == 3
    assert checks.failed == ["batch ElboBreakdown matches the reference to 1e-9"]
