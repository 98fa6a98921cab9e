"""Tests of the benchmark itself. Run from the checkout root:

    python3 -m pytest perfbench
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
from importlib import import_module

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _bench(script, trace, cwd):
    return subprocess.run(
        [sys.executable, script, "--workload", "tiny", "--seed", "42", "--seconds", "0",
         "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_emits_every_declared_metric_with_its_unit(trace, kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)[kind]}
    proc = _bench(os.path.join(HERE, "run.py"), trace, ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_tracer_restores_every_wrapped_attribute(tmp_path):
    import fednb.cli as cli

    originals = {(m, a): getattr(import_module(m), a) for m, a, _ in tracer.WRAPS}
    args = WORKLOADS["tiny"].cli_config_args(ROOT, str(tmp_path), 42)
    with pytest.raises(RuntimeError):
        with tracer.Tracer() as tr:
            tr.instrument()
            for (m, a), original in originals.items():
                assert getattr(import_module(m), a) is not original, f"{m}.{a} not wrapped"
            assert cli.main(["run-grid", *args, "--out", str(tmp_path / "out")]) == 0
            raise RuntimeError("leave the traced block by an exception")
    for (m, a), original in originals.items():
        assert getattr(import_module(m), a) is original, f"{m}.{a} not restored"
    assert tr.spans and tracer.consistency_errors(tr.spans) == []


def test_traced_run_writes_the_untraced_results(tmp_path):
    import fednb.cli as cli

    args = WORKLOADS["tiny"].cli_config_args(ROOT, str(tmp_path), 42)
    plain = tmp_path / "plain"
    rc, _, _ = run.run_child(
        [sys.executable, "-m", "fednb.cli", "run-grid", *args, "--out", str(plain)],
        str(tmp_path / "log"),
    )
    assert rc == 0
    with tracer.Tracer() as tr:
        tr.instrument()
        assert cli.main(["run-grid", *args, "--out", str(tmp_path / "traced")]) == 0
    assert _sha256(tmp_path / "traced" / "results.csv") == _sha256(plain / "results.csv")
    assert tracer.layer_metrics(tr.spans)["experiment.emit_ms"][0] > 0


def test_self_times_add_up_to_the_root():
    spans = [
        ["cli.main", 0.0, 10.0, -1, None],
        ["experiment.cell", 1.0, 7.0, 0, None],
        ["local_model.fit", 2.0, 3.0, 1, None],
        ["mog.mix", 4.0, 6.5, 1, None],
    ]
    assert tracer.self_times(spans) == [4.0, 2.5, 1.0, 2.5]
    layers = tracer.layer_self_ms(spans)
    assert layers["cli"] == 4000.0 and layers["mog"] == 2500.0
    assert sum(layers.values()) == 10000.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _bench(os.path.join("perfbench", "run.py"), 0, tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
