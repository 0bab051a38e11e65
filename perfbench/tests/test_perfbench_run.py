"""Output checks, seeding and the refusal to run outside a checkout."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import cases
import run

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent


def _child(workload, seed):
    out = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), "--workload", workload,
         "--seed", str(seed), "--mode", "run"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def test_program_seeds_repeat_the_benchmark_seed_then_spread():
    assert [run.program_seed(7, i) for i in range(5)] == [7, 7, 1007, 2007, 3007]


def test_seed_changes_the_generated_inputs():
    golden = _child("blob-flows", cases.DEFAULT_SEED)
    other = _child("blob-flows", cases.DEFAULT_SEED + 1)
    assert golden["digest"] == golden["reference"]
    assert other["reference"] is None
    assert other["digest"] != golden["digest"]


def test_suite_runs_its_parts_against_their_references():
    suite = cases.WORKLOADS["kernel-mix"]
    refs = cases.load_references()
    out = _child("kernel-mix", cases.DEFAULT_SEED)
    assert out["reference"] == cases.combine([refs[p] for p in suite.parts])
    assert out["digest"] == out["reference"]
    assert out["shape_failed"] == []


def _fake_spawn(samples):
    def spawn(workload, seed, mode, spans=None):
        if mode == "setup":
            return {"ready": 0.0, "seed": seed, "setup_s": 0.5}
        return dict(samples.pop(0), seed=seed, setup_s=0.5)
    return spawn


def _sample(digest, reference, shape_failed=()):
    return {"run_s": 1.0, "peak_rss_mb": 50.0, "digest": digest,
            "reference": reference, "shape_failed": list(shape_failed)}


def test_tampered_reference_raises_error_rate(monkeypatch):
    good = "a" * 64
    monkeypatch.setattr(run, "spawn", _fake_spawn([_sample(good, good)] * 2))
    res = run.measure("blob-flows", 3, seconds=0)
    assert (res["attempted"], res["failed"]) == (2, 0)

    tampered = "b" * 64
    monkeypatch.setattr(run, "spawn", _fake_spawn([_sample(good, tampered)] * 2))
    res = run.measure("blob-flows", 3, seconds=0)
    assert (res["attempted"], res["failed"]) == (2, 2)
    assert json.loads(run.result_json(res))["correct"] is False


def test_unpinned_seed_requires_repeatable_digests(monkeypatch):
    samples = [_sample("a" * 64, None, ["paper shape"]), _sample("c" * 64, None)]
    monkeypatch.setattr(run, "spawn", _fake_spawn(samples))
    res = run.measure("blob-flows", 7, seconds=0)
    assert res["failed"] == 1
    assert res["shape_notes"] == ["paper shape"]


def test_shape_check_failure_at_reference_seed_fails_the_run(monkeypatch):
    good = "a" * 64
    samples = [_sample(good, good, ["paper shape"]), _sample(good, good)]
    monkeypatch.setattr(run, "spawn", _fake_spawn(samples))
    assert run.measure("blob-flows", 3, seconds=0)["failed"] == 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table-mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
