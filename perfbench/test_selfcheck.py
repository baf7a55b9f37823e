"""Self-check of the benchmark harness on the nu=2 square (``tiny``).

    python3 -m pytest -q perfbench

Checks that every metric is printed, that each oracle flags a corrupted
output, that a child without a peak RSS report fails, that traced call
counts repeat exactly, and that the benchmark fails without a result when
the package is missing.
"""

import copy
import json
import shutil
import subprocess
import sys

import pytest

import oracles
import run
import workloads

PRINTED_METRICS = ("setup_s",) + run.PASS_METRICS + (
    "ops_per_s", "peak_rss_mb", "fail_ratio")


def bench(*args, cwd=run.ROOT):
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", "tiny",
         "--seed", "0", "--seconds", "0", *args],
        capture_output=True, text=True, cwd=cwd, timeout=170)
    return proc


def test_untraced_run_prints_every_end_to_end_metric():
    proc = bench("--trace", "0")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {name for name, _ in run.END_TO_END}
    printed = {line.split()[0] for line in lines[:-1]}
    assert set(PRINTED_METRICS) <= printed


@pytest.fixture(scope="module")
def traced_runs():
    return [bench("--trace", "1") for _ in range(2)]


def test_traced_run_prints_every_layer_metric(traced_runs):
    for proc in traced_runs:
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"]
        assert set(result["metrics"]) == {name for name, _ in run.PER_LAYER}


def test_traced_call_counts_repeat(traced_runs):
    first, second = (json.loads(p.stdout.splitlines()[-1])["metrics"]
                     for p in traced_runs)
    counts = [name for name, unit in run.PER_LAYER if unit == "count"]
    assert {n: first[n]["value"] for n in counts} == \
        {n: second[n]["value"] for n in counts}
    assert first["indexed.restr_frame.calls"]["value"] > 0


def _corrupt(op, stdout, stderr):
    """A wrong output of the same shape for every kind of operation."""
    kind = op.id.split(":")[0]
    if kind == "validate-truncated":
        return stdout, "violation: something else\n"
    if kind == "validate-missing":
        return json.dumps({"ok": True, "violations": []}), stderr
    doc = json.loads(stdout)
    if kind in ("validate", "coh-check"):
        doc["ok"] = False
        doc["violations"].append({"kind": "coh-frame"})
    elif kind == "roundtrip":
        doc["data"]["fibre_bijections"].popitem()
    elif kind == "to-fibred":
        doc["carriers"][0] = doc["carriers"][0][:-1]
    elif kind == "to-indexed":
        fibre = doc["families"]["0"]["()"]
        fibre[0] = fibre[-1]
    elif kind == "extend":
        top = doc["families"][str(doc["trunc"])]
        top[next(iter(top))] = 2
    elif kind == "shape":
        doc["carriers"][0] += 1
    elif kind in ("param", "param-file"):
        doc["stats"]["0"] += 1
    else:
        raise AssertionError(f"no corruption for {op.id}")
    return json.dumps(doc), stderr


@pytest.fixture(scope="module")
def tiny_samples():
    work = run.ROOT / ".bench_work" / "selfcheck"
    try:
        ctx = run.set_up("tiny", run.DEFAULT_SEED, work)[0]
        runner = run.Runner("tiny", run.DEFAULT_SEED, work)
        yield runner, [runner.run(op) for op in ctx.ops]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


def test_every_oracle_flags_a_corrupted_output(tiny_samples):
    runner, samples = tiny_samples
    kinds = set()
    for s in samples:
        op = s["op"]
        assert s["problems"] == [], (op.id, s["problems"])
        assert runner.expected_digest(op) == s["digest"]
        assert op.check(*_corrupt(op, s["stdout"], s["stderr"])), op.id
        kinds.add(op.id.split(":")[0])
    assert len(kinds) == 11


def test_face_identity_oracle_flags_a_wrong_face():
    doc = workloads.standard_shape(2, 2)
    assert oracles.face_law_problems(doc) == []
    face = doc["faces"]["2"]["L*"]
    face[0] = (face[0] + 1) % 4
    assert oracles.face_law_problems(doc)


def test_digest_and_exit_code_mismatches_are_failures(tiny_samples):
    runner, samples = tiny_samples
    op = copy.copy(samples[0]["op"])
    op.expect_rc = 7
    assert any("exit code" in p for p in runner.run(op)["problems"])
    op.expect_rc = samples[0]["op"].expect_rc
    other = run.Runner("tiny", run.DEFAULT_SEED, runner.work)
    other.digests = {"every_seed": {f"tiny/{op.id}": "0" * 64},
                     "default_seed": {}}
    assert any("digest" in p for p in other.run(op)["problems"])


def test_a_child_that_skips_its_exit_hooks_fails(tiny_samples,
                                                   monkeypatch):
    runner, _ = tiny_samples
    op = workloads.Op("stub", "validate_s", [], lambda out, err: [])
    for code, reported in (("pass", True), ("import os; os._exit(0)", False)):
        monkeypatch.setattr(run, "cli_argv",
                            lambda args, code=code: [sys.executable, "-c",
                                                     code])
        sample = runner.run(op)
        assert (sample["rss_kb"] is not None) == reported
        assert ("no peak RSS reported" in sample["problems"]) != reported


def test_fails_without_a_result_when_the_package_is_missing(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed",
         "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
