#!/usr/bin/env python3
"""Benchmark of the nusets command line, end to end and per module.

    python3 perfbench/run.py --workload NAME --seed N --seconds S \
        --trace 0|1

NAME is one of the workloads of BENCHMARK.json (sweep, convert, build,
extend, telescope; see workloads.py) or tiny, the self-check's; S
defaults to BENCHMARK.json's run_seconds.

Run from a checkout of the repository; the package is imported from its
``src`` directory, so nothing is built. Fixtures are made from the seed
(set-up, timed separately as ``setup_s``). Then one client runs the
workload's operations in a closed loop, one child process at a time, in a
seeded order per pass: one full pass, then on until S seconds have
passed. Every output is checked against the oracles in oracles.py and,
where recorded, against the digests in digests.json.

Times are reported at nominal machine speed. On a shared host the same
operation's wall time drifts by 10-30 % within minutes; measured on a
2-core Xeon VM, it correlates about 0.8 with the time of a fixed
pure-Python task (calibrate) run just before and after it. Each wall time
is multiplied by NOMINAL_CALIBRATION_S over the mean of those two
calibration times; the raw wall times are printed alongside.

Each operation runs in a fresh interpreter, as a user's shell runs it.
The module-global ``_CACHE`` of ``indexed.py`` and the memo tables that
``setattr`` hangs on structures live as long as the process; a warm
in-process loop would time caches no CLI user ever has, and would show a
per-structure table that replaces them as a regression.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
plain passes with traced passes, whose children run traced.py, and prints
the per-module metrics plus the traced/untraced wall-time ratio. The last
stdout line is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import hashlib
import json
import math
import os
import random
import select
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
RSS_HOOK = HERE / "rss_hook"
DEFAULT_SEED = 0
# Set-up is repeated at least SETUP_REPS times and for at least
# SETUP_MIN_S seconds, so that cheap set-ups get more repetitions.
SETUP_REPS = 5
SETUP_MIN_S = 3.0
OP_TIMEOUT_S = 120
NOMINAL_CALIBRATION_S = 0.015

PASS_METRICS = ("validate_s", "coh_check_s", "to_indexed_s", "to_fibred_s",
                "roundtrip_s", "extend_s", "shape_s", "param_steps_s",
                "param_file_s")
# The metrics of the result, with their units, as BENCHMARK.json lists
# them: end-to-end ones for --trace 0, per-module ones for --trace 1.
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]]


class MissingProgram(Exception):
    """The checkout has no importable nusets package."""


# ------------------------------------------------------------ children

def calibrate():
    """Seconds for a fixed pure-Python task of tuple hashing and dict
    updates, the kind of work the package does: the least of three
    timings, as interruptions only ever add to one."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        counts = {}
        for i in range(30000):
            key = (i % 97, i % 89, str(i % 13))
            counts[key] = counts.get(key, 0) + 1
        times.append(time.perf_counter() - start)
    return min(times)


class Speed:
    """Scales wall times to nominal speed by the calibration times
    measured just before and just after each timed interval."""

    def __init__(self):
        self.last = calibrate()

    def scale(self, wall):
        before, self.last = self.last, calibrate()
        return wall * NOMINAL_CALIBRATION_S / ((before + self.last) / 2)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), str(RSS_HOOK), env.get("PYTHONPATH"))
        if p)
    # Fixed string hashing: the same dict and set layouts on every run,
    # so traced call counts repeat exactly.
    env["PYTHONHASHSEED"] = "0"
    return env


ENV = child_env()


def _exited_within(pid, timeout):
    fd = os.pidfd_open(pid)
    try:
        return bool(select.select([fd], [], [], timeout)[0])
    finally:
        os.close(fd)


def spawn(argv, out, err, timeout=OP_TIMEOUT_S):
    """Run argv with stdout/stderr to files and no stdin. Returns (wall s,
    exit code, peak RSS KiB or None when the child did not report it,
    timed out)."""
    rss = Path(out).with_suffix(".rss")
    rss.unlink(missing_ok=True)
    actions = [
        (os.POSIX_SPAWN_CLOSE, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(out),
         os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(err),
         os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv,
                         dict(ENV, NUSETS_BENCH_RSS=str(rss)),
                         file_actions=actions)
    try:
        timed_out = not _exited_within(pid, timeout)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.wait4(pid, 0)
        raise
    if timed_out:
        os.kill(pid, signal.SIGKILL)
    _, status, _ = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    peak = int(rss.read_text()) if rss.is_file() else None
    return wall, os.waitstatus_to_exitcode(status), peak, timed_out


def cli_argv(args):
    return [sys.executable, "-m", "nusets.cli", *args]


def traced_argv(trace_out, args):
    return [sys.executable, str(HERE / "traced.py"), str(trace_out), "--",
            *args]


def setup_cli(work):
    """A CLI runner for fixture building: stdout text, or SetupError."""
    def run(args):
        out, err = work / "setup.out", work / "setup.err"
        _, rc, _, timed_out = spawn(cli_argv(args), out, err)
        if rc != 0 or timed_out:
            raise workloads.SetupError(
                f"nusets {' '.join(args)} exited {rc}: "
                f"{err.read_text(errors='replace')[-500:]}")
        return out.read_text(encoding="utf-8")
    return run


def check_program(work):
    """One interpreter start that imports the CLI (and writes bytecode)."""
    if not (ROOT / "src" / "nusets" / "cli.py").is_file():
        raise MissingProgram(f"no src/nusets/cli.py under {ROOT}")
    out, err = work / "import.out", work / "import.err"
    _, rc, _, _ = spawn([sys.executable, "-c", "import nusets.cli"], out, err)
    if rc != 0:
        raise MissingProgram(
            f"cannot import nusets.cli: {err.read_text(errors='replace')}")


def set_up(workload, seed, work):
    """Build the fixtures again and again (see SETUP_REPS); keep the last.
    Returns the context, the median set-up time, scaled and as wall time,
    and the number of set-ups."""
    speed = Speed()
    walls, scaled = [], []
    begin = time.perf_counter()
    while (len(walls) < SETUP_REPS
           or time.perf_counter() - begin < SETUP_MIN_S):
        d = work / f"setup{len(walls)}"
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
        start = time.perf_counter()
        check_program(d)
        ctx = workloads.Context(d, seed, setup_cli(d))
        workloads.WORKLOADS[workload](ctx)
        walls.append(time.perf_counter() - start)
        scaled.append(speed.scale(walls[-1]))
    return (ctx, statistics.median(scaled), statistics.median(walls),
            len(walls))


# ------------------------------------------------------------ one op

def load_digests():
    if not DIGESTS.is_file():
        return {"default_seed": {}, "every_seed": {}}
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


class Runner:
    """Runs ops in children and judges their outputs."""

    def __init__(self, workload, seed, work):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.digests = load_digests()
        self.speed = Speed()

    def expected_digest(self, op):
        key = f"{self.workload}/{op.id}"
        if key in self.digests["every_seed"]:
            return self.digests["every_seed"][key]
        if self.seed == DEFAULT_SEED:
            return self.digests["default_seed"].get(key)
        return None

    def run(self, op, trace_out=None):
        """Returns a sample dict: wall and scaled seconds, rss_kb,
        problems, digest, trace, stdout and stderr."""
        out, err = self.work / "op.out", self.work / "op.err"
        argv = (cli_argv(op.args) if trace_out is None
                else traced_argv(trace_out, op.args))
        if trace_out is not None:
            Path(trace_out).unlink(missing_ok=True)
        wall, rc, rss, timed_out = spawn(argv, out, err)
        scaled = self.speed.scale(wall)
        stdout = out.read_bytes()
        stderr = err.read_text(encoding="utf-8", errors="replace")
        digest = hashlib.sha256(stdout).hexdigest()
        problems = []
        if timed_out:
            problems.append(f"timed out after {OP_TIMEOUT_S} s")
        if rc != op.expect_rc:
            problems.append(f"exit code {rc}, expected {op.expect_rc}")
        if "Traceback" in stderr:
            problems.append("traceback on stderr")
        if rss is None:
            # The exit hook did not run (os._exit, a signal): the peak is
            # unknown, and a 0 would read as a memory gain.
            problems.append("no peak RSS reported")
        text = stdout.decode("utf-8", "replace")
        if not problems:
            problems += op.check(text, stderr)
        want = self.expected_digest(op)
        if want is not None and digest != want:
            problems.append("output bytes differ from the recorded digest")
        trace = None
        if trace_out is not None and Path(trace_out).is_file():
            trace = json.loads(Path(trace_out).read_text(encoding="utf-8"))
        return {"op": op, "wall": wall, "scaled": scaled, "rss_kb": rss,
                "problems": problems,
                "digest": digest, "trace": trace,
                "stdout": text, "stderr": stderr}

    def run_pass(self, ops, rng, traced=False):
        order = list(ops)
        rng.shuffle(order)
        return [self.run(op, self.work / "trace.json" if traced else None)
                for op in order]


# ------------------------------------------------------------ statistics

def tail(samples):
    """(p, value) for the highest percentile with at least ten samples
    above it, nearest rank; None when there are fewer than 11 samples."""
    n = len(samples)
    if n < 11:
        return None
    p = math.floor(100 * (n - 10) / n)
    return p, sorted(samples)[math.ceil(p * n / 100) - 1]


def op_medians(samples, key):
    times = {}
    for s in samples:
        times.setdefault(s["op"].id, []).append(s[key])
    return {k: statistics.median(v) for k, v in times.items()}


def per_pass(samples, key="scaled"):
    """Seconds per pass of the ops among ``samples``: the sum of each
    op's median time. Medians per op keep one slow sample of a long op
    from moving the whole figure."""
    return sum(op_medians(samples, key).values())


def merge_traces(samples):
    """Sum the traces of one pass's children."""
    total = {"calls": {}, "spans": {}, "edges": {}, "module_self": {},
             "import_s": 0.0}
    for s in samples:
        t = s["trace"] or {}
        for k, v in t.get("calls", {}).items():
            total["calls"][k] = total["calls"].get(k, 0) + v
        for k, v in t.get("spans", {}).items():
            agg = total["spans"].setdefault(k, [0, 0.0, 0.0])
            for i in range(3):
                agg[i] += v[i]
        for part in ("edges", "module_self"):
            for k, v in t.get(part, {}).items():
                total[part][k] = total[part].get(k, 0.0) + v
        total["import_s"] += t.get("import_s", 0.0)
    return total


def layer_metrics(t):
    """Per-module metrics of one traced pass (without the overhead)."""
    calls, spans, mod = t["calls"], t["spans"], t["module_self"]

    def c(*keys):
        return sum(calls.get(k, 0) for k in keys)

    def incl(*keys):
        return sum(spans.get(k, (0, 0.0, 0.0))[1] for k in keys)

    def own(key):
        return spans.get(key, (0, 0.0, 0.0))[2]

    coh = ("indexed.check_coh_frame", "indexed.check_coh_painting")
    m = {
        "indexed.coh_checks": c(*coh),
        "indexed.sweep_s": incl(*coh),
        "indexed.validate_self_s": own("indexed.validate_indexed"),
        "indexed.parse_s": incl("indexed.parse_indexed"),
        "indexed.emit_s": incl("indexed.emit_indexed"),
        "equivalence.to_indexed.self_s": own("equivalence.to_indexed"),
        "equivalence.to_fibred.validate_s": t["edges"].get(
            "equivalence.to_fibred>indexed.validate_indexed", 0.0),
        "equivalence.to_fibred.self_s": own("equivalence.to_fibred"),
        "equivalence.round_trip.self_s": own(
            "equivalence.round_trip_report"),
        "presheaf.parse_s": incl("presheaf.parse_nuset"),
        "presheaf.emit_s": incl("presheaf.emit_nuset"),
        "words.calls": sum(v for k, v in calls.items()
                           if k.startswith("words.")),
        "parametricity.parse_s": incl("parametricity.parse_type"),
        "parametricity.print_s": incl("parametricity.print_type"),
        "cli.import_s": t["import_s"],
    }
    for name, _ in PER_LAYER:
        if name.endswith(".calls") and name not in m:
            m[name] = c(name[:-len(".calls")])
        elif name.endswith(".self_s") and name.count(".") == 1:
            m[name] = mod.get(name.split(".")[0], 0.0)
    return m


# ------------------------------------------------------------ runs

def measure(runner, ops, seconds, rng):
    """One full pass, then further ops in seeded pass order until
    ``seconds`` have passed."""
    samples = []
    start = time.perf_counter()
    while True:
        for op in rng.sample(ops, len(ops)):
            if (len(samples) >= len(ops)
                    and time.perf_counter() - start >= seconds):
                return samples
            samples.append(runner.run(op))


def measure_traced(runner, ops, seconds, rng):
    """Alternate untraced and traced passes until ``seconds`` have
    passed (at least one of each)."""
    plain, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append(runner.run_pass(ops, rng))
        traced.append(runner.run_pass(ops, rng, traced=True))
    return plain, traced


def summary_lines(workload, seed, ctx, setup, samples):
    lines = [f"workload {workload}, seed {seed}: {len(ctx.ops)} operations "
             f"per pass, {len(samples)} operations run, closed loop with one "
             f"client, one child process per operation; times at nominal "
             f"speed, wall time in brackets"]
    for name, sizes in ctx.fixtures.items():
        lines.append(f"  fixture {name}: " + ", ".join(
            f"{k} {v}" for k, v in sizes.items()))
    lines.append(f"setup_s {setup[0]:.6f} s [{setup[1]:.6f} s] (median of "
                 f"{setup[2]} set-ups)")
    medians = op_medians(samples, "scaled")
    for name in PASS_METRICS + ("pass_s",):
        mine = [s for s in samples
                if name == "pass_s" or s["op"].metric == name]
        if not mine:
            lines.append(f"{name} 0 s/pass (not run by this workload)")
            continue
        value = per_pass(mine)
        t = tail([s["scaled"] / medians[s["op"].id] for s in mine])
        tail_text = (f"p{t[0]} {t[1] * value:.6f} s/pass" if t else
                     "no percentile with ten samples above it")
        lines.append(f"{name} {value:.6f} s/pass [{per_pass(mine, 'wall'):.6f}"
                     f" s/pass] (sum of per-operation medians; "
                     f"n={len(mine)} samples; {tail_text})")
    return lines


def end_to_end(samples, setup_s):
    return {
        "setup_s": setup_s,
        "pass_s": per_pass(samples),
        "peak_rss_mb": max(s["rss_kb"] or 0 for s in samples) / 1024,
    }


def result_line(samples, metrics, units):
    failed = sum(1 for s in samples if s["problems"])
    return json.dumps({
        "correct": failed == 0, "attempted": len(samples), "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units}})


def benchmark(workload, seed, seconds, trace, work):
    ctx, *setup = set_up(workload, seed, work)
    runner = Runner(workload, seed, work)
    rng = random.Random(seed)
    if trace:
        plain, traced = measure_traced(runner, ctx.ops, seconds, rng)
        timed = [s for p in plain for s in p]
        samples = timed + [s for p in traced for s in p]
    else:
        timed = samples = measure(runner, ctx.ops, seconds, rng)
    lines = summary_lines(workload, seed, ctx, setup, timed)
    failed = [s for s in samples if s["problems"]]
    lines.append(f"fail_ratio {len(failed) / len(samples):.6f} "
                 f"({len(failed)} of {len(samples)} operations failed)")
    for s in failed[:10]:
        lines.append(f"  FAILED {s['op'].id}: {'; '.join(s['problems'])}")
    e2e = end_to_end(timed, setup[0])
    rate = len(timed) / sum(s["scaled"] for s in timed)
    wall_rate = len(timed) / sum(s["wall"] for s in timed)
    lines.append(f"ops_per_s {rate:.6f} 1/s [{wall_rate:.6f} 1/s]")
    lines.append(f"peak_rss_mb {e2e['peak_rss_mb']:.3f} MiB")
    if trace:
        passes = [layer_metrics(merge_traces(p)) for p in traced]
        metrics = {name: statistics.median(m[name] for m in passes)
                   for name, _ in PER_LAYER if name in passes[0]}
        metrics["trace.overhead_ratio"] = (
            statistics.median(sum(s["scaled"] for s in p) for p in traced)
            / statistics.median(sum(s["scaled"] for s in p) for p in plain))
        units = dict(PER_LAYER)
        for name, unit in PER_LAYER:
            lines.append(f"{name} {metrics[name]} {unit}")
    else:
        metrics, units = e2e, dict(END_TO_END)
    return lines, result_line(samples, metrics, units)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float,
                    default=BENCHMARK["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        lines, result = benchmark(args.workload, args.seed, args.seconds,
                                  args.trace, work)
    except (MissingProgram, workloads.SetupError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    print("\n".join(lines))
    print(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
