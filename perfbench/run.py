"""ffgenus benchmark: one seeded workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload reports --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the program is imported from ./src.
Workloads (closed loop, one caller, inputs generated from --seed):
  reports  stream of tame radical reports over F_3 .. F_{2^12}
  lattice  n = q - 1 reports whose subfield lattices hold 2^12 .. 2^17 elements
  oracle   desk-scale brute-force cross-checks over q <= 25
  cli      serial `python -m ffgenus.cli` calls, one process per request

--trace 0 runs the workload in fresh processes: SETUP_RUNS set-ups (the
median is setup_s) and one measured run. --trace 1 runs it twice for
--seconds/2 each, untraced and traced, and reports the per-layer metrics
of the traced run, the CLI cold-start split and the tracing overhead.
The last stdout line is one JSON object; the lines before it print every
metric by name and unit.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_RUNS = 3
COLD_START_RUNS = 5
DEADLINE = time.monotonic() + 170  # a run ends within 180 s, hung children included
WORKLOADS = ("reports", "lattice", "oracle", "cli")


def spawn(workload, seed, seconds, mode, out=None):
    """Run one worker process; return its JSON result."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode]
    if out is not None:
        cmd += ["--out", str(out)]
    spawned = time.monotonic()
    # own session, so a timeout also stops the CLI processes a worker started
    with subprocess.Popen(cmd + ["--spawned", repr(spawned)], cwd=ROOT, stdout=subprocess.PIPE,
                          start_new_session=True) as proc:
        try:
            stdout, _ = proc.communicate(timeout=max(DEADLINE - spawned, 1))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
    if proc.returncode:
        raise SystemExit(f"error: {' '.join(cmd)} exited with {proc.returncode}")
    return json.loads(stdout.decode().splitlines()[-1])


def tail(latencies):
    """Highest percentile with at least 10 samples beyond it: (value, percentile)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(workload, seed, seconds):
    setups = [spawn(workload, seed, seconds, "setup")["setup_s"] for _ in range(SETUP_RUNS - 1)]
    run = spawn(workload, seed, seconds, "run")
    setups.append(run["setup_s"])
    lat = run["latencies_ms"]
    tail_ms, pct = tail(lat)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (statistics.median(run["round_rates"]), "1/s"),
        "latency_p50_ms": (statistics.median(lat), "ms"),
        "latency_tail_ms": (tail_ms, "ms"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }
    notes = {"latency_tail_ms": f"p{pct:.2f} of {len(lat)} samples",
             "ops_per_s": f"median over {len(run['round_rates'])} rounds",
             "setup_s": f"median of {SETUP_RUNS} set-ups"}
    print(f"failed_ratio {run['failed'] / run['attempted']:.6g} ratio "
          f"({run['failed']} of {run['attempted']})")
    return run, metrics, notes


def _median_wall(cmd, env):
    times = []
    for _ in range(COLD_START_RUNS):
        start = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, check=True, timeout=60)
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def cold_start():
    """Interpreter start, `import sympy` and ffgenus's own import time, in ms."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    interpreter = _median_wall([sys.executable, "-c", "pass"], env)
    sympy_ms, own_ms = [], []
    for _ in range(COLD_START_RUNS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import ffgenus"],
                              cwd=ROOT, env=env, capture_output=True, check=True, timeout=60)
        sym = own = 0
        for line in proc.stderr.decode().splitlines():
            m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)", line)
            if m is None:
                continue
            self_us, cumulative_us, name = int(m.group(1)), int(m.group(2)), m.group(4)
            if name == "sympy":
                sym = cumulative_us
            elif name == "ffgenus" or name.startswith("ffgenus."):
                own += self_us
        sympy_ms.append(sym / 1e3)
        own_ms.append(own / 1e3)
    return interpreter, statistics.median(sympy_ms), statistics.median(own_ms)


def per_layer(workload, seed, seconds):
    half = seconds / 2
    plain = spawn(workload, seed, half, "run")
    out = ROOT / ".perfbench_tmp" / f"trace-{workload}.json"
    out.parent.mkdir(exist_ok=True)
    traced = spawn(workload, seed, half, "traced", out)
    t = traced["trace"] or {}
    ops = max(t.get("ops", 0), 1)
    procs = max(t.get("processes", 0), 1)
    op_self, op_calls = t.get("op_self_ns", {}), t.get("op_calls", {})
    all_self, all_calls = t.get("all_self_ns", {}), t.get("all_calls", {})
    metrics = {}

    def per_op(name):
        metrics[f"{name}.self_s"] = (op_self.get(name, 0) / 1e9 / ops, "s/op")

    def per_op_calls(name):
        per_op(name)
        metrics[f"{name}.calls"] = (op_calls.get(name, 0) / ops, "calls/op")

    context_total = t.get("context_total_ns", {})
    for name in ("ffpoly.make_context", "ffpoly.extension"):
        metrics[f"{name}.self_s"] = (all_self.get(name, 0) / 1e9 / procs, "s")
        metrics[f"{name}.total_s"] = (context_total.get(name, 0) / 1e9 / procs, "s")
        metrics[f"{name}.calls"] = (all_calls.get(name, 0) / procs, "count")
    tests = t.get("irreducible_tests", 0)
    metrics["ffpoly.modulus_search.irreducible_tests"] = (tests / procs, "count")
    metrics["ffpoly.modulus_search.hit_ratio"] = (
        t.get("contexts_built", 0) / tests if tests else 0.0, "ratio")
    for name in ("factor", "is_irreducible", "powmod", "poly_gcd", "divrem", "poly_mul",
                 "is_eth_power"):
        per_op_calls(f"ffpoly.{name}")
    per_op("ffpoly.parse")
    per_op("ffpoly.render")
    for name in ("radical_extension", "build_profile", "t0_radical"):
        per_op(f"ramify.{name}")
    reports = t.get("reports", 0)
    metrics["genus.factor_calls_per_report"] = (
        t.get("factor_in_report", 0) / reports if reports else 0.0, "calls")
    for name in ("build_F0", "find_F", "report", "render"):
        per_op(f"genus.{name}")
    find_f = t.get("find_F_calls", 0)
    metrics["genus.find_F.lattice_size"] = (
        t.get("lattice_sum", 0) / find_f if find_f else 0.0, "elements")
    metrics["genus.F_determined_ratio"] = (
        t.get("F_determined", 0) / reports if reports else 0.0, "ratio")
    metrics["genus.exact_ratio"] = (t.get("exact", 0) / reports if reports else 0.0, "ratio")
    for name in ("carlitz_action", "euler_phi", "subfield_FP"):
        per_op(f"carlitz.{name}")
    for name in ("naive_factor", "unit_count", "t0_root_degrees", "carlitz_compose_check",
                 "splitting_at_finite"):
        per_op_calls(f"oracle.{name}")
    metrics["oracle.mismatches"] = (plain["mismatches"] + traced["mismatches"], "count")

    interpreter, sympy_ms, own_ms = cold_start()
    metrics["cli.interpreter_ms"] = (interpreter, "ms")
    metrics["cli.import_sympy_ms"] = (sympy_ms, "ms")
    metrics["cli.import_ffgenus_ms"] = (own_ms, "ms")
    if workload == "cli":
        call_ms = statistics.median(plain["latencies_ms"])
        command = call_ms - interpreter - sympy_ms - own_ms
        ok = plain["exit_ok"] / len(plain["latencies_ms"])
    else:
        command = ok = 0.0
    metrics["cli.command_ms"] = (command, "ms")
    metrics["cli.exit_code_ok_ratio"] = (ok, "ratio")
    plain_rate = statistics.median(plain["round_rates"])
    traced_rate = statistics.median(traced["round_rates"])
    metrics["trace.overhead_ratio"] = (traced_rate / plain_rate, "ratio")

    run = {key: plain[key] + traced[key] for key in ("attempted", "failed")}
    run["problems"] = plain["problems"] + traced["problems"]
    return run, metrics, {}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "ffgenus" / "__init__.py").is_file():
        print(f"error: the ffgenus sources are not at {SRC}", file=sys.stderr)
        return 2
    measure = per_layer if args.trace else end_to_end
    run, metrics, notes = measure(args.workload, args.seed, args.seconds)
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} {value:.6g} {unit}{note}")
    for problem in run["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
