"""One benchmark process: set up a workload, run it in a closed loop, check it.

Started by run.py as a fresh single-threaded process. Setup (imports,
contexts, input generation and one untimed warm-up round that fills the
lazily built extension contexts) ends when the first operation is ready;
its length is measured from the parent's spawn time on the shared
monotonic clock. Operations then run in whole rounds, one of each input
class per round, until the timed work reaches --seconds and at least
MIN_ROUNDS rounds ran. Every output is checked outside the timed region.
The last stdout line is a JSON result.

    python3 perfbench/worker.py --workload reports --seed 1 --seconds 5 \
        --mode run --spawned <time.monotonic() of the parent at spawn>
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import re
import resource
import signal
import subprocess
import sys
import time
from math import gcd
from pathlib import Path

import gen
from tracer import CHECKING, Tracer, merge

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"
DEFAULT_SEED = 1
OP_TIMEOUT_S = 60
PREGEN_ROUNDS = 16
MIN_ROUNDS = 2  # cli rounds take most of --seconds; two keep its tail at >= 22 samples
MAX_PROBLEMS = 5
DIGESTS = json.loads(Path(__file__).with_name("digests.json").read_text())

ROUNDS = {
    "reports": gen.report_round,
    "lattice": gen.lattice_round,
    "oracle": gen.oracle_round,
}


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout(f"operation exceeded {OP_TIMEOUT_S} s")


# -- operations (timed) --


def run_radical(fg, spec):
    ctx = fg.make_context(spec["p"], spec["m"])
    K = fg.radical_extension(ctx, spec["n"], fg.parse_element(ctx, spec["gamma"]),
                             fg.parse_poly(ctx, spec["poly"]), spec["s"])
    report = fg.genus_report(K)
    return K, report, fg.render_report(report), fg.report_json(report)


def run_oracle(fg, spec):
    ctx = fg.make_context(spec["p"], spec["m"])
    kind = spec["kind"]
    if kind == "factor":
        f = fg.parse_poly(ctx, spec["poly"])
        return fg.naive_factor(f), fg.factor(f)
    if kind == "phi":
        M = fg.parse_poly(ctx, spec["poly"])
        return fg.unit_count(M), fg.euler_phi(M)
    if kind == "t0":
        gamma = fg.parse_element(ctx, spec["gamma"])
        return fg.t0_root_degrees(gamma, spec["d"]), fg.t0_radical(gamma, spec["d"], 1)
    if kind == "carlitz":
        return fg.carlitz_compose_check(fg.parse_poly(ctx, spec["M"]),
                                        fg.parse_poly(ctx, spec["N"]))
    K = fg.radical_extension(ctx, spec["n"], fg.parse_element(ctx, spec["gamma"]),
                             fg.parse_poly(ctx, spec["poly"]), spec["s"])
    P = fg.parse_poly(ctx, spec["P"])
    return fg.splitting_at_finite(K, P), dict(fg.ram_finite(K)).get(P, 1)


# -- checks (untimed); each returns a list of problems --


def safe_check(check, fg, spec, out):
    try:
        return check(fg, spec, out)
    except Exception as exc:  # noqa: BLE001 - a check that raises is a failed check
        return [f"check of {spec} raised {exc!r}"]


def check_radical(fg, spec, out):
    K, report, text, js = out
    exp = spec["expect"]
    comps, prof = report.components, report.profile
    bad = []
    places = sorted((pl.deg, pl.e_P, pl.c_P) for pl in comps.places)
    if places != [tuple(x) for x in exp["places"]]:
        bad.append(f"places {places} != {exp['places']}")
    if comps.e_inf != exp["e_inf"] or any(e != exp["e_inf"] for e, _ in prof.infinity):
        bad.append(f"e_inf {comps.e_inf} != {exp['e_inf']}")
    if sorted(t for _, t in prof.infinity) != exp["t_list"] or report.t0 != exp["t0"]:
        bad.append(f"infinity {prof.infinity} t0 {report.t0} != {exp['t_list']}")
    # the divisibility invariants of the paper (acceptance criterion 6)
    bound = gcd(comps.c_inf, comps.e_inf)
    if bound % comps.cprime_bound or (
            comps.cprime_exact is not None and bound % comps.cprime_exact):
        bad.append("c'_inf does not divide gcd(c_inf, e_inf)")
    for pl in comps.places:
        lo, hi = fg.estar_interval(comps.q, pl.e_P, pl.deg)
        if pl.c_P % lo or pl.e_P % pl.c_P or hi != pl.e_P:
            bad.append(f"e*_P interval violated at {pl.poly}")
    if any(t % report.t0 for _, t in prof.infinity):
        bad.append("t0 does not divide every t")
    if len(comps.F0.radicals + comps.F0.cyclo) != sum(1 for pl in comps.places if pl.c_P > 1):
        bad.append("F0 generator count")
    if report.exact and report.exact_field != report.lower:
        bad.append("exact field differs from the lower bound")
    if js["t0"] != report.t0 or f"\nt0 = {report.t0}\n" not in text:
        bad.append("rendered t0")
    # brute-force oracle where its caps allow: splitting at the places of D
    if K.s == 1:
        for P, alpha in K.D_factors.factors[:2]:
            if K.ctx.q ** P.degree <= 81:
                got = fg.splitting_at_finite(K, P)
                if got != (K.n // gcd(K.n, alpha), ()):
                    bad.append(f"splitting_at_finite {got} at {fg.render_poly(P)}")
    return bad


def check_oracle(fg, spec, out):
    kind, exp = spec["kind"], spec.get("expect", {})
    if kind == "carlitz":
        return [] if out is True else ["Carlitz composition laws fail"]
    if kind == "splitting":
        (e, degs), ram_e = out
        bad = [] if e == ram_e else [f"oracle mismatch: splitting e {e} != ram_finite {ram_e}"]
        if e != exp["P_e"] or (e == 1 and sum(degs) != spec["n"]) or (e > 1 and degs):
            bad.append(f"splitting {(e, degs)} at {spec['P']}")
        return bad
    oracle, formula = out
    bad = [] if oracle == formula else [f"oracle mismatch in {kind}: {oracle} != {formula}"]
    if kind == "factor":
        got = formula.degree_multiset()
        if got != exp["degrees"]:
            bad.append(f"factor degrees {got} != {exp['degrees']}")
    elif formula != exp[kind]:
        bad.append(f"{kind} {formula} != {exp[kind]}")
    return bad


_TERM_DEG = re.compile(r"T(?:\^(\d+))?")


def _poly_degree(text):
    m = _TERM_DEG.search(text)
    return 0 if m is None else int(m.group(1) or 1)


def _ints(pattern, text):
    return [tuple(int(x) for x in m) if isinstance(m, tuple) else int(m)
            for m in re.findall(pattern, text, re.M)]


def check_cli(req, proc):
    out, err = proc.stdout.decode(), proc.stderr.decode()
    exp, kind = req["expect"], req["kind"]
    if proc.returncode != req["code"]:
        return [f"exit {proc.returncode} != {req['code']} for {req['argv']}: {err.strip()[-200:]}"]
    if "Traceback" in err:
        return [f"traceback for {req['argv']}"]
    if req["code"]:
        lines = err.strip().splitlines()
        ok = len(lines) == 1 and lines[0].startswith("error:") and not out
        return [] if ok else [f"error output {err!r} for {req['argv']}"]
    bad = []
    if kind == "phi" and out.strip() != str(exp["phi"]):
        bad.append(f"phi {out.strip()} != {exp['phi']}")
    elif kind == "factor":
        data = json.loads(out)
        got = sorted(_poly_degree(f["poly"]) for f in data["factors"] for _ in range(f["mult"]))
        if got != exp["degrees"]:
            bad.append(f"factor degrees {got} != {exp['degrees']}")
    elif kind == "carlitz" and len(out.strip().splitlines()) != exp["lines"]:
        bad.append("carlitz coefficient count")
    elif kind == "analyze":
        inf = _ints(r"^infinite prime: e = (\d+), t = (\d+)$", out)
        es = sorted(_ints(r"^  .*: e = (\d+)", out))
        if (sorted(t for _, t in inf) != exp["t_list"] or {e for e, _ in inf} != {exp["e_inf"]}
                or es != sorted(e for _, e, _ in exp["places"])):
            bad.append(f"analyze output {out!r}")
    elif kind == "genus_text":
        pl = sorted(_ints(r"^place .*: e = (\d+), c = (\d+)", out))
        if pl != sorted((e, c) for _, e, c in exp["places"]) or \
                _ints(r"^t0 = (\d+)$", out) != [exp["t0"]]:
            bad.append(f"genus output {out!r}")
    elif kind == "genus_json":
        data = json.loads(out)
        pl = sorted((c["deg"], c["e"], c["c"]) for c in data["components"])
        if pl != [tuple(x) for x in exp["places"]] or data["t0"] != exp["t0"] \
                or data["infinity"]["e_inf"] != exp["e_inf"]:
            bad.append(f"genus json {out!r}")
    elif kind == "genus_profile" and _ints(r"^t0 = (\d+)$", out) != [exp["t0"]]:
        bad.append(f"profile report {out!r}")
    elif kind == "oracle_verify" and out.strip().splitlines()[-1:] != ["all checks passed"]:
        bad.append(f"oracle-verify {out!r}")
    return bad


def report_digest(outputs):
    """sha256 of the quantities ROADMAP pins as stable, over one round."""
    rows = []
    for _, report, _, js in outputs:
        inf = js["infinity"]
        rows.append({"places": [[c["poly"], c["deg"], c["e"], c["c"]] for c in js["components"]],
                     "infinity": [list(x) for x in report.profile.infinity],
                     "c_inf": inf["c_inf"], "e_inf": inf["e_inf"], "t0": js["t0"],
                     "F0": inf["F0"]})
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()


# -- workloads --


def _import_ffgenus():
    sys.path.insert(0, str(SRC))
    import ffgenus
    if Path(ffgenus.__file__).resolve().parent != (SRC / "ffgenus").resolve():
        raise SystemExit(f"ffgenus imported from {ffgenus.__file__}, not from {SRC}")
    return ffgenus


def _emit(setup_s, rss_kb, **fields):
    print(json.dumps(dict(fields, setup_s=setup_s, peak_rss_mb=rss_kb / 1024)))


def _timed(operate, fg, spec):
    """Run one operation under the per-operation timeout: (output or None, seconds, problems)."""
    signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
    start = time.perf_counter()
    try:
        out, bad = operate(fg, spec), []
    except Exception as exc:  # noqa: BLE001 - a failed operation is a result
        out, bad = None, [f"{spec}: {exc!r}"]
    elapsed = time.perf_counter() - start
    signal.setitimer(signal.ITIMER_REAL, 0)
    return out, elapsed, bad


def run_inprocess(args):
    fg = _import_ffgenus()
    tracer = None
    if args.mode == "traced":
        tracer = Tracer()
        tracer.install()
    operate, check = (run_oracle, check_oracle) if args.workload == "oracle" else \
        (run_radical, check_radical)
    signal.signal(signal.SIGALRM, _alarm)
    rng = random.Random(args.seed)
    rounds = [ROUNDS[args.workload](rng) for _ in range(PREGEN_ROUNDS)]
    for p, m in sorted({(s["p"], s["m"]) for s in rounds[0]}):
        fg.make_context(p, m)
    warm = [_timed(operate, fg, spec) for spec in rounds[0]]
    setup_s = time.monotonic() - args.spawned
    if args.mode == "setup":
        _emit(setup_s, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        return

    problems, failed, mismatches = [], 0, 0

    def record(spec, out, bad):
        nonlocal failed, mismatches
        if tracer is not None:
            tracer.request = CHECKING
        if out is not None:
            bad = safe_check(check, fg, spec, out)
        mismatches += sum(p.startswith("oracle mismatch") for p in bad)
        failed += bool(bad)
        problems.extend(bad)

    for spec, (out, _, bad) in zip(rounds[0], warm):
        record(spec, out, bad)
    if args.seed == DEFAULT_SEED and args.workload in DIGESTS and not failed:
        digest = report_digest([out for out, _, _ in warm])
        if digest != DIGESTS[args.workload]:
            record(None, None, [f"digest {digest} != pinned {DIGESTS[args.workload]}"])
    attempted = len(rounds[0])

    latencies, measured, r, round_rates = [], 0.0, 1, []
    while measured < args.seconds or len(round_rates) < MIN_ROUNDS:
        if r == len(rounds):
            rounds.append(ROUNDS[args.workload](rng))
        round_start = measured
        for spec in rounds[r]:
            if tracer is not None:
                tracer.request = len(latencies)
            out, elapsed, bad = _timed(operate, fg, spec)
            latencies.append(elapsed * 1e3)
            measured += elapsed
            record(spec, out, bad)
        round_rates.append(len(rounds[r]) / (measured - round_start))
        r += 1
    summary = tracer.write(args.out, len(latencies)) if tracer is not None else None
    _emit(setup_s, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
          attempted=attempted + len(latencies), failed=failed, latencies_ms=latencies,
          round_rates=round_rates, mismatches=mismatches, problems=problems[:MAX_PROBLEMS],
          trace=summary)


def run_cli(args):
    rng = random.Random(args.seed)
    SCRATCH.mkdir(exist_ok=True)
    rounds = []
    for r in range(PREGEN_ROUNDS):
        path = SCRATCH / f"profile-{args.mode}-{args.seed}-{r}.json"
        reqs, profile = gen.cli_round(rng, str(path))
        path.write_text(json.dumps(profile))
        rounds.append(reqs)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    setup_s = time.monotonic() - args.spawned
    if args.mode == "setup":
        _emit(setup_s, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        return
    latencies, measured, problems, failed, r, exit_ok = [], 0.0, [], 0, 0, 0
    round_rates, summaries = [], []
    try:
        while measured < args.seconds or r < MIN_ROUNDS:
            round_start = measured
            requests = rounds[r % len(rounds)]
            for i, req in enumerate(requests):
                cmd = [sys.executable, "-m", "ffgenus.cli"] + req["argv"]
                if args.mode == "traced":
                    summary = SCRATCH / f"trace-cli-{args.seed}-{r}-{i}.json"
                    cmd[1:3] = [str(Path(__file__).with_name("traced_cli.py")), str(summary)]
                start = time.perf_counter()
                try:
                    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                                          timeout=OP_TIMEOUT_S)
                    bad = None
                except subprocess.TimeoutExpired:
                    bad = [f"timeout for {req['argv']}"]
                elapsed = time.perf_counter() - start
                latencies.append(elapsed * 1e3)
                measured += elapsed
                if bad is None:
                    exit_ok += proc.returncode == req["code"]
                    try:
                        bad = check_cli(req, proc)
                    except (ValueError, KeyError, TypeError) as exc:
                        bad = [f"unreadable output for {req['argv']}: {exc!r}"]
                if args.mode == "traced" and summary.exists():
                    summaries.append(json.loads(summary.read_text()))
                    summary.unlink()
                    Path(f"{summary}.spans").unlink()
                failed += bool(bad)
                problems += bad
            round_rates.append(len(requests) / (measured - round_start))
            r += 1
    finally:
        for path in SCRATCH.glob(f"profile-{args.mode}-{args.seed}-*.json"):
            path.unlink()
    _emit(setup_s, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
          attempted=len(latencies), failed=failed, latencies_ms=latencies, exit_ok=exit_ok,
          round_rates=round_rates, mismatches=0, problems=problems[:MAX_PROBLEMS],
          trace=merge(summaries) if summaries else None)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(ROUNDS) + ["cli"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "traced"), required=True)
    ap.add_argument("--spawned", type=float, required=True,
                    help="time.monotonic() of the parent just before the spawn")
    ap.add_argument("--out", help="summary path of the traced mode")
    args = ap.parse_args()
    if args.workload == "cli":
        run_cli(args)
    else:
        run_inprocess(args)


if __name__ == "__main__":
    main()
