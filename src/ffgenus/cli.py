"""Command line front end.

Thin wrapper over the library: parse flags, build the objects, print one
report. Output is deterministic for identical invocations; --format picks
plain text or JSON. Exit codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import os
import random
import re
import sys

from .carlitz import carlitz_action, euler_phi
from .ffpoly import (
    MAX_Q,
    DomainError,
    FqPoly,
    ParseError,
    factor,
    factor_int,
    make_context,
    monic_polys,
    parse_element,
    parse_poly,
    power_exceeds,
    render_element,
    render_poly,
)
from .genus import genus_report, genus_report_abstract, render_report, report_json
from .oracle import (
    MAX_UNIT_COUNT_Q,
    SWEEP_SEED,
    carlitz_compose_check,
    naive_factor,
    root_field_degree,
    splitting_at_finite,
    t0_root_degrees,
    unit_count,
)
from .ramify import (
    build_profile,
    profile_from_dict,
    radical_extension,
    ram_finite,
    t0_radical,
)

_FIELD_RE = re.compile(r"(\d+)(?:\^(\d+))?")


def context_from_field(text):
    """Context for --field given as p, p^m, or a prime power like 9."""
    m = _FIELD_RE.fullmatch(text.strip())
    if not m:
        raise ParseError(f"--field must look like 3, 9 or 3^2, got {text!r}")
    try:
        base, exp = int(m.group(1)), int(m.group(2) or 1)
    except ValueError:  # more digits than the interpreter converts
        raise ParseError(f"--field literal of {len(text)} characters is too long") from None
    if base < 2 or exp < 1:
        raise ParseError(f"--field must be a prime power >= 2, got {text!r}")
    if power_exceeds(base, exp, MAX_Q):
        raise DomainError(f"q = {text.strip()} exceeds cap {MAX_Q}")
    primes = factor_int(base ** exp)
    if len(primes) != 1:
        raise ParseError(f"--field must be a prime power, got {text!r}")
    ((p, deg),) = primes.items()
    return make_context(p, deg)


def _radical_from_args(args):
    ctx = context_from_field(args.field)
    gamma = parse_element(ctx, args.gamma)
    D = parse_poly(ctx, args.poly)
    return radical_extension(ctx, args.n, gamma, D, args.base_constants)


# ------------------------------------------------------------------- commands


def cmd_factor(args):
    ctx = context_from_field(args.field)
    fac = factor(parse_poly(ctx, args.poly))
    unit = render_element(fac.unit)
    payload = {"unit": unit,
               "factors": [{"poly": render_poly(g), "mult": m} for g, m in fac.factors]}
    parts = [f"({render_poly(g)})" + (f"^{m}" if m > 1 else "")
             for g, m in fac.factors]
    if unit != "1" or not parts:
        parts.insert(0, unit)
    return payload, " * ".join(parts), 0


def cmd_phi(args):
    ctx = context_from_field(args.field)
    value = euler_phi(parse_poly(ctx, args.poly))
    return {"phi": value}, str(value), 0


def cmd_carlitz(args):
    ctx = context_from_field(args.field)
    rho = carlitz_action(parse_poly(ctx, args.poly))
    coeffs = [render_poly(c) for c in rho]
    text = "\n".join(f"u^(q^{j}): {c}" for j, c in enumerate(coeffs))
    return {"coeffs": coeffs}, text, 0


# analyze renders radical profiles only: their places are tame and carry P
def _profile_payload(profile):
    return {
        "q": profile.q,
        "s": profile.s,
        "finite": [
            {
                "poly": render_poly(pl.P),
                "deg": pl.deg,
                "e": list(pl.e_list),
                "e_P": pl.e_P,
                "u": pl.u_P,
                "e0": pl.e0,
            }
            for pl in profile.finite
        ],
        "infinity": [{"e": e, "t": t} for e, t in profile.infinity],
        "e_inf": profile.e_inf,
        "t0": profile.t0,
        "geometric": profile.geometric,
    }


def _profile_text(profile):
    lines = [f"q = {profile.q}, s = {profile.s}"]
    if profile.finite:
        lines.append("ramified finite places:")
        for pl in profile.finite:
            lines.append(f"  {render_poly(pl.P)}: e = {pl.e_P}")
    else:
        lines.append("ramified finite places: none")
    for e, t in profile.infinity:
        lines.append(f"infinite prime: e = {e}, t = {t}")
    lines.append(f"e_inf = {profile.e_inf}")
    lines.append(f"t0 = {profile.t0}")
    lines.append(f"geometric: {str(profile.geometric).lower()}")
    return "\n".join(lines)


def cmd_analyze(args):
    profile = build_profile(_radical_from_args(args))
    return _profile_payload(profile), _profile_text(profile), 0


def _load_profile(path):
    import json  # imported by its users only, off the start-up path of text output

    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise DomainError(f"cannot read profile file: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or an int too long to convert
        raise DomainError(f"profile file is not valid JSON: {exc}") from exc
    except RecursionError:
        raise DomainError("profile file nests too deeply to read") from None
    return profile_from_dict(data)


def cmd_genus(args):
    if args.profile is not None:
        if (args.field, args.poly, args.gamma, args.n).count(None) < 4 or args.base_constants != 1:
            raise ParseError("--profile replaces --field/--poly/--gamma/--n/--base-constants")
        report = genus_report_abstract(_load_profile(args.profile))
    else:
        if not args.field:
            raise ParseError("genus needs --field unless --profile is given")
        if not (args.poly and args.gamma and args.n is not None):
            raise ParseError("genus needs --poly, --gamma and --n (or --profile)")
        report = genus_report(_radical_from_args(args))
    return report_json(report), render_report(report), 0


# most elements or candidates an oracle-verify check enumerates: the t0 check
# scans a splitting field (q <= 25 stays within it; F_27^4 would take minutes),
# the splitting check trial-divides X^n - c at q places, q^(n//2 + 1) in all
ENUM_BUDGET = 1 << 16


def cmd_oracle_verify(args):
    missing = (args.poly, args.gamma, args.n).count(None)
    if missing and (missing < 3 or args.base_constants != 1):
        raise ParseError("oracle-verify takes all of --poly, --gamma and --n, "
                         "or none of them and no --base-constants")
    ctx = context_from_field(args.field)
    rng = random.Random(SWEEP_SEED)
    checks = []

    def run(name, fn):
        ok = fn()
        checks.append({"name": name, "ok": None if ok is None else bool(ok)})

    def check_factor():
        for _ in range(20):
            deg = rng.randrange(1, 5)
            ints = [rng.randrange(ctx.q) for _ in range(deg)] + [rng.randrange(1, ctx.q)]
            f = FqPoly.from_ints(ctx, ints)
            if naive_factor(f) != factor(f):
                return False
        return True

    def check_phi():
        if ctx.q > MAX_UNIT_COUNT_Q:
            return None
        return all(unit_count(m) == euler_phi(m)
                   for d in (1, 2) for m in monic_polys(ctx, d))

    def check_carlitz():
        T = FqPoly.x(ctx)
        one = FqPoly.const(ctx, ctx.one())
        pairs = ((T, T), (T + one, T), (T * T + one, T + one))
        return all(carlitz_compose_check(M, N) for M, N in pairs)

    def check_t0():
        cases = [(ctx.from_int(g), d) for d in range(1, 7) if d % ctx.p
                 for g in (1, ctx.q - 1)]
        # the oracle scans every element of the field holding the roots
        if any(root_field_degree(gamma, d, ENUM_BUDGET) is None for gamma, d in cases):
            return None
        return all(t0_root_degrees(gamma, d) == t0_radical(gamma, d, 1) for gamma, d in cases)

    run("naive_factor vs factor", check_factor)
    run("unit_count vs euler_phi", check_phi)
    run("carlitz composition laws", check_carlitz)
    run("t0_root_degrees vs t0_radical", check_t0)

    if not missing:
        # constants change no ramification at finite places, and X^n - gamma*D
        # irreducible over F_{q^S}(T) is irreducible over F_q(T): check K over F_q(T)
        K = _radical_from_args(args)._replace(s=1)

        def check_splitting():
            if power_exceeds(ctx.q, K.n // 2 + 1, ENUM_BUDGET):
                return None
            expected = dict(ram_finite(K))
            for P in monic_polys(ctx, 1):
                e, degs = splitting_at_finite(K, P)
                if e != expected.get(P, 1):
                    return False
                if e == 1 and sum(degs) != K.n:
                    return False
            return True

        run("splitting_at_finite vs ram_finite", check_splitting)

    failed = [c for c in checks if c["ok"] is False]
    lines = []
    for c in checks:
        tag = "skip" if c["ok"] is None else ("ok" if c["ok"] else "FAIL")
        lines.append(f"{tag:4s} {c['name']}")
    lines.append("all checks passed" if not failed else f"{len(failed)} check(s) failed")
    payload = {"checks": checks, "ok": not failed}
    return payload, "\n".join(lines), 0 if not failed else 1


# --------------------------------------------------------------------- parser


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # one `error:` line and exit 2, not the usage text
        raise ParseError(message)


def build_parser():
    ap = _ArgumentParser(
        prog="ffgenus",
        description="ramification and genus field reports for radical "
                    "extensions of F_q(T)")
    sub = ap.add_subparsers(dest="command", required=True, metavar="command")

    def common(p, handler):
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.set_defaults(handler=handler)

    def radical_flags(p, required):
        p.add_argument("--poly", required=required,
                       help="squarefull part D of the radicand (monic)")
        p.add_argument("--gamma", required=required,
                       help="unit gamma of the radicand gamma*D")
        p.add_argument("--n", type=int, required=required,
                       help="root exponent, prime to p and to q-1's char")
        p.add_argument("--base-constants", type=int, default=1, metavar="S",
                       help="work over F_{q^S}(T) (default 1)")

    p = sub.add_parser("factor", help="factor a polynomial over F_q")
    p.add_argument("--field", required=True, help="base field: p, p^m, or q")
    p.add_argument("--poly", required=True)
    common(p, cmd_factor)

    p = sub.add_parser("phi", help="unit count of F_q[T]/M")
    p.add_argument("--field", required=True)
    p.add_argument("--poly", required=True, help="the modulus M")
    common(p, cmd_phi)

    p = sub.add_parser("carlitz", help="coefficients of the Carlitz action of M")
    p.add_argument("--field", required=True)
    p.add_argument("--poly", required=True, help="the multiplier M")
    common(p, cmd_carlitz)

    p = sub.add_parser("analyze", help="ramification profile of k((gamma*D)^(1/n))")
    p.add_argument("--field", required=True)
    radical_flags(p, required=True)
    common(p, cmd_analyze)

    p = sub.add_parser("genus", help="genus field report (radical or --profile)")
    p.add_argument("--field", help="base field (radical mode)")
    radical_flags(p, required=False)
    p.add_argument("--profile", metavar="FILE",
                   help="JSON ramification profile for the abstract path")
    common(p, cmd_genus)

    p = sub.add_parser("oracle-verify", help="run brute-force cross-checks")
    p.add_argument("--field", required=True)
    radical_flags(p, required=False)
    common(p, cmd_oracle_verify)

    return ap


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        payload, text, code = args.handler(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.format == "json":
        import json

        text = json.dumps(payload, indent=2)
    try:  # one write: a reader such as `head` cannot leave between two
        sys.stdout.write(text + "\n")
        sys.stdout.flush()
    except BrokenPipeError:  # the reader has gone and wants no more: end quietly
        # the null device takes the interpreter's own flush at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
