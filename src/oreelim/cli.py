"""Command-line front end: eliminate, bench, verify.

Exit codes: 0 ok, 2 usage, 3 parse error, 4 math-domain error, 5 internal
assertion.  Errors are printed to stderr as ``error[<code>]: message`` with
the machine-readable code in brackets.  The ``--seed`` flag (or the
ORE_ELIM_SEED environment variable) makes the random inputs of ``bench``
reproducible; ``eliminate`` accepts it and ignores it.  ``--threads N`` is
accepted for compatibility and ignored: both methods run in one thread.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import random
import sys
import time

from .errors import OreError
from .modres import res_x2_modular
from .parsing import make_rings, parse_bivar_poly, parse_field_spec
from .resultant import res_x2_direct


def _now_us():
    return time.perf_counter_ns() // 1_000


def _resolve_seed(args):
    if args.seed is not None:
        return args.seed
    return int(os.environ.get("ORE_ELIM_SEED", "0"))


def _run_method(name, f, g):
    t0 = _now_us()
    if name == "direct":
        det = res_x2_direct(f, g)
    else:
        det = res_x2_modular(f, g)
    micros = _now_us() - t0
    return det, micros


def _result_dict(det, micros):
    return {
        "eliminant": det.rep.text("x1"),
        "degree": None if det.is_zero else det.degree,
        "is_zero": det.is_zero,
        "micros": micros,
    }


def cmd_eliminate(args):
    ctx = parse_field_spec(args.field)
    ring = make_rings(ctx, args.sigma1, args.sigma2)
    f = parse_bivar_poly(args.f, ring)
    g = parse_bivar_poly(args.g, ring)
    methods = ["direct", "modular"] if args.method == "both" else [args.method]
    results = {}
    dets = {}
    for name in methods:
        det, micros = _run_method(name, f, g)
        dets[name] = det
        results[name] = _result_dict(det, micros)
    agree = None
    if len(methods) == 2:
        agree = dets["direct"].rep == dets["modular"].rep
    if args.json:
        payload = {
            "field": ctx.spec_string(),
            "sigma1": ring.sigma1.e,
            "sigma2": ring.sigma2.e,
            "f": f.text(),
            "g": g.text(),
            "method": args.method,
            "results": results,
        }
        if agree is not None:
            payload["agree"] = agree
        print(json.dumps(payload, indent=2))
    else:
        for name in methods:
            r = results[name]
            degree = "-inf" if r["degree"] is None else r["degree"]
            print(
                f"method={name} eliminant={r['eliminant']} degree={degree} "
                f"is_zero={str(r['is_zero']).lower()} micros={r['micros']}"
            )
        if agree is not None:
            print(f"agree={str(agree).lower()}")
    return 0


def _random_bivar(ring, rng, deg_x2, deg_x1):
    q = ring.ctx.q
    coeffs = []
    for _ in range(deg_x2 + 1):
        width = rng.randrange(deg_x1 + 1) + 1
        coeffs.append(ring.inner.from_packed([rng.randrange(q) for _ in range(width)]))
    while coeffs[-1].is_zero:
        coeffs[-1] = ring.inner.from_packed(
            [rng.randrange(q) for _ in range(deg_x1 + 1)]
        )
    return ring.poly(coeffs)


def cmd_bench(args):
    if args.trials < 1:
        print("error[usage]: --trials must be >= 1", file=sys.stderr)
        return 2
    if args.deg_x1 < 0 or args.deg_x2 < 0:
        print("error[usage]: --deg-x1 and --deg-x2 must be >= 0", file=sys.stderr)
        return 2
    try:
        seed = _resolve_seed(args)
    except ValueError:
        print("error[usage]: ORE_ELIM_SEED must be an integer", file=sys.stderr)
        return 2
    ctx = parse_field_spec(args.field)
    ring = make_rings(ctx, args.sigma1, args.sigma2)
    rng = random.Random(seed)
    writer = csv.writer(sys.stdout)
    writer.writerow(["trial", "method", "micros", "degree", "is_zero", "verdict"])
    all_ok = True
    for trial in range(args.trials):
        f = _random_bivar(ring, rng, args.deg_x2, args.deg_x1)
        g = _random_bivar(ring, rng, args.deg_x2, args.deg_x1)
        dets = {}
        micros = {}
        for name in ("direct", "modular"):
            det, us = _run_method(name, f, g)
            dets[name] = det
            micros[name] = us
        verdict = "ok" if dets["direct"].rep == dets["modular"].rep else "mismatch"
        all_ok = all_ok and verdict == "ok"
        for name in ("direct", "modular"):
            det = dets[name]
            degree = "-inf" if det.is_zero else det.degree
            writer.writerow(
                [trial, name, micros[name], degree, str(det.is_zero).lower(), verdict]
            )
    # disagreement between the two methods is an internal invariant violation
    return 0 if all_ok else 5


def _find_acceptance_tests():
    candidates = []
    here = os.getcwd()
    for _ in range(4):
        candidates.append(os.path.join(here, "tests", "test_acceptance.py"))
        here = os.path.dirname(here)
    pkg_root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    candidates.append(os.path.join(pkg_root, "tests", "test_acceptance.py"))
    for cand in candidates:
        if os.path.exists(cand):
            return cand
    return None


def cmd_verify(args):
    path = _find_acceptance_tests()
    if path is None:
        print(
            "error[verify]: tests/test_acceptance.py not found; "
            "run from a source checkout",
            file=sys.stderr,
        )
        return 2
    import pytest

    return pytest.main(["-v", path])


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="ore-elim",
        description="Eliminate x2 from a pair of bivariate Ore polynomials "
        "over a finite field.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, need_fg):
        p.add_argument("--field", required=True, help="e.g. 'GF(2^8)' or "
                       "'GF(2^2; modulus = 1 + t + t^2)'")
        p.add_argument("--sigma1", type=int, default=0, metavar="E",
                       help="Frobenius exponent of sigma1 (default 0)")
        p.add_argument("--sigma2", type=int, default=0, metavar="E",
                       help="Frobenius exponent of sigma2 (default 0)")
        if need_fg:
            p.add_argument("--f", required=True, help="first polynomial, e.g. 'x2 - x1'")
            p.add_argument("--g", required=True, help="second polynomial")
        p.add_argument("--seed", type=int, default=None,
                       help="RNG seed for bench's random inputs (fallback: "
                       "ORE_ELIM_SEED, then 0); eliminate ignores it")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted for compatibility and ignored")

    pe = sub.add_parser("eliminate", help="compute the eliminant of f and g")
    add_common(pe, need_fg=True)
    pe.add_argument("--method", choices=("direct", "modular", "both"), default="both")
    pe.add_argument("--json", action="store_true", help="emit JSON instead of text")
    pe.set_defaults(func=cmd_eliminate)

    pb = sub.add_parser("bench", help="time direct vs modular on random inputs")
    add_common(pb, need_fg=False)
    pb.add_argument("--trials", type=int, required=True)
    pb.add_argument("--deg-x1", type=int, default=2, dest="deg_x1")
    pb.add_argument("--deg-x2", type=int, default=2, dest="deg_x2")
    pb.set_defaults(func=cmd_bench)

    pv = sub.add_parser("verify", help="run the acceptance suite")
    pv.set_defaults(func=cmd_verify)

    return parser


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except OreError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return exc.exit_code
    except Exception as exc:  # pragma: no cover - internal assertion surface
        print(f"error[internal]: {exc!r}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
