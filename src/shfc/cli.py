"""Command-line interface.

Exit codes: 0 success / all suite instances pass, 1 verification failure
(a failing suite instance, or a refused certificate), 2 usage or parse
errors, 3 internal error (a result failed an internal consistency check,
or the run hit RecursionError or MemoryError: a bug or a resource limit of
shfc, not a failed verification). JSON goes to stdout; diagnostics to
stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from .cohomology import cohomology_table
from .constructions import (
    direct_sum,
    koszul_kernel,
    omega,
    q_power_pullback,
    sym_power,
    tensor,
    twist,
)
from .invariants import LocalFreenessError, beilinson_e1, level, phi_certificate, sheaf_regularity
from .moduleio import dump_module, load_module, save_module
from .resolutions import MINUS_INFINITY, betti_table
from .rings import AlgebraError, InternalError, Ring
from .suites import DEFAULT_CHAR, DEFAULT_SEED, SUITES, verify_key_theorem


def _compact(obj):
    return json.dumps(obj, separators=(",", ":"))


def _reg_json(value):
    return "-inf" if value == MINUS_INFINITY else value


def _parse_twists(text):
    lo, sep, hi = text.partition(":")
    if not sep:
        raise ValueError(f"twists must look like a:b, got {text!r}")
    return int(lo), int(hi)


def _emit_module(pres, out):
    if out:
        save_module(pres, out)
    else:
        print(dump_module(pres))


def build_parser():
    parser = argparse.ArgumentParser(
        prog="shfc",
        description="Exact sheaf cohomology, regularity, and level on projective space.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def module_cmd(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--module", required=True, help="module JSON file")
        return p

    p = module_cmd("cohomology", "cohomology table over a twist window")
    p.add_argument("--twists", required=True, help="window a:b (inclusive)")
    p.add_argument("--format", choices=["json", "table"], default="json")

    module_cmd("betti", "Betti table of the minimal free resolution")
    module_cmd("reg", "Castelnuovo-Mumford regularity of the sheafification")
    module_cmd("level", "level invariant with witnesses")
    module_cmd("phicert", "certified Frobenius-amplitude bound (locally free only)")
    p = module_cmd("beilinson", "Beilinson first-page table")
    p.add_argument("--format", choices=["json", "table"], default="json")

    c = sub.add_parser("construct", help="build a module file from others")
    csub = c.add_subparsers(dest="construction", required=True)

    def construct_cmd(name, help_text, ring_args=False):
        p = csub.add_parser(name, help=help_text)
        if ring_args:
            p.add_argument("--char", type=int, required=True, help="field characteristic")
            p.add_argument("--dim", type=int, required=True, help="projective dimension n")
        else:
            p.add_argument("--module", required=True)
        p.add_argument("--out", help="output path (default: stdout)")
        return p

    construct_cmd("twist", "twist by O(e)").add_argument("--e", type=int, required=True)
    construct_cmd("sum", "direct sum with a second module").add_argument("--other", required=True)
    construct_cmd("tensor", "tensor with a second module").add_argument("--other", required=True)
    construct_cmd("sym", "symmetric power").add_argument("--power", type=int, required=True)
    construct_cmd("qpow", "q-power pullback").add_argument("--q", type=int, required=True)
    construct_cmd("koszulR", "Koszul kernel sheaf R_m", ring_args=True).add_argument(
        "--m", type=int, required=True
    )
    construct_cmd("omega", "sheaf of p-forms Omega^p", ring_args=True).add_argument(
        "--p", type=int, required=True
    )

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("suite", choices=sorted(SUITES))
    v.add_argument("--seed", type=int, default=DEFAULT_SEED)
    v.add_argument("--char", type=int, default=None)
    v.add_argument("--dim", type=int, default=2)
    return parser


def _run(args):
    if args.command == "cohomology":
        pres = load_module(args.module)
        lo, hi = _parse_twists(args.twists)
        table = cohomology_table(pres, lo, hi)
        print(table.to_ascii() if args.format == "table" else _compact(table.to_json_dict()))
        return 0
    if args.command == "betti":
        pres = load_module(args.module)
        betti = betti_table(pres)
        rows = [[i, j, c] for (i, j), c in sorted(betti.entries.items())]
        print(_compact({"betti": rows, "regularity": _reg_json(betti.regularity())}))
        return 0
    if args.command == "reg":
        pres = load_module(args.module)
        print(_compact({"regularity": _reg_json(sheaf_regularity(pres))}))
        return 0
    if args.command == "level":
        pres = load_module(args.module)
        print(_compact(level(pres).to_json_dict()))
        return 0
    if args.command == "phicert":
        pres = load_module(args.module)
        try:
            cert = phi_certificate(pres)
        except LocalFreenessError as exc:
            print(f"shfc phicert: {exc}", file=sys.stderr)
            return 1
        print(_compact(cert.to_json_dict()))
        return 0
    if args.command == "beilinson":
        pres = load_module(args.module)
        table = beilinson_e1(pres)
        print(table.to_ascii() if args.format == "table" else _compact(table.to_json_dict()))
        return 0
    if args.command == "construct":
        return _run_construct(args)
    if args.command == "verify":
        suite = SUITES[args.suite]
        kwargs = {"dim": args.dim, "seed": args.seed}
        if suite is verify_key_theorem:
            kwargs["char"] = args.char if args.char is not None else 2
            if args.dim not in (1, 2):
                print("shfc verify: key-theorem runs on dim 1 or 2", file=sys.stderr)
                return 2
        else:
            kwargs["char"] = args.char if args.char is not None else DEFAULT_CHAR
        report = suite(**kwargs)
        print(report.to_json())
        return 0 if report.all_pass else 1
    raise InternalError(f"unhandled command {args.command}")


def _run_construct(args):
    kind = args.construction
    if kind in ("koszulR", "omega"):
        ring = Ring(args.char, args.dim + 1)
        if kind == "koszulR":
            _emit_module(koszul_kernel(ring, args.m), args.out)
        else:
            _emit_module(omega(ring, args.p), args.out)
        return 0
    pres = load_module(args.module)
    if kind == "twist":
        out = twist(pres, args.e)
    elif kind == "sum":
        out = direct_sum(pres, load_module(args.other))
    elif kind == "tensor":
        out = tensor(pres, load_module(args.other))
    elif kind == "sym":
        out = sym_power(pres, args.power)
    elif kind == "qpow":
        out = q_power_pullback(pres, args.q)
    else:
        raise InternalError(f"unhandled construction {kind}")
    _emit_module(out, args.out)
    return 0


def _merge_twists(argv):
    """Rewrite ["--twists", "-3:1"] as ["--twists=-3:1"] so argparse does
    not mistake a window starting with a negative twist for a flag."""
    merged = []
    i = 0
    while i < len(argv):
        if argv[i] == "--twists" and i + 1 < len(argv):
            merged.append(f"--twists={argv[i + 1]}")
            i += 2
        else:
            merged.append(argv[i])
            i += 1
    return merged


def main(argv=None):
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_merge_twists(list(argv)))
        # argparse before Python 3.13 reads "--flag=--" as [], skipping type=
        if any(isinstance(value, list) for value in vars(args).values()):
            parser.error("'--' is not a flag value")
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return _run(args)
    except (AlgebraError, ValueError, OSError) as exc:
        print(f"shfc: {exc}", file=sys.stderr)
        return 2
    except InternalError as exc:
        print(f"shfc: internal error: {exc}", file=sys.stderr)
        return 3
    except (RecursionError, MemoryError) as exc:
        print(f"shfc: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
