"""Batch front-end: validate | quiver | strings | classify | ar | verify |
extend | reduce, all emitting deterministic machine-readable artifacts."""

import argparse
import hashlib
import json
import sys

from . import __version__
from .defining_system import (AdmissibleVertex, NotAdmissible, from_json,
                              reduce_to_fundamental, extend as extend_ds)
from .field import DEFAULT_PRIME, PrimeField
from .quiver import build_quiver, build_relations, relations_to_json
from .strings import WordCalculus
from .string_modules import DEFAULT_LAMBDAS, StringModules
from .algebra import AlgebraBasis, NonStabilizing
from .homlab import ArVerifier


def _provenance(ds):
    return {
        "tool": "tworay",
        "version": __version__,
        "system": ds.to_json_obj(),
        "system_sha256": hashlib.sha256(ds.to_json().encode()).hexdigest(),
    }


def _dump(obj):
    print(json.dumps(obj, sort_keys=True, indent=2, default=repr))


def _load_system(path):
    with open(path, encoding="utf-8") as fh:
        return from_json(fh.read())


def _input_error(what) -> int:
    """Print an input error as JSON; its exit status, 2."""
    if isinstance(what, Exception):
        what = f"{type(what).__name__}: {what}"
    print(json.dumps({"error": what}))
    return 2


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="tworay",
        description="defining systems, their bound quiver algebras, and the "
                    "classification of their modules",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("validate", help="check the defining-system invariants")
    sp.add_argument("input")

    sp = sub.add_parser("quiver", help="emit the bound quiver and relations")
    sp.add_argument("input")
    sp.add_argument("--dot", action="store_true", help="DOT instead of JSON")

    sp = sub.add_parser("strings", help="enumerate strings with family tags")
    sp.add_argument("input")
    sp.add_argument("--max-len", type=int, required=True)

    sp = sub.add_parser("classify", help="bounded classification inventory")
    sp.add_argument("input")
    sp.add_argument("--max-dim", type=int, required=True)
    sp.add_argument("--lambda", dest="lam", default=None,
                    help="comma-separated band parameters, none 0 mod p "
                         "(default: 2,3,5 reduced mod p, zeros dropped)")
    sp.add_argument("--field", type=int, default=DEFAULT_PRIME)

    sp = sub.add_parser("ar", help="instantiate the almost-split sequence rows")
    sp.add_argument("input")
    sp.add_argument("--max-dim", type=int, required=True)
    sp.add_argument("--field", type=int, default=DEFAULT_PRIME)

    sp = sub.add_parser("verify", help="full verification report")
    sp.add_argument("input")
    sp.add_argument("--max-dim", type=int, required=True)
    sp.add_argument("--field", type=int, default=DEFAULT_PRIME)
    sp.add_argument("--lambda", dest="lam", default=None)
    sp.add_argument("--lemma-len", type=int, default=None,
                    help="string length for the functor pattern checks")
    sp.add_argument("--from-inventory", default=None,
                    help="classify output to replay; verdicts must agree")

    sp = sub.add_parser("extend", help="apply one admissible insertion")
    sp.add_argument("input")
    sp.add_argument("--vertex", required=True, help="KIND:I:J, e.g. x:1:2")

    sp = sub.add_parser("reduce", help="decompose into fundamental + chain")
    sp.add_argument("input")

    args = ap.parse_args(argv)

    for name in ("max_dim", "max_len", "lemma_len"):
        if (getattr(args, name, None) or 0) < 0:
            return _input_error(f"--{name.replace('_', '-')} must be "
                                f"nonnegative")
    try:
        ds = _load_system(args.input)
    except (OSError, ValueError) as exc:  # bad UTF-8, JSON or system
        return _input_error(exc)

    if args.cmd == "validate":
        _dump({"provenance": _provenance(ds), "valid": True})
        return 0

    if args.cmd == "extend":
        try:
            v = AdmissibleVertex.parse(args.vertex)
            out = extend_ds(ds, v)
        except (ValueError, NotAdmissible) as exc:
            return _input_error(exc)
        _dump({"provenance": _provenance(ds), "vertex": str(v),
               "extended": out.to_json_obj()})
        return 0

    if args.cmd == "reduce":
        fund, chain = reduce_to_fundamental(ds)
        _dump({"provenance": _provenance(ds),
               "fundamental": fund.to_json_obj(),
               "chain": [str(v) for v in chain]})
        return 0

    quiver = build_quiver(ds)
    relations = build_relations(ds, quiver)

    if args.cmd == "quiver":
        if args.dot:
            sys.stdout.write(quiver.to_dot())
        else:
            _dump({
                "provenance": _provenance(ds),
                "vertices": quiver.vertices,
                "arrows": {a: [quiver.source[a], quiver.target[a]]
                           for a in quiver.arrows},
                "q1_primed": sorted(quiver.primed),
                "relations": json.loads(relations_to_json(relations)),
            })
        return 0

    calc = WordCalculus(quiver)

    if args.cmd == "strings":
        sx_of = {}
        for x in quiver.q0_primed():
            for w in calc.s_x(x, args.max_len):
                sx_of.setdefault(w, []).append(x)
        sprime = set(calc.s_prime(args.max_len))
        items = []
        for w in calc.all_strings(args.max_len):
            items.append({
                "word": calc.to_json_obj(w),
                "terminates_at": calc.terminus(w),
                "starts_at": calc.source(w),
                "length": w.length,
                "in_s_x_of": sorted(sx_of.get(w, [])),
                "in_s_prime": w in sprime,
            })
        bands = [{"name": n, "word": calc.to_json_obj(b)}
                 for n, b in calc.bands()]
        _dump({"provenance": _provenance(ds), "max_len": args.max_len,
               "strings": items, "bands": bands})
        return 0

    try:
        field = PrimeField(args.field)
    except ValueError as exc:
        return _input_error(exc)
    lam = DEFAULT_LAMBDAS  # reduced mod p by StringModules, zeros dropped
    if getattr(args, "lam", None) is not None:
        try:
            lam = tuple(int(x) for x in args.lam.split(","))
        except ValueError as exc:
            return _input_error(f"--lambda: {exc}")
        if any(l % field.p == 0 for l in lam):
            return _input_error("lambda sample must avoid 0 in k*")
    modules = StringModules(calc, field, lam)

    if args.cmd == "classify":
        entries = modules.theorem_inventory(args.max_dim)
        _dump({
            "provenance": _provenance(ds),
            "max_dim": args.max_dim,
            "field": field.p,
            "lambda_sample": sorted(modules.lams),
            "entries": [{"family": e.tag, "params": repr(e.params),
                         "dim": e.rep.total_dim,
                         "dim_vector": {v: d for v, d in
                                        e.rep.dim_vector().items() if d}}
                        for e in entries],
        })
        return 0

    try:
        algebra = AlgebraBasis(quiver, relations, field)
    except NonStabilizing as exc:  # a path space too large to hold
        return _input_error(exc)

    if args.cmd == "ar":
        ver = ArVerifier(modules, algebra)
        rows = ver.rows(args.max_dim)
        _dump({
            "provenance": _provenance(ds),
            "max_dim": args.max_dim,
            "rows": [{"family": r["family"], "key": repr(r["key"]),
                      "left": repr(r["left"]), "middle": repr(r["middle"]),
                      "right": repr(r["right"]),
                      "right_dim": r["right_dim"],
                      "middle_dim": r["middle_dim"]} for r in rows],
        })
        return 0

    if args.cmd == "verify":
        want = None
        if args.from_inventory:
            try:  # a classify output: (family, params, dim) per entry
                with open(args.from_inventory, encoding="utf-8") as fh:
                    want = [(e["family"], e["params"], e["dim"])
                            for e in json.load(fh)["entries"]]
            except (OSError, ValueError, KeyError, TypeError) as exc:
                return _input_error(exc)
        ver = ArVerifier(modules, algebra)
        report = ver.verify(args.max_dim, args.lemma_len)
        failures = list(report["failures"])
        inventory_replayed = None
        if want is not None:
            have = [(e.tag, repr(e.params), e.rep.total_dim)
                    for e in ver.inventory]
            inventory_replayed = want == have
            if not inventory_replayed:
                failures.append("stored inventory does not replay")
        _dump({
            "provenance": _provenance(ds),
            "max_dim": args.max_dim,
            "field": field.p,
            "well_defined": report["well_defined"],
            "all_indecomposable": report["all_indecomposable"],
            "inventory_replayed": inventory_replayed,
            "ar": {k: report[k] for k in ("rows_enumerated", "rows_checked",
                                          "inventory_size", "coverage")},
            "ar_rows": report["rows"],
            "lemma_checks": report["lemma_checks"],
            "failures": failures,
        })
        return 0 if not failures else 1

    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
