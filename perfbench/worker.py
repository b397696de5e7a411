"""One repetition of one benchmark workload, in a fresh interpreter.

Run from the repository root, with the package on the path:

    PYTHONPATH=src python3 perfbench/worker.py --workload ex14-rows --seed 1 \
        [--check] [--trace] [--setup-only]

It builds the defining system (the set-up), runs the workload once (the run)
while ``reference.py`` samples the machine's speed, and prints one JSON line:
when the set-up ended on the monotonic clock, the run's wall and CPU seconds
without the sampler's, the reference's samples, the process's peak RSS, and
the sha256 of the workload's report.  ``--check`` then runs the independent
checks on the outputs.  ``--trace`` wraps the package's functions, without
the sampler, adds per-layer figures and writes the spans to
``.perfbench/spans-<workload>.json``.
"""

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent

# name -> (system file, bound, kind); the systems are the regression systems
# of the package's test suite
WORKLOADS = {
    "ex14-rows": ("ex14.json", 8, "verify"),
    "tsys-deep": ("tsys.json", 20, "verify"),
    "ex14-certify": ("ex14.json", 16, "certify"),
}


class Built:
    """The defining system and everything the set-up builds on it."""

    def __init__(self, tworay, path):
        self.path = path
        with open(path) as fh:
            self.ds = tworay.validate(json.load(fh))
        self.quiver = tworay.build_quiver(self.ds)
        self.relations = tworay.build_relations(self.ds, self.quiver)
        self.calc = tworay.WordCalculus(self.quiver)
        self.modules = tworay.StringModules(self.calc)
        self.algebra = tworay.AlgebraBasis(self.quiver, self.relations,
                                           self.modules.field)


# -- the workloads --------------------------------------------------------------


def run_verify(tworay, built, bound):
    """`tworay verify SYSTEM --max-dim BOUND`, in process, stdout captured.

    The verifier and the rows it enumerated are kept for the certificate
    check; capturing them costs one extra call frame."""
    from tworay import cli, homlab

    seen = {}
    rows = homlab.ArVerifier.__dict__["rows"]

    def capture_rows(self, b):
        out = rows(self, b)
        seen["verifier"], seen["rows"] = self, out
        return out

    homlab.ArVerifier.rows = capture_rows
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(["verify", str(built.path), "--max-dim", str(bound)])
    finally:
        homlab.ArVerifier.rows = rows
    return {"text": buf.getvalue(), "rc": rc, **seen}


def run_certify(tworay, built, bound):
    """The library calls of the README: inventory, relations and
    indecomposability of every entry, isomorphism of every pair of entries
    with the same dimension vector."""
    inventory = built.modules.theorem_inventory(bound)
    relations = [tworay.check_relations(e.rep, built.relations)
                 for e in inventory]
    verdicts = [tworay.is_indecomposable(e.rep) for e in inventory]
    groups = {}
    for i, e in enumerate(inventory):
        groups.setdefault(e.rep.dim_tuple(), []).append(i)
    pairs = [pair for members in groups.values()
             for pair in itertools.combinations(members, 2)]
    iso = [tworay.is_isomorphic(inventory[i].rep, inventory[j].rep,
                                both_local=True).isomorphic
           for i, j in pairs]
    text = json.dumps({
        "entries": [[repr(e.key), len(r), v.status]
                    for e, r, v in zip(inventory, relations, verdicts)],
        "pairs": [[repr(inventory[i].key), repr(inventory[j].key), bool(b)]
                  for (i, j), b in zip(pairs, iso)],
    }, indent=1, sort_keys=True) + "\n"
    return {"text": text, "rc": 0, "inventory": inventory,
            "relations": relations, "verdicts": verdicts, "pairs": pairs,
            "iso": iso}


# -- checks ------------------------------------------------------------------------


def check_structure(tally, built, name):
    if name.startswith("ex14"):
        import checks

        got = checks.structure_of(built.quiver, built.relations)
        tally.check(got == checks.EX14_STRUCTURE,
                    f"ex14 structure {got} != {checks.EX14_STRUCTURE}")


def check_verify(tally, built, out, bound, rng):
    import checks

    shape = checks.Shape.of(built.quiver)
    if not tally.check(out["rc"] == 0 and "verifier" in out,
                       f"verify exited with {out['rc']}: {out['text'][-500:]}"):
        return
    report = json.loads(out["text"])
    p = report["field"]
    tally.check(report["failures"] == [], f"failures: {report['failures'][:3]}")
    cov = report["ar"]["coverage"]
    tally.check(not cov["missing"] and not cov["multiple"],
                f"coverage missing {cov['missing'][:3]}, "
                f"multiple {cov['multiple'][:3]}")
    ver = out["verifier"]
    claimed = {json.dumps(list(r["key"])): r for r in out["rows"]
               if r["middle_dim"] <= bound}
    reported = {json.dumps(r["key"]): r for r in report["ar_rows"]}
    tally.check(set(claimed) == set(reported),
                "report rows differ from the enumerated rows")

    def module(atoms):
        return checks.direct_sum(shape, [checks.Module.of(shape, ver.atom_rep(a))
                                         for a in atoms])

    flippable = []
    for key, r in sorted(reported.items()):
        row = claimed.get(key)
        if row is None or r["certificate"] is None:
            tally.check(False, f"row {key} has no certificate")
            continue
        left, middle, right = (module(row["left"]), module(row["middle"]),
                               module(row["right"]))
        problems = checks.certificate_problems(left, middle, right,
                                               r["certificate"], p)
        tally.check(not problems and all(r["status"].values()),
                    f"row {key}: {problems or r['status']}")
        if checks.flip_one_entry(r["certificate"]) is not None:
            flippable.append((left, middle, right, r["certificate"]))
    # the certificate check must reject a certificate with one entry flipped
    ok = False
    if flippable:
        left, middle, right, cert = flippable[rng.integers(len(flippable))]
        ok = bool(checks.certificate_problems(
            left, middle, right, checks.flip_one_entry(cert), p))
    tally.check(ok, "a certificate with a flipped entry was accepted")


def check_certify(tally, built, out, rng):
    import checks
    import modp
    from tworay import homlab

    shape = checks.Shape.of(built.quiver)
    p = built.modules.field.p
    relations = [r.terms for r in built.relations]
    inventory = out["inventory"]
    mods = [checks.Module.of(shape, e.rep) for e in inventory]
    for e, m, rel, verdict in zip(inventory, mods, out["relations"],
                                  out["verdicts"]):
        bad = checks.violated_relations(shape, m, relations, p)
        tally.check(not bad and not rel, f"{e.key} violates {bad or rel}")
        basis = homlab.hom_basis(e.rep, e.rep)
        end = [{v: np.asarray(f[v]) for v in shape.vertices} for f in basis]
        ok = bool(end) and all(checks.is_intertwiner(m, m, f, p) for f in end)
        ok = ok and checks.local_by_sampling(m, end, rng, p, tries=1)
        tally.check(ok and verdict.status == "LOCAL",
                    f"{e.key}: End not local ({verdict.status})")
    for (i, j), iso in zip(out["pairs"], out["iso"]):
        fs = checks.hom_space(mods[i], mods[j], p)
        gs = checks.hom_space(mods[j], mods[i], p)
        nil = True
        if fs and gs:
            f = checks.random_element(fs, rng, p)
            g = checks.random_element(gs, rng, p)
            gf = {v: modp.matmul(g[v], f[v], p) for v in shape.vertices}
            nil = modp.is_nilpotent(checks.total_matrix(mods[i], gf), p)
        tally.check(nil and not iso,
                    f"{inventory[i].key} ~ {inventory[j].key}: "
                    f"composite nilpotent {nil}, claimed isomorphic {iso}")
    # Hom dimensions against the independent solver, on a seeded sample of
    # arbitrary pairs and of same-dimension-vector pairs
    sample = [tuple(rng.integers(len(inventory), size=2)) for _ in range(25)]
    sample += [out["pairs"][k] for k in rng.integers(len(out["pairs"]), size=25)]
    for i, j in sample:
        want = len(checks.hom_space(mods[i], mods[j], p))
        got = len(homlab.hom_basis(inventory[i].rep, inventory[j].rep))
        tally.check(got == want, f"dim Hom({inventory[i].key}, "
                    f"{inventory[j].key}) = {got}, independent {want}")
    # the checks must reject a relation-violating and a decomposable module
    tally.check(bool(checks.violating_module(shape, relations, p)),
                "a relation-violating module was accepted")
    e = inventory[int(rng.integers(len(inventory)))]
    double = e.rep.direct_sum(e.rep)
    end = homlab.hom_basis(double, double)
    tally.check(not checks.local_by_sampling(checks.Module.of(shape, double),
                                             end, rng, p),
                f"{e.key} + {e.key} passed as local")


# -- tracing -----------------------------------------------------------------------


def install_tracer(tracer, tworay):
    from tworay import algebra, cli, field, homlab, string_modules, strings, vsc

    mods = (tworay, cli, homlab, string_modules, vsc)
    counts, maxima = tracer.counts, tracer.maxima
    w = tracer.wrap

    def candidates(args, result, parent):
        if parent == "rows":
            counts["rows.candidates"] += len(result)

    def pairs(args, result, parent):
        counts["strings.pairs_p_x.pairs"] += len(result)
        candidates(args, result, parent)

    def rows_done(args, result, parent):
        counts["rows.emitted"] += len(result)
        counts["rows.anomalies"] += len(args[0].row_anomalies)

    def unknowns(args):
        M, N = args[0], args[1]
        n = sum(a * b for a, b in zip(M.dim_tuple(), N.dim_tuple()))
        maxima["hom_basis.max_unknowns"] = max(
            maxima["hom_basis.max_unknowns"], n)

    def iso_miss(args, result, parent):
        counts["find_iso.misses"] += result is None

    def atom_build(args):
        counts["atom_rep.builds"] += args[1] not in args[0]._rep_cache

    def cells(args):
        a = args[1]
        counts["field.rref.cells"] += a.shape[0] * a.shape[1]

    def entries(args, result, parent):
        maxima["inventory.entries"] = max(maxima["inventory.entries"],
                                          len(result))

    hooks = {"s_x": {"after": candidates}, "s_prime": {"after": candidates},
             "pairs_p_x": {"after": pairs}}
    skip = {"trivial", "terminus", "source", "word_key", "position_vertex"}
    for attr, fn in list(vars(strings.WordCalculus).items()):
        if callable(fn) and not attr.startswith("_") and attr not in skip:
            w(strings.WordCalculus, attr, f"strings.{attr}", "strings",
              **hooks.get(attr, {}))
    for attr in ("mat", "mul", "add", "sub", "scale", "rref", "rank",
                 "null_space", "column_space", "solve", "inv_matrix",
                 "is_zero", "charpoly"):
        w(field.PrimeField, attr, f"field.{attr}", "field",
          before=cells if attr == "rref" else None)
    for attr in ("hom_basis", "find_iso", "is_isomorphic",
                 "is_indecomposable", "realize_ses", "cokernel_rep",
                 "kernel_rep", "is_split", "ar_translate", "projective_cover",
                 "minimal_presentation", "is_nilpotent", "factor_charpoly",
                 "compose_maps"):
        w(homlab, attr, attr, "homlab",
          span=attr not in ("is_nilpotent", "compose_maps"), also=mods,
          before=unknowns if attr == "hom_basis" else None,
          after=iso_miss if attr == "find_iso" else None)
    w(homlab.ArVerifier, "verify", "verify", "homlab", span=True)
    w(homlab.ArVerifier, "rows", "rows", "homlab", span=True, after=rows_done)
    w(homlab.ArVerifier, "_match_tau", "match_tau", "homlab", span=True)
    w(homlab.ArVerifier, "atom_rep", "atom_rep", "homlab", before=atom_build)
    w(homlab.ArVerifier, "atom_indec", "atom_indec", "homlab")
    w(string_modules.StringModules, "theorem_inventory", "inventory",
      "string_modules", span=True, after=entries)
    for kind in ("M", "N", "L", "NCC", "R", "Qband"):
        w(string_modules.StringModules, f"construct_{kind}",
          f"modules.construct_{kind}", "string_modules")
    w(string_modules.Representation, "direct_sum", "modules.direct_sum",
      "string_modules")
    w(string_modules, "check_relations", "relations", "string_modules",
      span=True, also=mods)
    w(vsc, "hom_pattern_of_functor", "vsc.lemma", "vsc", span=True,
      also=mods)
    w(algebra.AlgebraBasis, "__init__", "algebra.build", "algebra", span=True)
    for attr in ("multiply", "projective_module"):
        w(algebra.AlgebraBasis, attr, f"algebra.{attr}", "algebra")
    w(cli, "main", "cli.main", "cli", span=True)
    w(cli, "_dump", "cli.report", "cli", span=True)


LAYERS = ("strings", "homlab", "field", "string_modules", "vsc", "algebra",
          "cli")


def layer_metrics(tracer, run_s, setup_algebra_s, report_bytes):
    calls, incl, self_s = tracer.calls, tracer.incl, tracer.self_s
    counts, maxima = tracer.counts, tracer.maxima
    cand = counts["rows.candidates"]
    m = {
        "strings.s": tracer.layer_incl["strings"],
        "strings.band_of.calls": calls["strings.band_of"],
        "strings.pairs_p_x.pairs": counts["strings.pairs_p_x.pairs"],
        "rows.s": incl["rows"],
        "rows.self_s": self_s["rows"],
        "rows.candidates": cand,
        "rows.emitted": counts["rows.emitted"],
        "rows.yield": counts["rows.emitted"] / cand if cand else 0.0,
        "rows.anomalies": counts["rows.anomalies"],
        "hom_basis.max_unknowns": maxima["hom_basis.max_unknowns"],
        "find_iso.misses": counts["find_iso.misses"],
        "atom_rep.calls": calls["atom_rep"],
        "atom_rep.builds": counts["atom_rep.builds"],
        "field.rref.calls": calls["field.rref"],
        "field.rref.s": incl["field.rref"],
        "field.rref.cells": counts["field.rref.cells"],
        "field.mul.calls": calls["field.mul"],
        "inventory.s": incl["inventory"],
        "inventory.entries": maxima["inventory.entries"],
        "modules.construct.calls": sum(
            calls[f"modules.construct_{k}"]
            for k in ("M", "N", "L", "NCC", "R", "Qband")),
        "relations.s": incl["relations"],
        "vsc.lemma.calls": calls["vsc.lemma"],
        "vsc.lemma.s": incl["vsc.lemma"],
        "algebra.s": setup_algebra_s + tracer.layer_incl["algebra"],
        "cli.report.s": incl["cli.report"],
        "cli.report_bytes": report_bytes,
        "trace.run_s": run_s,
    }
    for name in ("hom_basis", "find_iso", "is_indecomposable",
                 "is_isomorphic"):
        m[f"{name}.calls"] = calls[name]
    for name in ("hom_basis", "realize_ses", "find_iso", "cokernel_rep",
                 "is_split", "ar_translate", "is_indecomposable",
                 "is_isomorphic"):
        m[f"{name}.s"] = incl[name]
    for layer in LAYERS:
        m[f"self_s.{layer}"] = tracer.layer_self[layer]
    m["self_s.untraced"] = run_s - sum(tracer.layer_self[l] for l in LAYERS)
    return m


# -- main ----------------------------------------------------------------------------


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--check", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    system, bound, kind = WORKLOADS[args.workload]

    import tworay
    import tworay.cli  # noqa: F401  (the verify workloads enter here)

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        install_tracer(tracer, tworay)
    built = Built(tworay, HERE / "systems" / system)
    built_at = time.monotonic()
    result = {"built_at": built_at}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    setup_algebra_s = 0.0
    if tracer:
        setup_algebra_s = tracer.layer_incl["algebra"]
        tracer.reset()
    from reference import Sampler

    sampler = Sampler()
    if not tracer:
        sampler.start()
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    if kind == "verify":
        out = run_verify(tworay, built, bound)
    else:
        out = run_certify(tworay, built, bound)
    if not tracer:
        sampler.stop()
    run_s = time.perf_counter() - t0 - sampler.spent[0]
    usage1 = resource.getrusage(resource.RUSAGE_SELF)
    result.update({
        "run_s": run_s,
        "cpu_s": (usage1.ru_utime - usage0.ru_utime)
                 + (usage1.ru_stime - usage0.ru_stime) - sampler.spent[1],
        "peak_rss_mb": usage1.ru_maxrss / 1024.0,
        "reference": sampler.samples,
        "rc": out["rc"],
        "report_sha256": hashlib.sha256(out["text"].encode()).hexdigest(),
    })
    if tracer:
        tracer.unpatch()
        report_bytes = len(out["text"].encode()) if kind == "verify" else 0
        result["layers"] = layer_metrics(tracer, run_s, setup_algebra_s,
                                         report_bytes)
        out_dir = Path.cwd() / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        with open(out_dir / f"spans-{args.workload}.json", "w") as fh:
            json.dump({"workload": args.workload,
                       "fields": ["id", "name", "parent", "start", "end"],
                       "spans": tracer.spans}, fh)
    if args.check:
        from checks import Tally

        check_start = time.perf_counter()
        rng = np.random.default_rng(args.seed)
        tally = Tally()
        check_structure(tally, built, args.workload)
        if kind == "verify":
            check_verify(tally, built, out, bound, rng)
        else:
            check_certify(tally, built, out, rng)
        result.update({"attempted": tally.attempted, "failed": tally.failed,
                       "problems": tally.problems,
                       "check_s": time.perf_counter() - check_start})
    result["versions"] = {"python": sys.version.split()[0],
                          "numpy": np.__version__}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
