"""The benchmark's checks are not vacuous: each accepts the package's real
outputs and rejects a corrupted one.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import modp  # noqa: E402
import run  # noqa: E402
from tworay import (AlgebraBasis, ArVerifier, StringModules,  # noqa: E402
                    WordCalculus, build_quiver, build_relations, hom_basis,
                    validate)

P = 32003


class System:
    def __init__(self, name):
        with open(HERE / "systems" / f"{name}.json") as fh:
            self.ds = validate(json.load(fh))
        self.quiver = build_quiver(self.ds)
        self.relations = build_relations(self.ds, self.quiver)
        self.modules = StringModules(WordCalculus(self.quiver))
        self.shape = checks.Shape.of(self.quiver)
        self.terms = [r.terms for r in self.relations]


@pytest.fixture(scope="module")
def tsys():
    return System("tsys")


@pytest.fixture(scope="module")
def tsys_rows(tsys):
    algebra = AlgebraBasis(tsys.quiver, tsys.relations, tsys.modules.field)
    ver = ArVerifier(tsys.modules, algebra)
    report = ver.verify(6)
    assert report["failures"] == []
    rows = {r["key"]: r for r in ver.rows(6)}

    def module(atoms):
        return checks.direct_sum(tsys.shape, [
            checks.Module.of(tsys.shape, ver.atom_rep(a)) for a in atoms])

    out = []
    for r in report["rows"]:
        row = rows[r["key"]]
        cert = json.loads(json.dumps(r["certificate"]))
        out.append((module(row["left"]), module(row["middle"]),
                    module(row["right"]), cert))
    return out


def test_certificates_accepted_and_flipped_entry_rejected(tsys_rows):
    assert tsys_rows
    flipped = 0
    for left, middle, right, cert in tsys_rows:
        assert checks.certificate_problems(left, middle, right, cert, P) == []
        bad = checks.flip_one_entry(cert)
        if bad is not None:
            assert checks.certificate_problems(left, middle, right, bad, P)
            flipped += 1
    assert flipped


def test_certificate_with_swapped_maps_rejected(tsys_rows):
    left, middle, right, cert = next(
        r for r in tsys_rows if r[0].total_dim and r[2].total_dim)
    zero_g = {"injection": cert["injection"], "surjection": {}}
    assert checks.certificate_problems(left, middle, right, zero_g, P)


def test_relation_check(tsys):
    for e in tsys.modules.theorem_inventory(8):
        m = checks.Module.of(tsys.shape, e.rep)
        assert checks.violated_relations(tsys.shape, m, tsys.terms, P) == []
    assert checks.violating_module(tsys.shape, tsys.terms, P)


def test_local_check_rejects_direct_sum(tsys):
    rng = np.random.default_rng(7)
    entries = tsys.modules.theorem_inventory(8)
    for e in entries[::5]:
        m = checks.Module.of(tsys.shape, e.rep)
        assert checks.local_by_sampling(m, hom_basis(e.rep, e.rep), rng, P)
        double = e.rep.direct_sum(e.rep)
        assert not checks.local_by_sampling(
            checks.Module.of(tsys.shape, double), hom_basis(double, double),
            rng, P)


def test_hom_space_agrees_with_package(tsys):
    entries = tsys.modules.theorem_inventory(6)
    mods = [checks.Module.of(tsys.shape, e.rep) for e in entries]
    for i in range(0, len(entries), 3):
        for j in range(0, len(entries), 4):
            basis = checks.hom_space(mods[i], mods[j], P)
            assert len(basis) == len(hom_basis(entries[i].rep, entries[j].rep))
            assert all(checks.is_intertwiner(mods[i], mods[j], f, P)
                       for f in basis)


def test_modp_against_brute_force():
    rng = np.random.default_rng(3)
    p = 5
    for _ in range(50):
        a = rng.integers(0, p, (3, 4))
        ker = modp.kernel(a, p)
        assert not np.any(modp.matmul(a, ker, p))
        assert modp.rank(a, p) + ker.shape[1] == 4
        brute = sum(not np.any(a @ np.array(x) % p)
                    for x in np.ndindex(p, p, p, p))
        assert brute == p ** ker.shape[1]
    nil = np.array([[0, 1, 2], [0, 0, 3], [0, 0, 0]])
    assert modp.is_nilpotent(nil, p)
    assert not modp.is_nilpotent(nil + np.eye(3, dtype=np.int64), p)
    with pytest.raises(OverflowError):
        modp.matmul(np.ones((1, 3)), np.ones((3, 1)), 2147483647)


def test_benchmark_json_lists_every_metric():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == \
        run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] \
        == run.PER_LAYER


def test_times_are_scaled_to_the_reference_speed():
    r = run.REFERENCE_S
    # the first repetition ran at half the reference speed for half its
    # time and at the reference speed for the rest, in wall time, and at
    # the reference speed in CPU time
    reps = [{"run_s": 4.0, "cpu_s": 4.0, "peak_rss_mb": 41.0,
             "reference": [(2 * r, r), (r, r)]},
            {"run_s": 6.0, "cpu_s": 6.0, "peak_rss_mb": 42.0,
             "reference": [(2 * r, r)]},
            {"run_s": 2.0, "cpu_s": 2.0, "peak_rss_mb": 40.0,
             "reference": [(r / 2, r / 2)]}]
    assert [run.speed(rep, 0) for rep in reps] == pytest.approx([0.75, 0.5, 2])
    got = run.end_to_end(reps, [0.2, 0.4, 0.3])
    assert got == pytest.approx({"setup_s": 0.3 * 0.75, "run_s": 3.0,
                                 "cpu_s": 4.0, "peak_rss_mb": 41.0})


def test_reference_is_sampled_while_work_runs():
    import reference

    sampler = reference.Sampler()
    sampler.start()
    end = time.perf_counter() + 0.3
    while time.perf_counter() < end:
        sum(range(1000))
    sampler.stop()
    assert len(sampler.samples) >= 2
    assert all(w > 0 and c > 0 for w, c in sampler.samples)
    assert sampler.spent[0] >= sum(w for w, _ in sampler.samples)


def test_refuses_to_run_without_sources(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "tsys-deep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
