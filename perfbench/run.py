"""The tworay verification benchmark.

Run from the root of a source checkout (the package is taken from ``src``):

    python3 perfbench/run.py --workload ex14-rows --seed 1 --seconds 30 --trace 0

Every repetition is a fresh interpreter (``worker.py``) that builds the
defining system and runs the workload once, serially, with no worker threads.
With ``--trace 0`` a run makes ``--seconds`` / SECONDS_PER_REP repetitions (at
least MIN_REPS), set-up-only processes between them sample the set-up time,
and the end-to-end medians are reported, the times at the reference speed.
With ``--trace 1`` one plain and one traced repetition run, and the traced
one's per-layer figures are reported with the tracing overhead.  The first
repetition also runs the independent checks, and every repetition's report
must be byte-identical.  The last line of stdout is the result as JSON.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
WORKLOADS = ("ex14-rows", "tsys-deep", "ex14-certify")
SETUP_SAMPLES = 1        # set-up-only processes before each repetition
SECONDS_PER_REP = 10     # a run makes --seconds / SECONDS_PER_REP repetitions,
MIN_REPS = 3             # and at least MIN_REPS
# The times are reported at the speed at which the reference of reference.py
# takes this many seconds, about this machine's usual speed
REFERENCE_S = 0.002
DEADLINE_S = 170.0       # a run must end within 180 s

END_TO_END = [
    ("setup_s", "s"), ("run_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"),
]

# (name, unit, better); the README says which end-to-end metric each moves
PER_LAYER = [
    ("strings.s", "s", "lower"),
    ("strings.band_of.calls", "count", "lower"),
    ("strings.pairs_p_x.pairs", "count", "lower"),
    ("rows.s", "s", "lower"),
    ("rows.self_s", "s", "lower"),
    ("rows.candidates", "count", "lower"),
    ("rows.emitted", "count", "higher"),
    ("rows.yield", "ratio", "higher"),
    ("rows.anomalies", "count", "lower"),
    ("hom_basis.calls", "count", "lower"),
    ("hom_basis.s", "s", "lower"),
    ("hom_basis.max_unknowns", "count", "lower"),
    ("realize_ses.s", "s", "lower"),
    ("find_iso.calls", "count", "lower"),
    ("find_iso.misses", "count", "lower"),
    ("find_iso.s", "s", "lower"),
    ("cokernel_rep.s", "s", "lower"),
    ("is_split.s", "s", "lower"),
    ("ar_translate.s", "s", "lower"),
    ("atom_rep.calls", "count", "lower"),
    ("atom_rep.builds", "count", "lower"),
    ("is_indecomposable.calls", "count", "lower"),
    ("is_indecomposable.s", "s", "lower"),
    ("is_isomorphic.calls", "count", "lower"),
    ("is_isomorphic.s", "s", "lower"),
    ("field.rref.calls", "count", "lower"),
    ("field.rref.s", "s", "lower"),
    ("field.rref.cells", "count", "lower"),
    ("field.mul.calls", "count", "lower"),
    ("inventory.s", "s", "lower"),
    ("inventory.entries", "count", "higher"),
    ("modules.construct.calls", "count", "lower"),
    ("relations.s", "s", "lower"),
    ("vsc.lemma.calls", "count", "lower"),
    ("vsc.lemma.s", "s", "lower"),
    ("algebra.s", "s", "lower"),
    ("cli.report.s", "s", "lower"),
    ("cli.report_bytes", "bytes", "lower"),
    ("self_s.strings", "s", "lower"),
    ("self_s.homlab", "s", "lower"),
    ("self_s.field", "s", "lower"),
    ("self_s.string_modules", "s", "lower"),
    ("self_s.vsc", "s", "lower"),
    ("self_s.algebra", "s", "lower"),
    ("self_s.cli", "s", "lower"),
    ("self_s.untraced", "s", "lower"),
    ("trace.run_s", "s", "lower"),
    ("trace.untraced_run_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


class WorkerFailed(RuntimeError):
    pass


class Runner:
    """Spawns worker processes for one workload and seed, within a deadline."""

    def __init__(self, workload, seed, deadline):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env.pop("TWORAY_THREADS", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            ["src"] + ([os.environ["PYTHONPATH"]]
                       if os.environ.get("PYTHONPATH") else []))

    def spawn(self, *flags):
        """One worker; its JSON line, with the set-up time measured from the
        moment this process started it."""
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise WorkerFailed("out of time")
        cmd = [sys.executable, str(WORKER), "--workload", self.workload,
               "--seed", str(self.seed), *flags]
        started = time.monotonic()
        try:
            proc = subprocess.run(cmd, env=self.env, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise WorkerFailed(f"worker timed out: {' '.join(cmd)}") from exc
        if proc.returncode != 0 or not proc.stdout.strip():
            raise WorkerFailed(f"worker failed ({proc.returncode}): "
                               f"{proc.stderr.strip()[-2000:]}")
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        out["setup_s"] = out["built_at"] - started
        return out


def git_sha(root):
    """The commit of a git checkout, read from its files; None elsewhere."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def src_lines(root):
    return sum(len(p.read_text().splitlines())
               for p in sorted((root / "src" / "tworay").glob("*.py")))


def determinism(reps):
    """(comparisons, mismatches) of every repetition's report digest against
    the first one's."""
    first = reps[0]["report_sha256"]
    diffs = sum(r["report_sha256"] != first for r in reps[1:])
    return len(reps) - 1, diffs


def speed(rep, clock):
    """The factor that scales a repetition's time to the reference speed:
    the mean, over the reference's samples in it, of REFERENCE_S over the
    sample's time (``clock`` 0 for wall, 1 for CPU seconds).  The samples
    are evenly spaced in time, so each stands for an equal slice of the
    run, done at the speed the sample saw."""
    return statistics.fmean(REFERENCE_S / s[clock] for s in rep["reference"])


def end_to_end(reps, setups):
    """The end-to-end metrics of a run's repetitions and set-up samples.

    The machine's speed changes every few seconds and drifts over minutes,
    by more than the bounds allow, and the reference sampled during a
    repetition changes with it.  So every repetition's wall and CPU times are
    scaled to the reference speed, and the medians over the repetitions are
    reported.  The set-up samples are scaled by the median wall-clock factor
    of the run."""
    return {
        "setup_s": statistics.median(setups)
                   * statistics.median(speed(r, 0) for r in reps),
        "run_s": statistics.median(r["run_s"] * speed(r, 0) for r in reps),
        "cpu_s": statistics.median(r["cpu_s"] * speed(r, 1) for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }


def plain_run(runner, seconds):
    """``seconds`` / SECONDS_PER_REP repetitions, at least MIN_REPS, each
    after SETUP_SAMPLES set-up-only processes, so that both kinds of sample
    spread over the whole run."""
    setups, reps = [], []
    for _ in range(max(MIN_REPS, seconds // SECONDS_PER_REP)):
        setups += [runner.spawn("--setup-only")["setup_s"]
                   for _ in range(SETUP_SAMPLES)]
        reps.append(runner.spawn(*(["--check"] if not reps else [])))
    setups += [r["setup_s"] for r in reps]
    print(f"measured: median run_s "
          f"{statistics.median(r['run_s'] for r in reps):.4f}, cpu_s "
          f"{statistics.median(r['cpu_s'] for r in reps):.4f}, setup_s "
          f"{statistics.median(setups):.4f}; the reference ran "
          + ", ".join(f"{1 / speed(r, 0):.3f}" for r in reps)
          + " times as fast as its reference speed in the repetitions")
    return reps, end_to_end(reps, setups), {n: u for n, u in END_TO_END}


def traced_run(runner):
    plain = runner.spawn("--check")
    traced = runner.spawn("--trace")
    metrics = dict(traced["layers"])
    metrics["trace.untraced_run_s"] = plain["run_s"]
    metrics["trace.overhead_s"] = traced["run_s"] - plain["run_s"]
    return [plain, traced], metrics, {n: u for n, u, _ in PER_LAYER}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "tworay" / "__init__.py").is_file():
        print("perfbench: run from the root of a tworay source checkout "
              "(src/tworay not found)", file=sys.stderr)
        return 2
    runner = Runner(args.workload, args.seed, time.monotonic() + DEADLINE_S)
    try:
        if args.trace:
            reps, metrics, units = traced_run(runner)
        else:
            reps, metrics, units = plain_run(runner, args.seconds)
    except WorkerFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    checked = reps[0]
    compared, mismatched = determinism(reps)
    attempted = checked["attempted"] + compared
    failed = checked["failed"] + mismatched
    for i, r in enumerate(reps):
        print(f"rep {i}: run_s {r['run_s']:.4f} cpu_s {r['cpu_s']:.4f} "
              f"setup_s {r['setup_s']:.4f} exit {r['rc']} "
              f"report sha256 {r['report_sha256']}")
    for problem in checked["problems"]:
        print(f"check failed: {problem}")
    if mismatched:
        print(f"check failed: {mismatched} repetitions gave another report")
    print(f"git {git_sha(root) or 'unknown (not a git checkout)'}, "
          f"python {checked['versions']['python']}, "
          f"numpy {checked['versions']['numpy']}, nproc {os.cpu_count()}, "
          f"machine {platform.machine()}, src/tworay lines {src_lines(root)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
