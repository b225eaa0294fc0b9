"""wcopf benchmark runner.

    python3 perfbench/run.py --workload certify --seed 0 --seconds 24 --trace 0

Run it from the root of a wcopf source tree; it imports the package from
./src and nothing else.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones (set-up time, wall time of the timed
phase, certified violation and validation error of the workload's nets,
peak memory); with --trace 1 they are the per-layer numbers of one traced
pass plus the tracing overhead.  Lines above it give every metric with
its unit and, for ratios, its base, and record the environment.  The
full record, with spans in traced runs, goes to perfbench/out/.  See
perfbench/README.md for what each workload and metric is for.
"""

import os
import sys
import time

T_START = time.perf_counter()
# one thread everywhere: pin BLAS and OpenMP before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
sys.dont_write_bytecode = True  # every run compiles the sources the same way

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import tempfile
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")
WORKLOAD_NAMES = ("certify", "wc-train", "pipeline")
SETUP_REPEATS = 3
MIN_ROUNDS = 3


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the timed phase; whole rounds run until it is spent")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _tree_digest(top, suffix=""):
    """(sha256 over the path and bytes of every file named *suffix, line count of *.py)."""
    h = hashlib.sha256()
    lines = 0
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(f for f in filenames if f.endswith(suffix)):
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                data = fh.read()
            h.update(os.path.relpath(path, top).encode() + b"\0" + data + b"\0")
            if name.endswith(".py"):
                lines += data.count(b"\n")
    return h.hexdigest(), lines


def _git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head, encoding="utf-8") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", *ref[5:].split("/"))
    if os.path.isfile(path):
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    return None


def environment(args, src_sha, src_lines):
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
            "git_commit": _git_commit(), "src_sha256": src_sha, "src_lines": src_lines,
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace}


class Tally:
    """Attempted and failed operations, with the reason for each failure.

    An operation is one timed operation of one round, or one of the
    harness's own checks; later problems found with an operation (by the
    output checks) are added to its entry.
    """

    def __init__(self):
        self.entries = {}

    def add(self, label, problems=()):
        self.entries.setdefault(label, []).extend(problems)

    @property
    def attempted(self):
        return len(self.entries)

    @property
    def failed(self):
        return sum(1 for p in self.entries.values() if p)

    @property
    def failures(self):
        return [{"op": label, "problems": p} for label, p in self.entries.items() if p]


class SpeedProbe:
    """Times a fixed reference job between operations to follow the machine's speed.

    The job mixes small numpy kernels with interpreter work, as wcopf's
    simplex does.  On a shared machine whose speed changes by tens of
    percent from one stretch of seconds to the next, an operation's time
    times REF_S over the mean of the probes just before and after it is
    its time on a machine of fixed speed.
    """

    REF_S = 0.05

    def __init__(self):
        import numpy
        self._np = numpy
        rng = numpy.random.default_rng(0)
        self._tableau = rng.standard_normal((48, 96))
        self._cost = rng.standard_normal(96)
        self.samples = []

    def sample(self):
        np, cost = self._np, self._cost
        t = self._tableau.copy()
        started = time.perf_counter()
        for it in range(2000):
            d = cost - cost[:48] @ t
            j = int(np.argmax(np.abs(d)))
            t -= 1e-4 * np.outer(t[:, j].copy(), t[it % 48])
        self.samples.append(time.perf_counter() - started)
        return self.samples[-1]

    def timed(self, fn, *args):
        """(result, raw seconds, scaled seconds) of fn(*args), probing after it."""
        before = self.samples[-1]
        started = time.perf_counter()
        result = fn(*args)
        raw = time.perf_counter() - started
        return result, raw, raw * self.REF_S / (0.5 * (before + self.sample()))


def _canon(record):
    return json.dumps(record, sort_keys=True)


def _guarded(run, rdir):
    try:
        return run(rdir)
    except Exception:  # an operation that raises is a failed operation
        return {"error": traceback.format_exc(limit=3)}, None


def run_round(fixture, rdir, tally, reference, probe):
    """Run every operation once.

    Returns ({op: scaled s}, {op: raw s}, {op: record}, {op: payload}).
    reference holds the first round's records: a record that differs is a
    determinism failure.  Operations are tallied as <round dir name>/<op>.
    """
    os.makedirs(rdir)
    tag = os.path.basename(rdir)
    times, raw, records, payloads = {}, {}, {}, {}
    for op in fixture.ops:
        (record, payload), raw[op.name], times[op.name] = probe.timed(_guarded, op.run, rdir)
        problems = [record["error"]] if payload is None else []
        if reference is not None and _canon(record) != _canon(reference[op.name]):
            problems.append("record differs from the first round")
        tally.add(f"{tag}/{op.name}", problems)
        records[op.name], payloads[op.name] = record, payload
    return times, raw, records, payloads


def build(workloads, args, tmp, tally, repeats, probe):
    """Set the workload up `repeats` times; returns (first fixture, [scaled s], [raw s])."""
    fixtures, times, raw = [], [], []
    for i in range(repeats):
        workdir = os.path.join(tmp, f"setup{i}")
        os.makedirs(workdir)
        fixture, raw_s, scaled_s = probe.timed(
            workloads.WORKLOADS[args.workload], ROOT, workdir, args.seed)
        fixtures.append(fixture)
        times.append(scaled_s)
        raw.append(raw_s)
    digests = {f.digest for f in fixtures}
    tally.add("setup-determinism",
              [] if len(digests) == 1 else [f"set-up built {len(digests)} different fixtures"])
    return fixtures[0], times, raw


def check_outputs(fixture, payloads, tally, tag):
    """Independent checks of the round tagged `tag`; returns (problems, quality)."""
    if any(p is None for p in payloads.values()):
        return {}, (0.0, 0.0)
    try:
        problems = fixture.check(payloads)
        quality = fixture.quality(payloads)
    except Exception:  # a check that cannot run fails the run
        problems, quality = {"checks": [traceback.format_exc(limit=3)]}, (0.0, 0.0)
    for label, found in problems.items():
        # fixture checks count as operations of their own
        tally.add(f"{tag}/{label}" if label in payloads else label, found)
    return problems, quality


def compare_with_earlier_runs(args, code_sha, record, tally):
    """Equal code and seed must give identical records across invocations.

    The first clean run of each (code, seed) stores its record; later runs
    compare with it.
    """
    path = os.path.join(OUT, "records", f"{args.workload}-seed{args.seed}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    stored = {}
    if os.path.isfile(path):
        with open(path, encoding="utf-8") as fh:
            stored = json.load(fh)
    if code_sha in stored:
        same = _canon(stored[code_sha]) == _canon(record)
        tally.add("determinism-across-runs",
                  [] if same else ["record differs from an earlier run"])
        return "same as an earlier run" if same else "differs from an earlier run"
    if tally.failed:
        return "not stored: this run failed"
    stored[code_sha] = record
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(stored, fh, sort_keys=True)
    return "stored as the first clean run of this code and seed"


def untraced(workloads, args, tmp, tally, imports, probe):
    fixture, setup_scaled, setup_raw = build(workloads, args, tmp, tally, SETUP_REPEATS, probe)
    rounds, raw_rounds = [], []
    reference = None
    payloads = None
    started = time.perf_counter()
    while True:
        times, raw, records, round_payloads = run_round(
            fixture, os.path.join(tmp, f"round{len(rounds)}"), tally, reference, probe)
        rounds.append(times)
        raw_rounds.append(raw)
        if reference is None:
            reference, payloads = records, round_payloads
        elapsed = time.perf_counter() - started
        if len(rounds) >= MIN_ROUNDS and elapsed * (1 + 1 / len(rounds)) > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems, (final_v_g, final_val_mae) = check_outputs(fixture, payloads, tally, "round0")

    def median_sum(per_round):
        return sum(statistics.median(r[name] for r in per_round) for name in reference)

    import_s, import_scaled = imports
    scaling = (f"scaled to a {1e3 * probe.REF_S:.0f} ms reference job by "
               f"{len(probe.samples)} probes")
    metrics = {
        "setup_s": (import_scaled + statistics.median(setup_scaled), "s",
                    f"imports + median of {len(setup_scaled)} set-ups, {scaling}; raw "
                    f"{import_s + statistics.median(setup_raw):.4f} s"),
        "wall_s": (median_sum(rounds), "s",
                   f"sum over {len(reference)} operations of the median of {len(rounds)} "
                   f"rounds, {scaling}; raw {median_sum(raw_rounds):.4f} s"),
        "final_v_g": (final_v_g, "scaled", "mean over the workload's nets"),
        "final_val_mae": (final_val_mae, "scaled", "mean over the workload's nets"),
        "peak_rss_mb": (peak_rss_mb, "MB", "ru_maxrss before the checks"),
    }
    detail = {"import_s": import_s, "setup_s_raw": setup_raw, "setup_s_scaled": setup_scaled,
              "rounds_raw": raw_rounds, "rounds_scaled": rounds, "probe_s": probe.samples,
              "check_problems": problems}
    return metrics, {"fixture": fixture.digest, "ops": reference}, detail


def traced(workloads, args, tmp, tally, probe):
    import tracing
    fixture, _, _ = build(workloads, args, tmp, tally, 1, probe)
    u_times, _, u_records, payloads = run_round(fixture, os.path.join(tmp, "u0"), tally, None,
                                                probe)
    t_setup = os.path.join(tmp, "t-setup")
    os.makedirs(t_setup)
    tracer = tracing.Tracer()
    started = time.perf_counter()
    tracer.install()
    try:
        fixture_t = workloads.WORKLOADS[args.workload](ROOT, t_setup, args.seed)
        t_times, _, t_records, _ = run_round(fixture_t, os.path.join(tmp, "t0"), tally, None,
                                             probe)
    finally:
        broken = tracer.uninstall()
    pass_wall = time.perf_counter() - started
    spans = list(tracer.spans)
    untraced_s, traced_s = [sum(u_times.values())], [sum(t_times.values())]
    phase = time.perf_counter()
    while time.perf_counter() - phase + untraced_s[-1] + traced_s[-1] <= args.seconds:
        k = len(untraced_s)
        times = run_round(fixture, os.path.join(tmp, f"u{k}"), tally, u_records, probe)[0]
        untraced_s.append(sum(times.values()))
        extra = tracing.Tracer()
        extra.install()
        try:
            times = run_round(fixture_t, os.path.join(tmp, f"t{k}"), tally, u_records, probe)[0]
        finally:
            broken += extra.uninstall()
        traced_s.append(sum(times.values()))
    problems, _ = check_outputs(fixture, payloads, tally, "u0")

    layer = tracing.layer_metrics(spans, pass_wall)
    nodes = tracing.cert_nodes_total(spans)
    tally.add("self-check bb_nodes", [] if layer["verifier.bb_nodes"][0] == nodes else
              [f"{layer['verifier.bb_nodes'][0]} node LPs but certificates report {nodes} nodes"])
    dispatch, lps = tracing.dispatch_calls(spans), layer["simplex.dispatch_lp.calls"][0]
    tally.add("self-check dispatch", [] if lps == dispatch else
              [f"{lps} dispatch LPs for {dispatch} solve_dcopf calls"])
    tally.add("self-check traced-equals-untraced",
              [] if _canon(t_records) == _canon(u_records) and fixture_t.digest == fixture.digest
              else ["traced pass produced different records"])
    tally.add("self-check restored", [f"not restored: {b}" for b in broken])

    u_med, t_med = statistics.median(untraced_s), statistics.median(traced_s)
    layer["trace.overhead_frac"] = (t_med / u_med - 1.0, "ratio",
                                    f"median traced round {t_med:.4f} s / median untraced "
                                    f"round {u_med:.4f} s over {len(traced_s)} pairs, minus 1")
    detail = {"spans": tracing.spans_document(spans), "untraced_round_s": untraced_s,
              "traced_round_s": traced_s, "traced_pass_s": pass_wall,
              "check_problems": problems}
    return layer, {"fixture": fixture.digest, "ops": u_records}, detail


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "wcopf", "__init__.py")):
        print(f"error: {SRC} holds no wcopf package; run from the root of a wcopf "
              "source tree", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import wcopf
    if not os.path.abspath(wcopf.__file__).startswith(SRC + os.sep):
        print(f"error: imported wcopf from {wcopf.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads
    import_s = time.perf_counter() - T_START

    src_sha, src_lines = _tree_digest(SRC)
    env = environment(args, src_sha, src_lines)
    os.makedirs(os.path.join(OUT, "tmp"), exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(OUT, "tmp"))
    tally = Tally()
    probe = SpeedProbe()
    # the imports ran before any probe: scale them by the median of three right after
    import_scaled = import_s * probe.REF_S / statistics.median(probe.sample() for _ in range(3))
    try:
        if args.trace:
            metrics, record, detail = traced(workloads, args, tmp, tally, probe)
        else:
            metrics, record, detail = untraced(workloads, args, tmp, tally,
                                               (import_s, import_scaled), probe)
        bench_sha, _ = _tree_digest(os.path.join(ROOT, "perfbench"), suffix=".py")
        env["determinism"] = compare_with_earlier_runs(args, f"{src_sha}-{bench_sha}", record,
                                                       tally)
        if args.trace:
            metrics["fail_frac"] = (tally.failed / tally.attempted, "ratio",
                                    f"{tally.failed} failed / {tally.attempted} attempted")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for key, value in env.items():
        print(f"env {key}: {value}")
    for name, (value, unit, base) in metrics.items():
        print(f"{name} = {value!r} {unit}" + (f"  [{base}]" if base else ""))
    print(f"operations: {tally.attempted} attempted, {tally.failed} failed, "
          f"fail_frac {tally.failed / max(tally.attempted, 1)!r}")
    for failure in tally.failures:
        print(f"FAILED {failure['op']}: {failure['problems']}")
    document = {"environment": env, "metrics": {n: {"value": v, "unit": u, "base": b}
                                                for n, (v, u, b) in metrics.items()},
                "attempted": tally.attempted, "failures": tally.failures,
                "record": record, "detail": detail}
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=1, sort_keys=True, default=str)
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {n: {"value": v, "unit": u} for n, (v, u, _) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
