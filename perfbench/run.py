"""momt benchmark: solve, diagnose and scenario workloads in reference units.

    python3 perfbench/run.py --workload solve_ladder --seed 1 --seconds 35 --trace 0

Runs from the root of a momt source tree and imports momt from ``src/``.  One
process drives momt through ``momt.cli.main`` in-process, one command at a
time.  Each command runs between two runs of a fixed reference kernel
(``refkernel.py``) and is sampled by short probes of the same kernel while it
runs; its time is expressed in reference kernels, which cancels most of the
machine's speed swings.  Rounds of all the workload's commands repeat until
``--seconds`` have passed; each command's figure is the median over its
rounds.  After the timed part the peak RSS is read, then every output is
checked against HiGHS (``check.py``) and repeats must give byte-identical
files.

Set-up is normalised the same way, part by part: the cost of starting a
process that imports momt is timed in child processes against adjacent
children that only import numpy, and the in-process set-up against the
reference kernel; ``setup_s`` converts both back to seconds at the quiet
speeds ``START_S`` and ``KERNEL_S``.

With ``--trace 1`` every other round runs with layer spans installed
(``layertrace.py``) and the run reports per-layer self times and exact counts
instead of the end-to-end metrics.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

import argparse
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

MIN_ROUNDS = 3         # per mode; a run never reports fewer repeats than this
SETUP_REPEATS = 5      # in-process set-ups, in reference units; median taken
START_PAIRS = 5        # child-process import timings, each against a reference
PROBE_INTERVAL = 0.01  # seconds between speed probes inside a command
PROBE_ITERATIONS = 4   # reference-kernel iterations per probe (~0.3 ms)
# Quiet-machine durations of the two set-up references, which turn set-up
# ratios back into seconds: a child process that imports numpy, and one
# reference kernel.
START_S = 0.13
KERNEL_S = 0.006

# what a child process imports to start the benchmark, and the reference
START_CODE = ("import sys; sys.path[:0] = sys.argv[1:]; "
              "import refkernel, workloads; from momt import cli")
START_REF_CODE = "import numpy"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["solve_ladder", "diagnose_ladder", "scenario_suite"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def output_digest(op) -> str:
    """Hash of every file the command wrote; "missing" if it wrote none."""
    h = hashlib.sha256()
    for path in op.outputs:
        if not os.path.exists(path):
            return "missing"
        files = ([os.path.join(path, f) for f in sorted(os.listdir(path))]
                 if os.path.isdir(path) else [path])
        for f in files:
            h.update(os.path.basename(f).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def setup_once(cli, workloads, workload, seed):
    """Fresh work directory, input files, and one untimed warm-up command."""
    workdir = os.path.join(OUT, workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    ops = workloads.WORKLOADS[workload](workdir, seed)
    workloads.write_inputs(ops)
    cli.main(ops[0].argv)
    return ops


def start_ratios():
    """Start-up cost of the benchmark's imports over that of numpy alone.

    Process start and imports are bound by page faults and file access, which
    swing apart from the reference kernel's speed but together with a bare
    ``import numpy``; so each child that imports what the benchmark imports is
    timed against an adjacent child that imports numpy only.
    """
    def child(code, *args):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", code, *args], cwd=ROOT,
                       check=True, timeout=60, stdout=subprocess.DEVNULL)
        return time.perf_counter() - t

    return [child(START_CODE, HERE, SRC) / child(START_REF_CODE)
            for _ in range(START_PAIRS)]


class SpeedProbe:
    """Samples the machine's speed while a command runs.

    While armed, a SIGALRM every ``PROBE_INTERVAL`` seconds runs
    ``PROBE_ITERATIONS`` iterations of the reference kernel inside the signal
    handler and records how long they took.  The machine's speed changes in
    phases shorter than momt's longest commands, so these samples, with the
    kernels run just before and after, convert a command's time to
    reference units over its whole duration rather than from its two ends.
    """

    def __init__(self, refkernel):
        self.refkernel = refkernel
        self.durations: list[float] = []
        self.armed = False
        self.tracer = None
        signal.signal(signal.SIGALRM, self._handler)

    def _handler(self, signum, frame):
        if not self.armed:
            return
        self.armed = False
        span = self.tracer.open("bench.probe") if self.tracer else None
        t = time.perf_counter()
        self.refkernel.run_iterations(PROBE_ITERATIONS)
        self.durations.append(time.perf_counter() - t)
        if span is not None:
            self.tracer.close(span)
        self.armed = True

    def run(self, fn, *args):
        """Call fn(*args); return its result and its time net of probes."""
        self.durations = []
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL, PROBE_INTERVAL)
        t = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            elapsed = time.perf_counter() - t
            self.armed = False
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
        return result, elapsed - sum(self.durations)

    def kernel_time(self) -> float:
        t = time.perf_counter()
        self.refkernel.reference_kernel()
        return time.perf_counter() - t

    def unit(self, before: float, after: float) -> float:
        """Seconds one reference kernel took, averaged over the command.

        Speeds (iterations per second) are averaged, since the probes fall
        at even intervals of wall time.
        """
        n = self.refkernel.ITERATIONS
        speeds = [n / before, n / after]
        speeds += [PROBE_ITERATIONS / d for d in self.durations]
        return n / statistics.fmean(speeds)


def measure(cli, ops, probe, seconds, tracer):
    """Interleaved rounds of every command, each between two kernel runs.

    Returns per-command reference-unit samples (untraced and traced), exit
    codes, output digests, per-round layer self times and per-round counts.
    """
    crashed = set()

    def command(op):
        try:
            return cli.main(op.argv)
        except Exception:  # a crash fails the command, as the CLI's exit 1 would
            if op.name not in crashed:
                crashed.add(op.name)
                traceback.print_exc()
            return 1

    ratios = {op.name: [] for op in ops}
    traced_ratios = {op.name: [] for op in ops}
    layer_rounds, count_rounds = [], []
    codes = {op.name: set() for op in ops}
    digests = {op.name: set() for op in ops}
    rounds = 0
    t_begin = time.perf_counter()
    t_round = 0.0
    before = probe.kernel_time()
    while True:
        traced = tracer is not None and rounds % 2 == 0
        untraced = rounds // 2 if tracer is not None else rounds
        # stop before a round that would end after the time budget
        if untraced >= MIN_ROUNDS and \
                time.perf_counter() - t_begin + t_round > seconds:
            break
        started = time.perf_counter()
        if traced:
            tracer.install()
            tracer.counts.clear()
            layers = {}
        probe.tracer = tracer if traced else None
        for op in ops:
            first = len(tracer.spans) if traced else 0
            if traced:
                tracer.op = op.name
            code, net = probe.run(command, op)
            after = probe.kernel_time()
            unit = probe.unit(before, after)
            before = after
            (traced_ratios if traced else ratios)[op.name].append(net / unit)
            if traced:
                selfs = tracer.self_times(first, len(tracer.spans))
                layers[op.name] = {k: v / unit for k, v in selfs.items()}
            codes[op.name].add(code)
            digests[op.name].add(output_digest(op))
        if traced:
            tracer.uninstall()
            layer_rounds.append(layers)
            count_rounds.append(dict(tracer.counts))
        t_round = time.perf_counter() - started
        rounds += 1
    return {"ratios": ratios, "traced_ratios": traced_ratios, "codes": codes,
            "digests": digests, "rounds": rounds, "layer_rounds": layer_rounds,
            "count_rounds": count_rounds}


def check_outputs(check, ops, meas):
    """Problems per command, found by the independent checker."""
    problems = {}
    for op in ops:
        found = []
        if meas["codes"][op.name] != {0}:
            found.append(f"exit codes {sorted(meas['codes'][op.name])}")
        if len(meas["digests"][op.name]) != 1:
            found.append("repeats wrote different bytes")
        if not found:
            try:
                found = check_op(check, op)
            except (KeyError, IndexError, ValueError, TypeError, OSError,
                    RuntimeError) as exc:
                found = [f"checker could not read the output: {exc!r}"]
        if found:
            problems[op.name] = found
    return problems


def check_op(check, op):
    if op.kind == "scenario":
        p = op.params
        return check.check_scenario(p["kind"], p["seed"], p["n"], p["stem"])
    with open(op.outputs[0], encoding="utf-8") as fh:
        result = json.load(fh)
    if op.kind == "solve":
        return check.check_solve(op.doc, result, op.params.get("scale"))
    if op.kind == "oracle":
        return check.check_oracle(op.doc, result)
    if op.kind == "diagnose":
        return check.check_diagnose(op.doc, result, op.params["twin"])
    return check.check_reduce(op.doc, result, op.params["subset"])


def per_op(samples):
    return {name: statistics.median(v) for name, v in samples.items() if v}


def layer_metrics(meas, untraced_total):
    """Per-layer self times (median over traced rounds) and exact counts."""
    names = {name for r in meas["layer_rounds"] for layers in r.values()
             for name in layers}
    ops = meas["layer_rounds"][0].keys()
    layer_ref = {
        name: sum(statistics.median(r[op].get(name, 0.0) for r in meas["layer_rounds"])
                  for op in ops)
        for name in names
    }
    counts = meas["count_rounds"][0]
    ref = lambda key: layer_ref.get(key, 0.0)  # noqa: E731
    count = lambda key: int(counts.get(key, 0))  # noqa: E731
    traced_total = sum(per_op(meas["traced_ratios"]).values())
    values = {
        "cli.load_ref": ref("cli.load"),
        "cli.self_ref": ref("cli.self"),
        "cli.ops_n": count("cli.ops_n"),
        "costs.tabulate_ref": ref("costs.tabulate"),
        "costs.cells_n": count("costs.cells_n"),
        "costs.maps_ref": ref("costs.maps"),
        "lp.model_ref": ref("lp.model"),
        "lp.model_mb": counts.get("lp.model_bytes", 0) / 2**20,
        "lp.solve_ref": ref("lp.solve"),
        "lp.solve_n": count("lp.solve_n"),
        "lp.pivots_n": count("lp.pivots_n"),
        "lp.ref_per_pivot": ref("lp.solve") / max(count("lp.pivots_n"), 1),
        "lp.cert_ref": ref("lp.cert"),
        "lp.cert_n": count("lp.cert_n"),
        "lp.cert_pivots_n": count("lp.cert_pivots_n"),
        "lp.vertex_ref": ref("lp.vertex"),
        "lp.active_ref": ref("lp.active"),
        "lp.active_cells_n": count("lp.active_cells_n"),
        "lp.oracle_ref": ref("lp.oracle"),
        "lp.oracle_vertices_n": count("lp.oracle_vertices_n"),
        "reduction.reduce_ref": ref("reduction.reduce"),
        "reduction.verify_ref": ref("reduction.verify"),
        "reduction.reconstruct_ref": ref("reduction.reconstruct"),
        "extremality.monotone_ref": ref("extremality.monotone"),
        "extremality.monotone_tuples_n": count("extremality.monotone_tuples_n"),
        "extremality.fiber_ref": ref("extremality.fiber"),
        "extremality.decompose_ref": ref("extremality.decompose"),
        "measure.ref": ref("measure"),
        "twomap.ref": ref("twomap"),
        "scenarios.generate_ref": ref("scenarios.generate"),
        "scenarios.self_ref": ref("scenarios.self"),
        "serialize.dump_ref": ref("serialize.dump"),
        "serialize.csv_ref": ref("serialize.csv"),
        "serialize.bytes_n": count("serialize.bytes_n"),
        "trace.overhead_ref": traced_total - untraced_total,
    }
    units = {"_n": "count", "_mb": "MB"}
    return {k: {"value": v, "unit": units.get(k[k.rfind("_"):], "ref")}
            for k, v in values.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "momt", "cli.py")):
        print(f"error: no momt sources at {SRC}; run from a momt checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import refkernel
    import workloads
    from momt import cli

    starts = start_ratios()
    probe = SpeedProbe(refkernel)
    setup_refs = []
    for _ in range(SETUP_REPEATS):
        before = probe.kernel_time()
        ops, net = probe.run(setup_once, cli, workloads, args.workload, args.seed)
        setup_refs.append(net / probe.unit(before, probe.kernel_time()))
    setup_s = START_S * statistics.median(starts) + KERNEL_S * statistics.median(setup_refs)

    tracer = None
    if args.trace:
        from layertrace import Tracer
        tracer = Tracer()
    meas = measure(cli, ops, probe, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    import check  # imports scipy: only after the peak RSS has been read
    problems = check_outputs(check, ops, meas)
    import selfcheck
    checker_faults = selfcheck.run()
    for name, found in sorted(problems.items()):
        print(f"FAILED {name}: {'; '.join(found)}", file=sys.stderr)
    for fault in checker_faults:
        print(f"CHECKER {fault}", file=sys.stderr)
    known = {op.name for op in ops if op.known_fault}
    correct = not checker_faults and all(
        name in known and check.scaled_fault_only(found)
        for name, found in problems.items())

    untraced = per_op(meas["ratios"])
    total_ref = sum(untraced.values())
    if tracer is None:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "total_ref": {"value": total_ref, "unit": "ref"},
            "op_p50_ref": {"value": statistics.median(untraced.values()), "unit": "ref"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    else:
        metrics = layer_metrics(meas, total_ref)
        tracer.write(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.jsonl"))
    rounds = meas["rounds"]
    result = {"correct": bool(correct), "attempted": rounds * len(ops),
              "failed": rounds * len(problems), "metrics": metrics}
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}"
                                f"-trace{args.trace}.json"), "w") as fh:
        json.dump({"rounds": rounds, "per_op_ref": untraced,
                   "samples_ref": meas["ratios"], "start_ratios": starts,
                   "setup_refs": setup_refs, "problems": problems, **result},
                  fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
