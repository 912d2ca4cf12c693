"""Command-line entry point: solve, reduce, diagnose, scenario.

Exit codes are a stable contract: 0 success, 2 input or validation failure,
3 numerical or solver failure.  All randomness flows through --seed; output
files are deterministic functions of the inputs.

Instance files are UTF-8 JSON (axes are 1-based in files and flags):

    {"version": 1,
     "spaces": [{"name": "X", "points": [[0.0, 0.0], [1.0, 0.0]]}, ...],
     "weights": [[0.5, 0.5], ...],
     "cost": {"builtin": "surplus"}          # or {"tensor": nested lists}
             # gromovWasserstein adds "xi" and "A"
     "sense": "max"}
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import lp
from .costs import BUILTIN_KINDS, CostSpec
from .errors import (
    InstanceTooLarge,
    MomtError,
    NonFiniteCost,
    SchemaError,
    SolverError,
)
from .extremality import check_c_extreme, check_cyclical_monotonicity, fiber_report
from .instance import DiscreteInstance
from .measure import DiscreteMeasure, Space
from .reduction import IndexSubset, verify_reduction_optimality
from .scenarios import ALIASES, ScenarioConfig, run_scenario
from .serialize import dump_text, write_csv
from .tolerances import GAP_TOL

SCHEMA_VERSION = 1
_EXIT_VALIDATION = 2
_EXIT_SOLVER = 3


# ---------------------------------------------------------------------------
# instance file handling
# ---------------------------------------------------------------------------

def _floats(value, field: str) -> np.ndarray:
    """A numeric field of an instance file as a float array.

    Anything else is a SchemaError naming the field: a value that is no
    number or nested list of numbers, an integer beyond the float range,
    NaN or infinity.
    """
    try:
        array = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(field, str(exc)) from exc
    if not np.isfinite(array).all():
        raise SchemaError(field, "values must be finite")
    return array


def load_instance_dict(doc: dict) -> DiscreteInstance:
    if not isinstance(doc, dict):
        raise SchemaError("document", "top level must be an object")
    if doc.get("version") != SCHEMA_VERSION:
        raise SchemaError("version", f"expected {SCHEMA_VERSION}, got {doc.get('version')!r}")
    spaces_doc = doc.get("spaces")
    weights_doc = doc.get("weights")
    if not isinstance(spaces_doc, list) or not spaces_doc:
        raise SchemaError("spaces", "need a nonempty list of spaces")
    if not isinstance(weights_doc, list) or len(weights_doc) != len(spaces_doc):
        raise SchemaError("weights", "need one weight vector per space")
    spaces, measures = [], []
    for k, (sd, wd) in enumerate(zip(spaces_doc, weights_doc)):
        if not isinstance(sd, dict) or "points" not in sd:
            raise SchemaError(f"spaces[{k}]", "need an object with 'points'")
        points = _floats(sd["points"], f"spaces[{k}]")
        try:
            space = Space(str(sd.get("name", f"S{k + 1}")), points)
        except MomtError as exc:
            raise SchemaError(f"spaces[{k}]", str(exc)) from exc
        w = _floats(wd, f"weights[{k}]")
        if w.ndim != 1 or w.shape[0] != space.size:
            raise SchemaError(f"weights[{k}]",
                              f"{w.shape} does not match {space.size} atoms")
        with np.errstate(over="ignore"):       # huge weights sum to inf
            total = w.sum()
        if abs(total - 1.0) > 1e-12:
            raise SchemaError(f"weights[{k}]", f"weights sum to {total!r}, expected 1")
        try:
            measures.append(DiscreteMeasure(space, w))
        except MomtError as exc:
            raise SchemaError(f"weights[{k}]", str(exc)) from exc
        spaces.append(space)

    cost_doc = doc.get("cost")
    if not isinstance(cost_doc, dict):
        raise SchemaError("cost", "need an object with 'builtin' or 'tensor'")
    sense = doc.get("sense", "min")
    if sense not in ("min", "max"):
        raise SchemaError("sense", f"must be 'min' or 'max', got {sense!r}")
    if "tensor" in cost_doc:
        params = {"values": _floats(cost_doc["tensor"], "cost.tensor")}
        kind = "tensor"
    elif "builtin" in cost_doc:
        kind = cost_doc["builtin"]
        if kind not in BUILTIN_KINDS or kind == "tensor":
            raise SchemaError("cost.builtin", f"unknown builtin {kind!r}")
        params = {}
        if kind == "gromovWasserstein":
            for name in ("xi", "A"):
                if name not in cost_doc:
                    raise SchemaError(f"cost.{name}", "missing")
                params[name] = _floats(cost_doc[name], f"cost.{name}")
            if params["xi"].ndim:
                raise SchemaError("cost.xi", "need a number")
            params["xi"] = float(params["xi"])
    else:
        raise SchemaError("cost", "need 'builtin' or 'tensor'")
    try:
        spec = CostSpec(kind, sense, params)
    except MomtError as exc:
        raise SchemaError("cost", str(exc)) from exc
    dims = sorted({s.dim for s in spaces})
    if spec.kind != "tensor" and len(dims) != 1:
        raise SchemaError("spaces", f"a builtin cost needs one point dimension, got {dims}")
    if spec.kind == "gromovWasserstein" and spec.params["A"].shape[0] != dims[0]:
        raise SchemaError("cost.A", f"need a {dims[0]}x{dims[0]} matrix")
    return DiscreteInstance(spaces, measures, spec)


def load_instance(path: str) -> DiscreteInstance:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise SchemaError("file", str(exc)) from exc
    except json.JSONDecodeError as exc:
        raise SchemaError("json", f"line {exc.lineno}: {exc.msg}") from exc
    return load_instance_dict(doc)


def instance_to_dict(instance: DiscreteInstance) -> dict:
    cost: dict = {}
    if instance.cost.kind == "tensor":
        cost["tensor"] = np.asarray(instance.cost.params["values"]).tolist()
    else:
        cost["builtin"] = instance.cost.kind
        if instance.cost.kind == "gromovWasserstein":
            cost["xi"] = float(instance.cost.params["xi"])
            cost["A"] = np.asarray(instance.cost.params["A"]).tolist()
    return {
        "version": SCHEMA_VERSION,
        "spaces": [{"name": s.name, "points": s.points.tolist()}
                   for s in instance.spaces],
        "weights": [m.weights.tolist() for m in instance.measures],
        "cost": cost,
        "sense": instance.sense,
    }


def _instance_hash(instance: DiscreteInstance) -> str:
    return hashlib.sha256(dump_text(instance_to_dict(instance)).encode()).hexdigest()


def _support_rows(plan) -> list[dict]:
    """A plan's entries as 1-based {"index", "mass"} rows, in index order."""
    return [{"index": [int(i) + 1 for i in idx], "mass": float(m)}
            for idx, m in sorted(plan.entries.items())]


def result_dict(instance, res: lp.SolveResult, certificates=None,
                provenance=None) -> dict:
    out = {
        "value": float(res.value),
        "support": _support_rows(res.plan),
        "potentials": [v.tolist() for v in res.potentials.vectors],
        "certificates": certificates or {},
        "provenance": {
            "solver_iterations": int(res.iterations),
            "duality_gap": float(res.duality_gap),
            "slack_residual": float(res.slack_residual),
            "tolerances": {"duality_gap": GAP_TOL},
            **(provenance or {}),
        },
    }
    return out


def _write_out(doc: dict, out_path: str | None):
    text = dump_text(doc)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_solve(args) -> int:
    instance = load_instance(args.instance)
    res = lp.solve(instance)
    certificates = {}
    if args.oracle:
        values = [v for _, v in lp.oracle_vertices(instance)]
        best = min(values) if instance.sense == "min" else max(values)
        certificates["oracle"] = {
            "vertices": len(values),
            "optimum": float(best),
            "agreement_gap": abs(float(best) - res.value),
            "agrees": abs(float(best) - res.value) <= args.tol,
        }
    _write_out(result_dict(instance, res, certificates), args.out)
    return 0


def _parse_subset(text: str, n_axes: int) -> tuple[int, ...]:
    try:
        indices = tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise SchemaError("--subset", f"not a comma-separated index list: {text!r}") from exc
    if any(i < 1 or i > n_axes for i in indices):
        raise SchemaError("--subset", f"axes must lie in 1..{n_axes}")
    return tuple(i - 1 for i in indices)


def cmd_reduce(args) -> int:
    instance = load_instance(args.instance)
    subset0 = _parse_subset(args.subset, instance.n_axes)
    try:
        subset = IndexSubset(subset0, instance.n_axes)
        subset.require_reducible()
    except MomtError as exc:
        raise SchemaError("--subset", str(exc)) from exc
    res = lp.solve(instance)
    report = verify_reduction_optimality(instance, res.plan, res.potentials, subset)
    doc = instance_to_dict(report.problem.instance)
    doc["provenance"] = {
        "parent_sha256": _instance_hash(instance),
        "subset": [i + 1 for i in subset.indices],
        "potential_gauge": "zero mean against each marginal after the first",
        "reduction": {
            "reduced_optimum": float(report.reduced_optimum),
            "pushforward_value": float(report.pushforward_value),
            "gap": float(report.gap),
            "passed": bool(report.passed),
        },
    }
    _write_out(doc, args.out)
    return 0


def cmd_diagnose(args) -> int:
    instance = load_instance(args.instance)
    res = lp.solve(instance)
    mono = check_cyclical_monotonicity(res.plan.support(), instance.cost_grid(),
                                       res.potentials, tol=args.tol)
    n = instance.n_axes
    split = (tuple(range(n - 1)), (n - 1,))
    freport = fiber_report(res.plan.support(), instance.cost_grid(), split)
    extreme = check_c_extreme(freport)
    cert = lp.uniqueness_certificate(instance, res)
    active = lp.minimizing_set(instance, res.potentials)
    certificates = {
        "cyclically_monotone": bool(mono.passed),
        "monotonicity_bound": mono.bound,
        "monotonicity_threshold": mono.threshold,
        "c_extreme": bool(extreme.passed),
        "c_extreme_split": [[a + 1 for a in split[0]], [a + 1 for a in split[1]]],
        "is_vertex": bool(lp.is_vertex(res.plan, instance.measures)),
        # the potentials are strictly complementary, so the active set is
        # the union of all optimal supports (within the active-set cutoff)
        "active_set_size": len(active.indices),
        "active_set_tolerance": active.tolerance,
        "uniqueness": {
            "status": cert.status,
            "face_probe_value_gap": float(cert.face_probe_value_gap),
            "max_tv_gap": float(cert.max_tv_gap),
            "witness": None if cert.witness is None else _support_rows(cert.witness),
        },
    }
    _write_out(result_dict(instance, res, certificates,
                           provenance={"seed": args.seed}), args.out)
    return 0


def _scenario_csvs(report: dict, base: str):
    support = report.get("support")
    if support:
        n_axes = len(support[0]["index"])
        write_csv(base + ".support.csv",
                  [f"i{k + 1}" for k in range(n_axes)] + ["mass"],
                  [row["index"] + [row["mass"]] for row in support])
        sizes: dict[int, int] = {}
        for row in support:
            sizes[row["index"][0]] = sizes.get(row["index"][0], 0) + 1
        write_csv(base + ".fibers.csv", ["atom", "fiber_size"],
                  [[k, v] for k, v in sorted(sizes.items())])
    if "collinearity" in report:
        write_csv(base + ".collinearity.csv",
                  ["z", "pair_a_x", "pair_a_y", "pair_b_x", "pair_b_y", "sine"],
                  [[r["z"], r["pair_a"][0], r["pair_a"][1], r["pair_b"][0],
                    r["pair_b"][1], r["sine"]] for r in report["collinearity"]])
    if report.get("kind") == "twoMapDemo" and "windows" in report:
        write_csv(base + ".windows.csv", ["atom", "alpha", "beta", "low", "high"],
                  report["windows"])


def _worker_count(n_jobs: int) -> int:
    """MOMT_THREADS (default: every core), clamped to 1..cores and the jobs."""
    cores = os.cpu_count() or 1
    text = os.environ.get("MOMT_THREADS", str(cores))
    try:
        workers = int(text)
    except ValueError as exc:
        raise SchemaError("MOMT_THREADS", f"not an integer: {text!r}") from exc
    return max(1, min(workers, cores, n_jobs))


def cmd_scenario(args) -> int:
    sizes = (args.n,) if args.n else ()
    seeds = [args.seed]
    if args.seeds:
        try:
            seeds = [int(s) for s in args.seeds.split(",")]
        except ValueError as exc:
            raise SchemaError("--seeds", f"not a comma-separated seed list: {args.seeds!r}") from exc
    # every config is checked before the first run starts
    configs = [ScenarioConfig(args.kind, seed=s, sizes=sizes, dimension=args.d)
               for s in sorted(seeds)]
    if len(configs) > 1:
        from concurrent.futures import ProcessPoolExecutor      # pulls in multiprocessing

        with ProcessPoolExecutor(max_workers=_worker_count(len(configs))) as pool:
            reports = list(pool.map(run_scenario, configs))
    else:
        reports = [run_scenario(configs[0])]
    # a study that fails its checks says so in its report, not in the exit code
    for config, report in zip(configs, reports):
        if args.out:
            base = os.path.join(args.out, f"{config.kind}_seed{config.seed}")
            os.makedirs(args.out, exist_ok=True)
            with open(base + ".json", "w", encoding="utf-8") as fh:
                fh.write(dump_text(report))
            _scenario_csvs(report, base)
        else:
            sys.stdout.write(dump_text(report))
    return 0


def _tolerance(text: str) -> float:
    """A `--tol` value: a finite, non-negative float (argparse exits 2 otherwise)."""
    value = float(text)
    if not math.isfinite(value) or value < 0:
        raise argparse.ArgumentTypeError(f"must be finite and non-negative, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="momt",
        description="exact multi-marginal transport: solve, reduce, diagnose, scenario",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve an instance file")
    p_solve.add_argument("instance")
    p_solve.add_argument("--out")
    p_solve.add_argument("--oracle", action="store_true",
                         help="cross-check against exhaustive vertex enumeration")
    p_solve.add_argument("--tol", type=_tolerance, default=1e-9)
    p_solve.set_defaults(fn=cmd_solve)

    p_red = sub.add_parser("reduce", help="write a reduced instance for an axis subset")
    p_red.add_argument("instance")
    p_red.add_argument("--subset", required=True, help="1-based axes, e.g. 1,2")
    p_red.add_argument("--out")
    p_red.set_defaults(fn=cmd_reduce)

    p_diag = sub.add_parser("diagnose", help="solve plus structure certificates")
    p_diag.add_argument("instance")
    p_diag.add_argument("--out")
    p_diag.add_argument("--seed", type=int, default=0, help="recorded in provenance")
    p_diag.add_argument("--tol", type=_tolerance, default=1e-9)
    p_diag.set_defaults(fn=cmd_diagnose)

    p_sc = sub.add_parser("scenario", help="run a reproduction study")
    p_sc.add_argument("kind", help="|".join(sorted(ALIASES)))
    p_sc.add_argument("--seed", type=int, default=0)
    p_sc.add_argument("--seeds", help="comma list for a batch run")
    p_sc.add_argument("--n", type=int, default=0)
    p_sc.add_argument("--d", type=int, default=0)
    p_sc.add_argument("--out", help="directory for report JSON and CSV tables")
    p_sc.set_defaults(fn=cmd_scenario)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's parser, built on first use: argparse setup is not free."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_VALIDATION
    except (SolverError, NonFiniteCost, InstanceTooLarge) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return _EXIT_SOLVER
    except MomtError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
