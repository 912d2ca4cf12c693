"""Independent checks of momt's outputs.

Nothing here calls momt's solver or certificates.  Costs are tabulated
afresh with numpy from the instance files, every optimum comes from HiGHS
(``scipy.optimize.linprog``), and uniqueness is decided by a second HiGHS LP
over the optimal face.  The only momt code used is the public scenario
generator, to rebuild a scenario's instance from its seed.  scipy is imported
by the benchmark alone, after the timed part of a run.

Each ``check_*`` function returns a list of problems; an empty list passes.
Tolerances are relative to the cost span (max minus min over the grid).
"""

from __future__ import annotations

import csv
import json
from itertools import combinations

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_matrix

MASS_TOL = 1e-9        # marginal agreement of reported plans
VALUE_TOL = 1e-7       # optimal value against HiGHS, times the span
DUAL_TOL = 1e-8        # dual feasibility and dual value, times the span
ACTIVE_TOL = 1e-7      # momt's documented active-set cutoff (absolute)
FACE_TOL = 1e-9        # reduced-cost cutoff of the optimal face, times the span
UNIQUE_MASS = 1e-9     # off-support mass up to which the optimum is unique
WITNESS_TV = 1e-6      # total variation a non-uniqueness witness must exceed

# how check_plan words the two symptoms of a non-optimal plan reported with a
# zero duality gap (see scaled_fault_only)
VALUE_MISS = "value differs from HiGHS"
INFEASIBLE = "potentials infeasible"


# ---------------------------------------------------------------------------
# costs and transport LPs
# ---------------------------------------------------------------------------

def _axis(v, k, N):
    shape = [1] * N
    shape[k] = v.shape[0]
    return v.reshape(shape + list(v.shape[1:]))


def tabulate(doc: dict) -> np.ndarray:
    """Cost grid of an instance document, computed with numpy alone."""
    cost = doc["cost"]
    if "tensor" in cost:
        return np.asarray(cost["tensor"], dtype=float)
    pts = [np.asarray(s["points"], dtype=float) for s in doc["spaces"]]
    N = len(pts)
    kind = cost["builtin"]
    if kind in ("surplus", "gangboSwiech", "attractive", "repulsive"):
        out = np.zeros(tuple(p.shape[0] for p in pts))
        for i, j in combinations(range(N), 2):
            block = pts[i] @ pts[j].T
            if kind in ("attractive", "repulsive"):
                sq = (pts[i] ** 2).sum(1)[:, None] + (pts[j] ** 2).sum(1)[None, :]
                block = 0.5 * (sq - 2.0 * block)
                if kind == "repulsive":
                    block = -block
            idx = [None] * N
            idx[i] = idx[j] = slice(None)
            out = out + block[tuple(idx)]
        return out
    if kind == "mongeQuadratic":
        x, y, z = (_axis(p, k, 3) for k, p in enumerate(pts))
        return (np.sqrt(((x - y) ** 2).sum(-1)) + ((x - z) ** 2).sum(-1)
                + ((y - z) ** 2).sum(-1))
    if kind == "gromovWasserstein":
        x, y = pts
        A = np.asarray(cost["A"], dtype=float)
        return (np.outer((x ** 2).sum(1), (y ** 2).sum(1))
                + float(cost["xi"]) * (x @ A.T) @ y.T)
    raise ValueError(f"no independent tabulation for cost {kind!r}")


def _constraints(shape):
    """Sparse marginal constraint matrix: one row per atom of every axis."""
    N = len(shape)
    cells = int(np.prod(shape))
    grid = np.indices(shape).reshape(N, -1)
    offsets = np.concatenate([[0], np.cumsum(shape)[:-1]])
    rows = np.concatenate([offsets[k] + grid[k] for k in range(N)])
    cols = np.tile(np.arange(cells), N)
    return csr_matrix((np.ones(N * cells), (rows, cols)), shape=(sum(shape), cells))


class TransportLP:
    """One transport problem solved by HiGHS, with its optimal face."""

    def __init__(self, cost: np.ndarray, weights, sense: str):
        self.cost = np.asarray(cost, dtype=float)
        self.shape = self.cost.shape
        self.weights = [np.asarray(w, dtype=float) for w in weights]
        self.sign = 1.0 if sense == "min" else -1.0
        self.span = float(self.cost.max() - self.cost.min()) or 1.0
        self.A = _constraints(self.shape)
        self.b = np.concatenate(self.weights)
        c = self.sign * self.cost.reshape(-1)
        res = linprog(c, A_eq=self.A, b_eq=self.b, bounds=(0, None), method="highs")
        if res.status != 0:
            raise RuntimeError(f"HiGHS failed: {res.message}")
        self.value = self.sign * float(res.fun)
        self.reduced = c - self.A.T @ res.eqlin.marginals

    def face_witness(self, support_cells):
        """Most mass that an optimal plan can put off ``support_cells``.

        By complementary slackness every optimal plan lives on the cells whose
        reduced cost vanishes under any optimal dual, so one LP over those
        cells decides uniqueness: a positive optimum is a second optimal plan.
        """
        active = self.reduced <= FACE_TOL * self.span
        active[support_cells] = True
        cols = np.flatnonzero(active)
        off = ~np.isin(cols, support_cells)
        res = linprog(-off.astype(float), A_eq=self.A[:, cols], b_eq=self.b,
                      bounds=(0, None), method="highs")
        if res.status != 0:
            raise RuntimeError(f"HiGHS face LP failed: {res.message}")
        x = np.zeros(self.A.shape[1])
        x[cols] = np.maximum(res.x, 0.0)
        return float(-res.fun), x

    def plan_value(self, x) -> float:
        return float(self.cost.reshape(-1) @ x)


def doc_lp(doc: dict, scale: float | None = None) -> TransportLP:
    cost = tabulate(doc)
    if scale is not None:
        # the reference optimum of a scaled cost is the scale times the
        # optimum of the unscaled one
        cost = cost / scale
    return TransportLP(cost, doc["weights"], doc.get("sense", "min"))


# ---------------------------------------------------------------------------
# plan-level checks
# ---------------------------------------------------------------------------

def _dense(entries, shape, one_based=True):
    x = np.zeros(shape)
    for row in entries:
        idx = tuple(int(i) - (1 if one_based else 0) for i in row["index"])
        if len(idx) != len(shape) or any(not 0 <= i < n for i, n in zip(idx, shape)):
            raise ValueError(f"support index {row['index']} outside the grid")
        x[idx] += float(row["mass"])
    return x


def _marginal_problems(x, weights, tol, what):
    problems = []
    if x.min() < -tol:
        problems.append(f"{what}: negative mass {x.min():.3e}")
    N = x.ndim
    for k, w in enumerate(weights):
        marg = x.sum(axis=tuple(a for a in range(N) if a != k))
        dev = float(np.abs(marg - np.asarray(w)).max())
        if dev > tol:
            problems.append(f"{what}: marginal {k + 1} off by {dev:.3e}")
    return problems


def check_plan(lp: TransportLP, result: dict, scale: float = 1.0):
    """Support, value and potentials of a solve or diagnose result."""
    problems = []
    try:
        x = _dense(result["support"], lp.shape)
    except (KeyError, ValueError, TypeError) as exc:
        return [f"unreadable support: {exc}"]
    problems += _marginal_problems(x, lp.weights, MASS_TOL, "support")
    span = scale * lp.span
    value = float(result["value"])
    if abs(value - scale * lp.value) > VALUE_TOL * span:
        problems.append(f"{VALUE_MISS}: {value!r} against {scale * lp.value!r}")
    if abs(scale * lp.plan_value(x.reshape(-1)) - value) > VALUE_TOL * span:
        problems.append("value does not match the cost of the support")
    phis = [np.asarray(v, dtype=float) for v in result["potentials"]]
    total = sum(_axis(phi, k, len(phis)) for k, phi in enumerate(phis))
    viol = lp.sign * (total - scale * lp.cost)
    if viol.max() > DUAL_TOL * span:
        problems.append(f"{INFEASIBLE}: worst violation {viol.max():.3e}")
    dual = sum(float(phi @ w) for phi, w in zip(phis, lp.weights))
    if abs(dual - value) > DUAL_TOL * span:
        problems.append(f"dual value {dual!r} does not meet the value {value!r}")
    for k in range(1, len(phis)):
        if abs(float(phis[k] @ lp.weights[k])) > DUAL_TOL * span:
            problems.append(f"potential {k + 1} breaks the zero-mean gauge")
    return problems


def _support_cells(result, shape):
    return np.array(sorted(
        int(np.ravel_multi_index([i - 1 for i in row["index"]], shape))
        for row in result["support"]))


def _is_vertex(cells, shape) -> bool:
    grid = np.array(np.unravel_index(cells, shape))
    offsets = np.concatenate([[0], np.cumsum(shape)[:-1]])
    cols = np.zeros((sum(shape), len(cells)))
    for k in range(len(shape)):
        cols[offsets[k] + grid[k], np.arange(len(cells))] = 1.0
    return int(np.linalg.matrix_rank(cols)) == len(cells)


def check_solve(doc, result, scale=None):
    lp = doc_lp(doc, scale)
    return check_plan(lp, result, 1.0 if scale is None else scale)


def scaled_fault_only(problems) -> bool:
    """Whether ``problems`` are exactly the known scaled-cost fault.

    On a cost scaled by 1e-10, ``lp.solve`` returns a plan whose value misses
    the optimum while it reports a duality gap near zero, so its potentials
    meet that value and must be infeasible.  A value mismatch, alone or with
    infeasible potentials, is that fault; any other problem is a new one.
    """
    kinds = {p.split(":")[0] for p in problems}
    return VALUE_MISS in kinds and kinds <= {VALUE_MISS, INFEASIBLE}


def check_oracle(doc, result):
    lp = doc_lp(doc)
    problems = check_plan(lp, result)
    oracle = result.get("certificates", {}).get("oracle")
    if not oracle:
        return problems + ["no oracle certificate"]
    if abs(float(oracle["optimum"]) - lp.value) > VALUE_TOL * lp.span:
        problems.append(f"oracle optimum {oracle['optimum']!r} differs from HiGHS")
    if not oracle["agrees"]:
        problems.append("oracle reports disagreement")
    return problems


def check_diagnose(doc, result, twin=False):
    """A diagnose result; ``twin`` instances are non-unique by construction."""
    lp = doc_lp(doc)
    problems = check_plan(lp, result)
    cert = result["certificates"]
    cells = _support_cells(result, lp.shape)
    if not cert["cyclically_monotone"]:
        problems.append("optimal plan reported not cyclically monotone")
    if not cert["is_vertex"] or not _is_vertex(cells, lp.shape):
        problems.append("plan is not a vertex")
    phis = [np.asarray(v, dtype=float) for v in result["potentials"]]
    slack = np.abs(lp.cost - sum(_axis(p, k, len(phis)) for k, p in enumerate(phis)))
    if int((slack <= ACTIVE_TOL).sum()) != cert["active_set_size"]:
        problems.append("active set size does not match the potentials")
    off_mass, x = lp.face_witness(cells)
    status = cert["uniqueness"]["status"]
    if off_mass <= UNIQUE_MASS:
        expected = "unique"
    elif abs(lp.plan_value(x) - lp.value) <= VALUE_TOL * lp.span and off_mass > WITNESS_TV:
        expected = "non-unique"
    else:
        return problems + [f"face LP is ambiguous: off-support mass {off_mass:.3e}"]
    if status != expected:
        problems.append(f"uniqueness status {status!r}, HiGHS face LP says {expected!r}")
    witness = cert["uniqueness"]["witness"]
    if status == "non-unique" and witness:
        w = _dense(witness, lp.shape)
        problems += _marginal_problems(w, lp.weights, MASS_TOL, "witness")
        if abs(lp.plan_value(w.reshape(-1)) - lp.value) > VALUE_TOL * lp.span:
            problems.append("witness is not optimal")
        plan = _dense(result["support"], lp.shape)
        if 0.5 * np.abs(w - plan).sum() <= WITNESS_TV:
            problems.append("witness is within 1e-6 total variation of the plan")
    elif status == "non-unique":
        problems.append("non-unique status without a witness")
    if twin and expected != "non-unique":
        problems.append("twin instance found unique: the witness path did not run")
    return problems


def check_reduce(parent: dict, reduced: dict, subset: str):
    axes = [int(a) - 1 for a in subset.split(",")]
    problems = []
    if reduced["weights"] != [parent["weights"][a] for a in axes]:
        problems.append("reduced weights are not the subset's marginals")
    if reduced["sense"] != parent["sense"]:
        problems.append("reduced sense differs from the parent")
    lp = TransportLP(np.asarray(reduced["cost"]["tensor"], dtype=float),
                     reduced["weights"], reduced["sense"])
    rep = reduced["provenance"]["reduction"]
    for key in ("reduced_optimum", "pushforward_value"):
        if abs(float(rep[key]) - lp.value) > VALUE_TOL * lp.span:
            problems.append(f"{key} {rep[key]!r} differs from HiGHS {lp.value!r}")
    if not rep["passed"]:
        problems.append("reduction verification reports failure")
    return problems


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------

def scenario_doc(kind: str, seed: int, n: int) -> dict:
    """Rebuild a scenario's instance with momt's public generator."""
    from momt import scenarios

    config = scenarios.ScenarioConfig(kind, seed=seed, sizes=(n,) if n else ())
    gen = {
        "sphereReflection": scenarios.gen_sphere_reflection,
        "nestedShells": scenarios.gen_nested_shells,
        "gangboSwiech": scenarios.gen_gangbo_swiech,
        "mongeQuadratic": scenarios.gen_monge_quadratic,
        "gromovWasserstein": scenarios.gen_gromov_wasserstein,
        "twoMapDemo": scenarios.gen_two_map_demo,
    }[kind](config)
    inst = gen[0] if isinstance(gen, tuple) else gen
    cost = {"builtin": inst.cost.kind}
    if inst.cost.kind == "tensor":
        cost = {"tensor": np.asarray(inst.cost.params["values"]).tolist()}
    elif inst.cost.kind == "gromovWasserstein":
        cost.update(xi=float(inst.cost.params["xi"]),
                    A=np.asarray(inst.cost.params["A"]).tolist())
    return {"spaces": [{"points": s.points.tolist()} for s in inst.spaces],
            "weights": [m.weights.tolist() for m in inst.measures],
            "cost": cost, "sense": inst.sense}


def check_scenario(kind, seed, n, stem):
    with open(stem + ".json", encoding="utf-8") as fh:
        report = json.load(fh)
    problems = []
    if report.get("kind") != kind or report.get("seed") != seed:
        problems.append("report names another scenario or seed")
    doc = scenario_doc(kind, seed, n)
    lp = doc_lp(doc)
    value = report["value"] if "value" in report else report["checks"]["solver_value"]
    if abs(float(value) - lp.value) > VALUE_TOL * lp.span:
        problems.append(f"value {value!r} differs from HiGHS {lp.value!r}")
    x = _dense(report["support"], lp.shape, one_based=False)
    problems += _marginal_problems(x, lp.weights, MASS_TOL, "support")
    if abs(lp.plan_value(x.reshape(-1)) - lp.value) > VALUE_TOL * lp.span:
        problems.append("support is not an optimal plan")
    with open(stem + ".support.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    table = [[int(v) for v in r[:-1]] + [float(r[-1])] for r in rows[1:]]
    if table != [row["index"] + [row["mass"]] for row in report["support"]]:
        problems.append("support.csv does not match the report")
    return problems
