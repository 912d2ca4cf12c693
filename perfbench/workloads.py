"""Seeded inputs and command lists of the three workloads.

Every instance is a pure function of the benchmark's ``--seed`` and the
rung's position, except the scaled-cost rungs, whose inputs are fixed: they
exercise a known ``lp.solve`` fault that must fail on every run, whatever the
seed.  momt only ever sees the instance files written here and the scenario
seeds passed on its command line.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

# (axes N, atoms per axis n, cost, sense, weights, instances).  Pivot counts
# of one rung vary by 9-37 % from seed to seed, so the ladder is shaped so
# that no single instance moves a metric.  The large rungs run on two or
# three instances each; the 4096-cell top rung is N=4 n=8 (about 0.45 s)
# rather than N=3 n=16 (about 1 s), one instance of which carried 60 % of
# the total's seed-to-seed variance.  The median command falls among 13
# instances of the 400-cell rung (about 10 reference units each), whose
# solve time varies least from seed to seed.  With the two scaled rungs
# that makes 37 commands, under the 40 at which a tail percentile would
# have ten samples beyond it.
SOLVE_LADDER = [
    (2, 10, "surplus", "max", "uniform", 1),
    (3, 5, "surplus", "max", "dirichlet", 1),
    (2, 12, "attractive", "min", "dirichlet", 1),
    (3, 6, "mongeQuadratic", "min", "uniform", 1),
    (5, 3, "attractive", "min", "uniform", 1),
    (4, 4, "surplus", "max", "dirichlet", 1),
    (2, 16, "tensor", "max", "dirichlet", 1),
    (3, 7, "tensor", "min", "uniform", 1),
    (2, 20, "attractive", "min", "dirichlet", 13),
    (3, 8, "tensor", "max", "dirichlet", 1),
    (4, 5, "surplus", "max", "uniform", 1),
    (3, 9, "mongeQuadratic", "min", "dirichlet", 1),
    (5, 4, "surplus", "max", "uniform", 1),
    (4, 6, "attractive", "min", "dirichlet", 1),
    (3, 11, "surplus", "max", "uniform", 1),
    (3, 12, "tensor", "max", "dirichlet", 1),
    (4, 7, "attractive", "min", "dirichlet", 2),
    (5, 5, "attractive", "min", "dirichlet", 3),
    (4, 8, "attractive", "min", "dirichlet", 2),
]

# tensor costs multiplied by 1e-10; (N, n, sense, weights, fixed input seed)
SCALE = 1e-10
SCALED_RUNGS = [
    (3, 4, "min", "uniform", 1001),
    (2, 6, "max", "dirichlet", 1002),
]

# (N, n, cost, sense, weights); "twin" instances repeat one atom's cost
# slice and weight so that their optimum is never unique (make_instance)
DIAGNOSE_LADDER = [
    (2, 8, "surplus", "max", "dirichlet"),
    (2, 12, "attractive", "min", "dirichlet"),
    (3, 5, "attractive", "min", "dirichlet"),
    (3, 6, "tensor", "min", "dirichlet"),
    (3, 6, "mongeQuadratic", "min", "dirichlet"),
    (4, 4, "surplus", "max", "dirichlet"),
    (2, 8, "twin", "min", "dirichlet"),
    (3, 5, "twin", "max", "dirichlet"),
]

# (N, n, cost, sense, weights, subset) for `momt reduce`, each on its own
# small instance.  These 28 cheap commands outnumber the diagnose
# commands above them and the oracle commands below, so the median command
# is always a reduce, drawn from instances of similar size.
REDUCE_RUNGS = [
    (3, 4, "attractive", "min", "dirichlet", "1,2"),
    (3, 4, "surplus", "max", "dirichlet", "2,3"),
    (3, 4, "twin", "max", "dirichlet", "1,3"),
    (3, 4, "tensor", "min", "dirichlet", "1,3"),
    (3, 4, "mongeQuadratic", "min", "dirichlet", "1,2"),
    (3, 4, "surplus", "max", "dirichlet", "1,2"),
    (3, 4, "tensor", "max", "dirichlet", "2,3"),
    (3, 4, "attractive", "min", "dirichlet", "1,3"),
    (3, 4, "mongeQuadratic", "min", "dirichlet", "2,3"),
    (3, 4, "twin", "min", "dirichlet", "1,2"),
    (4, 3, "surplus", "max", "dirichlet", "1,2,3"),
    (4, 3, "attractive", "min", "dirichlet", "2,4"),
    (4, 3, "tensor", "min", "dirichlet", "1,3,4"),
    (4, 3, "attractive", "min", "dirichlet", "2,3,4"),
    (4, 3, "surplus", "max", "dirichlet", "1,4"),
    (4, 3, "tensor", "max", "dirichlet", "1,2"),
    (5, 2, "surplus", "max", "dirichlet", "1,2"),
    (5, 2, "attractive", "min", "dirichlet", "1,3,5"),
    (5, 2, "tensor", "min", "dirichlet", "2,4"),
    (5, 2, "surplus", "max", "dirichlet", "1,2,3,4"),
    (3, 4, "surplus", "max", "dirichlet", "1,3"),
    (3, 4, "attractive", "min", "dirichlet", "2,3"),
    (3, 4, "tensor", "min", "dirichlet", "1,2"),
    (3, 4, "twin", "max", "dirichlet", "2,3"),
    (4, 3, "surplus", "max", "dirichlet", "3,4"),
    (4, 3, "attractive", "min", "dirichlet", "1,2,4"),
    (5, 2, "attractive", "min", "dirichlet", "1,2"),
    (5, 2, "tensor", "max", "dirichlet", "1,3,4,5"),
]

# random-weight instances inside the oracle caps (81 cells, 12 atoms)
ORACLE_RUNGS = [
    (2, 4, "surplus", "max", "dirichlet"),
    (3, 2, "attractive", "min", "dirichlet"),
    (2, 3, "tensor", "min", "dirichlet"),
]

# --n per command (0 is the kind's default size), command i of a kind on
# scenario seed i.  Ten default-size gromovWasserstein commands sit below
# nine default-size twoMapDemo commands (a small LP plus vertex enumeration
# on a pair-constrained polytope, dominated by fixed costs per call) and
# fourteen dearer commands sit above, so the median command is always a
# default-size twoMapDemo run.  gangboSwiech, the most expensive and most
# variable command, runs eight times at --n 6, so that no single instance
# sets the total.  Kinds and sizes that exit 3 on some seeds are left out,
# since their failures could not be a fixed share of the commands:
# sphereReflection (default size and --n 4), mongeQuadratic (default size
# and --n 7) and gangboSwiech at --n 9 ("singular basis" in the uniqueness
# probes), and gangboSwiech at its default size ("basic solution drifted
# negative" in lp.solve).
SCENARIO_SIZES = {
    "gromovWasserstein": (0,) * 10 + (10,),
    "twoMapDemo": (0,) * 9 + (4,),
    "nestedShells": (0, 0, 0, 8),
    "gangboSwiech": (6,) * 8,
}
SCENARIO_SEEDS = 11


@dataclass
class Op:
    """One momt command: its argv, the files it writes, and what to check."""

    name: str
    kind: str                      # solve | oracle | diagnose | reduce | scenario
    argv: list[str]
    outputs: list[str]
    doc: dict | None = None        # the instance, for instance commands
    params: dict = field(default_factory=dict)
    known_fault: bool = False      # fails today because of the scaled-cost fault


def make_instance(rng, N, n, cost, sense, weights, d=2, scale=None) -> dict:
    """An instance document: N clouds of n points in [-1, 1]^d and a cost."""
    spaces = [{"name": f"X{k + 1}", "points": rng.uniform(-1, 1, (n, d)).tolist()}
              for k in range(N)]
    ws = []
    for _ in range(N):
        w = np.full(n, 1.0 / n) if weights == "uniform" else rng.dirichlet(np.ones(n))
        ws.append((w / w.sum()).tolist())
    if cost in ("tensor", "twin"):
        values = rng.uniform(0.0, 1.0, (n,) * N)
        if cost == "twin":
            # Atoms 1 and 2 of the second axis become interchangeable, each of
            # weight 1/3, and every atom of the first axis weighs less than
            # 2/3.  A vertex plan gives twins the same fiber only by putting
            # both on one cell whose atoms each carry both twins' mass, which
            # the first axis cannot do; so swapping the twins of an optimal
            # vertex gives a second optimal plan, and the optimum is never
            # unique (needs n > 3).
            values[:, 1] = values[:, 0]
            rest = np.asarray(ws[1][2:])
            ws[1] = [1 / 3, 1 / 3, *(rest / rest.sum() / 3).tolist()]
            ws[0] = ((np.asarray(ws[0]) + 1.0 / n) / 2).tolist()
        if scale is not None:
            values = values * scale
        cost_doc = {"tensor": values.tolist()}
    else:
        cost_doc = {"builtin": cost}
    return {"version": 1, "spaces": spaces, "weights": ws, "cost": cost_doc,
            "sense": sense}


def _rng(seed: int, *salt: int):
    return np.random.default_rng([int(seed) % 2**32, *salt])


def _instance_op(workdir, name, kind, doc, extra=(), known_fault=False, params=None):
    path = os.path.join(workdir, name + ".json")
    out = os.path.join(workdir, name + ".out.json")
    command = "solve" if kind == "oracle" else kind
    return Op(name, kind, [command, path, *extra, "--out", out], [out], doc,
              params or {}, known_fault)


def solve_ladder(workdir, seed):
    ops = []
    for i, (N, n, cost, sense, weights, copies) in enumerate(SOLVE_LADDER):
        for c in range(copies):
            doc = make_instance(_rng(seed, 1, i, c), N, n, cost, sense, weights)
            ops.append(_instance_op(
                workdir, f"solve{i:02d}{c:02d}_N{N}n{n}_{cost}_{weights}", "solve", doc))
    for i, (N, n, sense, weights, fixed) in enumerate(SCALED_RUNGS):
        doc = make_instance(np.random.default_rng(fixed), N, n, "tensor", sense,
                            weights, scale=SCALE)
        ops.append(_instance_op(workdir, f"scaled{i}_N{N}n{n}_tensor_{weights}",
                                "solve", doc, known_fault=True,
                                params={"scale": SCALE}))
    return ops


def diagnose_ladder(workdir, seed):
    ops = []
    for i, (N, n, cost, sense, weights) in enumerate(DIAGNOSE_LADDER):
        doc = make_instance(_rng(seed, 2, i), N, n, cost, sense, weights)
        ops.append(_instance_op(workdir, f"diag{i}_N{N}n{n}_{cost}", "diagnose", doc,
                                extra=("--seed", str(i)),
                                params={"twin": cost == "twin"}))
    for i, (N, n, cost, sense, weights, subset) in enumerate(REDUCE_RUNGS):
        doc = make_instance(_rng(seed, 5, i), N, n, cost, sense, weights)
        ops.append(_instance_op(
            workdir, f"reduce{i:02d}_N{N}n{n}_{cost}_{subset.replace(',', '')}",
            "reduce", doc, extra=("--subset", subset), params={"subset": subset}))
    for i, rung in enumerate(ORACLE_RUNGS):
        doc = make_instance(_rng(seed, 3, i), *rung)
        ops.append(_instance_op(workdir, f"oracle{i}_N{rung[0]}n{rung[1]}_{rung[2]}",
                                "oracle", doc, extra=("--oracle",)))
    return ops


def scenario_suite(workdir, seed):
    ops = []
    seeds = [int(s) for s in _rng(seed, 4).integers(0, 100_000, SCENARIO_SEEDS)]
    for kind, sizes in SCENARIO_SIZES.items():
        for s, n in zip(seeds, sizes):
            name = f"{kind}_seed{s}_n{n or 'default'}"
            outdir = os.path.join(workdir, name)
            argv = ["scenario", kind, "--seed", str(s), "--out", outdir]
            if n:
                argv += ["--n", str(n)]
            ops.append(Op(name, "scenario", argv, [outdir],
                          params={"kind": kind, "seed": s, "n": n,
                                  "stem": os.path.join(outdir, f"{kind}_seed{s}")}))
    return ops


WORKLOADS = {
    "solve_ladder": solve_ladder,
    "diagnose_ladder": diagnose_ladder,
    "scenario_suite": scenario_suite,
}


def write_inputs(ops) -> None:
    """Write every instance file the commands read; scenarios need none."""
    for op in ops:
        if op.doc is not None:
            with open(op.argv[1], "w", encoding="utf-8") as fh:
                json.dump(op.doc, fh)
