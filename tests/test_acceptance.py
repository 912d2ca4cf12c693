"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own verdicts.  All tolerances are pinned here.
"""

import time
from itertools import combinations

import numpy as np

from momt import lp
from momt.costs import CostSpec
from momt.extremality import gw_second_solution, gw_twist_count
from momt.instance import DiscreteInstance
from momt.measure import Coupling, DiscreteMeasure, Space, glue
from momt.reduction import verify_reduction_optimality
from momt.scenarios import ScenarioConfig, run_scenario
from momt.serialize import dump_text
from momt.twomap import (
    assemble_three_marginal,
    extreme_assemblies,
    lij_window,
    product_rows,
    unique_condition,
)
from conftest import dense_window_scan, two_map_restriction


def _verdict(name, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line)
    assert ok, line


def _random_instance(rng, sizes, kind, sense, uniform=False):
    spaces = [Space(f"S{k}", rng.normal(size=(int(n), 2)))
              for k, n in enumerate(sizes)]
    measures = []
    for s in spaces:
        if uniform:
            w = np.ones(s.size) / s.size
        else:
            w = rng.uniform(0.3, 1.0, s.size)
            w = w / w.sum()
        measures.append(DiscreteMeasure(s, w))
    return DiscreteInstance(spaces, measures, CostSpec(kind, sense))


def test_criterion_01_reduction_inheritance():
    # 200 seeded instances, N = 3, atom counts <= 5, both senses, every
    # proper subset of two axes: pushforward value within 1e-8 of the
    # reduced optimum, all inside the 120 s budget
    rng = np.random.default_rng(20260809)
    start = time.monotonic()
    worst = 0.0
    runs = 0
    for i in range(200):
        sizes = rng.integers(1, 6, 3)
        inst = _random_instance(
            rng, sizes,
            kind=("surplus", "attractive")[i % 2],
            sense=("min", "max")[i % 2],
            uniform=i % 5 == 0,
        )
        res = lp.solve(inst)
        for subset in combinations(range(3), 2):
            report = verify_reduction_optimality(inst, res.plan,
                                                 res.potentials, subset)
            worst = max(worst, report.gap)
            runs += 1
            assert report.gap <= 1e-8, (i, subset, report.gap)
    elapsed = time.monotonic() - start
    _verdict(
        "criterion 1 (reduction inheritance)",
        worst <= 1e-8 and elapsed < 120.0,
        f"{runs} subset checks over 200 instances, worst gap {worst:.2e}, "
        f"{elapsed:.1f}s < 120s",
    )


def test_criterion_02_strong_duality_and_slackness():
    rng = np.random.default_rng(77)
    worst_gap = worst_slack = 0.0
    count = 0
    for i in range(60):
        sizes = rng.integers(1, 5, int(rng.integers(2, 5)))
        inst = _random_instance(
            rng, sizes,
            kind=("surplus", "attractive", "repulsive")[i % 3],
            sense=("min", "max")[i % 2],
            uniform=i % 4 == 0,
        )
        res = lp.solve(inst)
        worst_gap = max(worst_gap, res.duality_gap)
        worst_slack = max(worst_slack, res.slack_residual)
        count += 1
    _verdict(
        "criterion 2 (strong duality + complementary slackness)",
        worst_gap <= 1e-8 and worst_slack <= 1e-8,
        f"{count} solves, max duality gap {worst_gap:.2e}, "
        f"max slackness residual {worst_slack:.2e}",
    )


def criterion_03_instances():
    """The oracle battery of criterion 3, in order."""
    rng = np.random.default_rng(5150)
    batteries = [
        (2, (2, 2)), (2, (3, 4)), (2, (5, 5)), (2, (4, 4)),
        (3, (2, 2, 2)), (3, (2, 2, 3)), (3, (2, 3, 3)), (3, (3, 3, 3)),
        (4, (2, 2, 2, 2)),
    ]
    return [_random_instance(rng, sizes, "surplus", ("min", "max")[i % 2],
                             uniform=i % 3 == 0)
            for i, (n_axes, sizes) in enumerate(batteries)]


def test_criterion_03_oracle_agreement():
    worst = 0.0
    checked = 0
    for inst in criterion_03_instances():
        sizes = inst.arities
        res = lp.solve(inst)
        values = [v for _, v in lp.oracle_enumerate(inst)]
        best = min(values) if inst.sense == "min" else max(values)
        gap = abs(best - res.value)
        worst = max(worst, gap)
        assert gap <= 1e-9, (sizes, gap)
        assert lp.is_vertex(res.plan, inst.measures), sizes
        checked += 1
    _verdict(
        "criterion 3 (oracle agreement + vertex outputs)",
        worst <= 1e-9,
        f"{checked} instances within caps, worst optimum gap {worst:.2e}",
    )


def test_criterion_04_gluing_uniqueness():
    rng = np.random.default_rng(404)
    cases = 0
    for i in range(50):
        n = int(rng.integers(2, 4))
        ny = int(rng.integers(2, 4))
        nz = int(rng.integers(2, 4))
        w = rng.uniform(0.3, 1.0, n)
        w = w / w.sum()
        T = rng.integers(0, ny, n)
        left = Coupling((n, ny), {(x, int(T[x])): w[x] for x in range(n)})
        right_dense = rng.uniform(0.05, 1.0, (n, nz))
        right_dense = right_dense * (w / right_dense.sum(1))[:, None]
        right = Coupling.from_dense(right_dense)
        glued = glue(left, right)
        model = lp.PolytopeModel(
            (n, ny, nz),
            [lp.MarginalConstraint((0, 1), left.to_dense()),
             lp.MarginalConstraint((0, 2), right.to_dense())],
        )
        vertices = lp.enumerate_vertices(model)
        assert len(vertices) == 1, (i, len(vertices))
        only = vertices[0].reshape(n, ny, nz)
        assert np.abs(glued.to_dense() - only).max() < 1e-10, i
        cases += 1
    _verdict(
        "criterion 4 (gluing uniqueness with one deterministic side)",
        cases == 50,
        f"{cases}/50 glued plans are the unique point of the pair-constrained polytope",
    )


def test_criterion_05_two_map_machinery():
    rng = np.random.default_rng(55)
    # (i) dense-scan admissible values always inside the analytic window
    grid_pts = [0.0, 1e-4, 0.3, 0.5, 0.77, 1.0]
    pairs = [(a, b) for a in grid_pts for b in grid_pts]
    pairs += [tuple(rng.uniform(0, 1, 2)) for _ in range(20)]
    for alpha, beta in pairs:
        lo, hi = lij_window(alpha, beta)
        admissible = dense_window_scan(alpha, beta)
        if admissible.size:
            assert admissible.min() >= lo - 1e-9
            assert admissible.max() <= hi + 1e-9

    # (ii) exactly two vertices per open atom: single-atom pair system
    maps1 = (np.array([0]), np.array([1]), np.array([0]), np.array([1]))
    for alpha, beta in [(0.5, 0.5), (0.3, 0.8), (0.62, 0.41)]:
        lower, upper = extreme_assemblies(np.array([alpha]), np.array([beta]),
                                          maps1, 2, 2)
        X = Space("X", np.array([[0.0]]))
        mu = DiscreteMeasure(X, np.array([1.0]))
        xy = two_map_restriction(np.array([alpha]), lower.T1, lower.T2, mu, 2)
        xz = two_map_restriction(np.array([beta]), lower.G1, lower.G2, mu, 2)
        model = lp.PolytopeModel(
            (1, 2, 2),
            [lp.MarginalConstraint((0, 1), xy.to_dense()),
             lp.MarginalConstraint((0, 2), xz.to_dense())],
        )
        vertices = lp.enumerate_vertices(model)
        assert len(vertices) == 2, (alpha, beta, len(vertices))
        got = {tuple(sorted(Coupling.from_dense(v.reshape(1, 2, 2)).entries))
               for v in vertices}
        want = {tuple(sorted(assemble_three_marginal(a, mu).entries))
                for a in (lower, upper)}
        assert got == want

    # (iii) collapsed windows give the product form exactly
    alpha = np.array([0.0, 1.0, 0.35, 0.8])
    beta = np.array([0.4, 0.6, 1.0, 0.0])
    maps4 = (np.arange(4) * 2, np.arange(4) * 2 + 1,
             np.arange(4) * 2, np.arange(4) * 2 + 1)
    lower, upper = extreme_assemblies(alpha, beta, maps4, 8, 8)
    per_atom, _ = unique_condition(alpha, beta)
    rows = product_rows(alpha, beta)
    tagb_dev = max(
        float(np.abs(lower.L[i] - rows[i]).max())
        for i in range(4) if per_atom[i]
    )
    assert tagb_dev <= 1e-12

    # (iv) mixing-weight recovery over oracle vertices and interior points
    report = run_scenario(ScenarioConfig("twomap", seed=13, sizes=(3,)))
    checks = report["checks"]
    assert checks["vertices_match_theta_endpoints"]
    assert checks["interior_theta_roundtrip"]
    assert checks["oracle_vertex_count"] == 2 ** checks["open_atoms"]
    _verdict(
        "criterion 5 (two-map window, vertices, product form, mixing recovery)",
        True,
        f"window scan contained, single-atom systems have 2 vertices, "
        f"product-form deviation {tagb_dev:.1e} <= 1e-12, "
        f"{checks['oracle_vertex_count']} vertices all recovered plus 20 interior points",
    )


def test_criterion_06_mirror_symmetry_study():
    report = run_scenario(ScenarioConfig("sphereReflection", seed=1, sizes=(3,)))
    checks = report["checks"]
    ok = (
        checks["off_diagonal_mass"] < 1e-12
        and checks["reflected_cost_gap"] < 1e-10
        and checks["reflected_distinct"]
        and checks["mixture_cost_gap"] < 1e-10
        and checks["mixture_max_fiber"] == 2
        and checks["certificate_status"] == "non-unique"
        and len(report["reflection_witness"]) == len(report["support"])
    )
    _verdict(
        "criterion 6 (mirror-symmetric sphere study)",
        ok,
        f"off-diagonal {checks['off_diagonal_mass']:.1e} < 1e-12, "
        f"reflected gap {checks['reflected_cost_gap']:.1e} < 1e-10, "
        f"mixture fiber {checks['mixture_max_fiber']}, "
        f"certificate {checks['certificate_status']} with reflection witness",
    )


def test_criterion_07_nested_shells():
    worst_sine = 0.0
    all_ok = True
    rows = []
    for radii, seeds in (((1.4,), (3, 5)), ((1.0, 1.6, 2.3), (2, 4))):
        for seed in seeds:
            report = run_scenario(ScenarioConfig("nestedShells", seed=seed,
                                                 sizes=(7,), radii=radii))
            c = report["checks"]
            worst_sine = max(worst_sine, c["max_collinearity_sine"])
            all_ok = all_ok and report["passed"] and c["reduced_plan_graph"] \
                and c["cp_extreme"] and c["sharing_pairs"] >= 1
            rows.append((len(radii), seed, c["sharing_pairs"]))
    _verdict(
        "criterion 7 (nested shells: graph reduction, collinearity, extremality)",
        all_ok and worst_sine < 1e-6,
        f"runs {rows}, worst collinearity sine {worst_sine:.1e} < 1e-6",
    )


GS_BATTERY = [
    (3, 8, 2), (3, 8, 4), (3, 8, 10), (3, 6, 1), (3, 6, 3), (3, 7, 5),
    (4, 4, 2), (4, 4, 5), (4, 5, 3), (4, 6, 1),
]


def test_criterion_08_pairwise_inner_product_study():
    unique_count = 0
    worst_tv = 0.0
    all_ok = True
    for n_axes, n, seed in GS_BATTERY:
        cfg = ScenarioConfig("gangboSwiech", seed=seed, sizes=(n,))
        cfg.extras["n_axes"] = n_axes
        report = run_scenario(cfg)
        c = report["checks"]
        all_ok = all_ok and c["full_plan_graph"] and c["map_agreement"] == 1.0
        if c["reconstruction"] is not None:
            worst_tv = max(worst_tv, c["reconstruction"]["tv"])
            all_ok = all_ok and c["reconstruction"]["tv"] < 1e-9
        unique_count += c["certificate_status"] == "unique"
    _verdict(
        "criterion 8 (pairwise inner-product reconstruction)",
        all_ok and unique_count >= 9,
        f"10 generic seeds: graphs, reconstruction tv <= {worst_tv:.1e} < 1e-9, "
        f"map agreement 1.0, {unique_count}/10 certified unique",
    )


def test_criterion_09_two_twist_counts():
    rng = np.random.default_rng(909)
    max_count = 0
    for trial in range(100):
        d = (2, 3)[trial % 2]
        A = rng.uniform(-1, 1, (d, d)) + np.eye(d)
        if abs(np.linalg.det(A)) < 1e-3:
            A = A + 0.5 * np.eye(d)
        xi = float(rng.uniform(0.2, 3.0) * (1 if rng.random() < 0.5 else -1))
        x0 = rng.uniform(-1, 1, d)
        y0 = rng.uniform(-1, 1, d)
        sphere = rng.normal(size=(70, d))
        sphere /= np.linalg.norm(sphere, axis=1, keepdims=True)
        cands = [y0[None, :], sphere * float(rng.uniform(0.3, 2.0))]
        second = gw_second_solution(x0, y0, A, xi)
        if second is not None:
            cands.append(second[None, :])
        count = gw_twist_count(x0, y0, A, xi, np.vstack(cands))
        max_count = max(max_count, count)
        assert count <= 2, trial
    fibers = []
    for seed in range(1, 11):
        report = run_scenario(ScenarioConfig("gromovWasserstein", seed=seed,
                                             sizes=(6,)))
        fibers.append(report["checks"]["max_fiber"])
        assert report["checks"]["max_fiber"] <= 2, seed
    _verdict(
        "criterion 9 (two-twist counts and two-map optima)",
        max_count <= 2 and max(fibers) <= 2,
        f"100 twist configurations with count <= {max_count}, "
        f"10 instances with max fiber {max(fibers)} <= 2",
    )


def test_criterion_10_distance_plus_quadratic():
    all_ok = True
    for seed in range(1, 11):
        report = run_scenario(ScenarioConfig("mongeQuadratic", seed=seed,
                                             sizes=(6,)))
        c = report["checks"]
        all_ok = (all_ok and c["full_plan_graph"]
                  and all(c["reduced_graph"].values())
                  and c["cyclically_monotone"])
    _verdict(
        "criterion 10 (distance plus double-quadratic cost)",
        all_ok,
        "10 generic seeds: full plan and both reductions are graphs, "
        "supports cyclically monotone at every cycle length",
    )


def test_criterion_11_determinism():
    configs = [
        ScenarioConfig("sphereReflection", seed=1, sizes=(3,)),
        ScenarioConfig("nestedShells", seed=2, sizes=(6,), radii=(1.0, 1.6, 2.3)),
        ScenarioConfig("gangboSwiech", seed=42, sizes=(6,)),
        ScenarioConfig("mongeQuadratic", seed=5, sizes=(5,)),
        ScenarioConfig("gromovWasserstein", seed=4, sizes=(6,)),
        ScenarioConfig("twoMapDemo", seed=13, sizes=(2,)),
    ]
    identical = True
    for config in configs:
        fresh = ScenarioConfig(config.kind, seed=config.seed, sizes=config.sizes,
                               radii=config.radii)
        a = dump_text(run_scenario(config))
        b = dump_text(run_scenario(fresh))
        identical = identical and a == b
        assert a == b, config.kind
    _verdict(
        "criterion 11 (byte-identical reports per seed)",
        identical,
        f"{len(configs)} scenario kinds re-run and compared bytewise",
    )
