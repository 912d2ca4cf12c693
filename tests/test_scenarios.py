import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from momt import lp, scenarios
from momt.errors import InstanceTooLarge, InvariantViolation, UnknownScenario
from momt.measure import Coupling
from momt.scenarios import (
    NormalField,
    ScenarioConfig,
    gen_nested_shells,
    gen_sphere_reflection,
    gen_two_map_demo,
    run_scenario,
)
from momt.serialize import dump_text
from momt.twomap import (
    assemble_three_marginal,
    extreme_assemblies,
    recover_theta,
)
from conftest import twin_surplus_instance


def test_unknown_kind_rejected():
    with pytest.raises(UnknownScenario):
        ScenarioConfig("warpDrive")


def test_config_validation():
    with pytest.raises(InvariantViolation):
        ScenarioConfig("gs", sizes=(0,))
    with pytest.raises(InvariantViolation):
        ScenarioConfig("gs", seed=-1)
    with pytest.raises(InvariantViolation):
        ScenarioConfig("shells", radii=(2.0, 1.0))


def test_normal_field_unit_length():
    with pytest.raises(InvariantViolation):
        NormalField(np.array([[1.0, 1.0]]))
    NormalField(np.array([[1.0, 0.0], [0.0, -1.0]]))


# -- mirror-symmetry study -----------------------------------------------------

def test_sphere_generator_structure():
    inst, reflection, equator = gen_sphere_reflection(
        ScenarioConfig("sphere", seed=1, sizes=(3,))
    )
    z = inst.spaces[2].points
    gamma = inst.measures[2].weights
    assert (reflection[reflection] == np.arange(len(reflection))).all()
    for k, r in enumerate(reflection):
        assert np.allclose(z[k] * [1, 1, -1], z[r], atol=1e-15)
        assert gamma[k] == pytest.approx(gamma[r], abs=1e-15)
    assert not equator.any()
    assert np.allclose(np.linalg.norm(z, axis=1), 1.0, atol=1e-12)
    assert np.allclose(inst.spaces[0].points[:, 2], 0.0)


def test_equator_atoms_are_fixed_points():
    cfg = ScenarioConfig("sphere", seed=4, sizes=(2,))
    cfg.extras["equator"] = 2
    inst, reflection, equator = gen_sphere_reflection(cfg)
    for k in np.flatnonzero(equator):
        assert reflection[k] == k
        assert inst.spaces[2].points[k, 2] == 0.0


def test_sphere_run_passes_and_flips():
    report = run_scenario(ScenarioConfig("sphere", seed=1, sizes=(3,)))
    checks = report["checks"]
    assert report["passed"]
    assert checks["support_diagonal"]
    assert checks["off_diagonal_mass"] < 1e-12
    assert checks["reflected_cost_gap"] < 1e-10
    assert checks["reflected_distinct"]
    assert checks["mixture_max_fiber"] == 2
    assert checks["certificate_status"] == "non-unique"
    assert report["reflection_witness"] != report["support"]


def test_equatorial_only_reflection_is_identity():
    cfg = ScenarioConfig("sphere", seed=2)
    cfg.extras["pairs"] = 0
    cfg.extras["equator"] = 3
    report = run_scenario(cfg)
    checks = report["checks"]
    assert not checks["reflected_distinct"]
    assert not checks["expect_distinct"]
    assert checks["reflected_tv"] == 0.0
    assert report["passed"]


def test_mixture_is_optimal_two_map_plan():
    inst, reflection, _ = gen_sphere_reflection(
        ScenarioConfig("sphere", seed=5, sizes=(4,))
    )
    res = lp.solve(inst)
    reflected = res.plan.push_axis_map(2, reflection)
    mixture = res.plan.mix(reflected, 0.5)
    grid = inst.cost_grid()
    mix_value = sum(grid[idx] * m for idx, m in mixture.entries.items())
    assert abs(mix_value - res.value) < 1e-10
    from momt.extremality import detect_map_decomposition

    dec = detect_map_decomposition(mixture)
    assert dec.max_fiber == 2


# -- nested shells ---------------------------------------------------------------

def test_shell_generator_geometry():
    inst, meta = gen_nested_shells(
        ScenarioConfig("shells", seed=3, sizes=(7,), radii=(1.0, 1.6, 2.3))
    )
    z = inst.spaces[2].points
    radii = np.array(meta["radii"])
    assert np.allclose(np.linalg.norm(z, axis=1),
                       radii[meta["shell_of"]], atol=1e-12)
    # pole atoms sit exactly where the outward normal is parallel to the
    # plane direction
    for k, kind in enumerate(meta["z_kind"]):
        if kind == "pole":
            n_k = meta["normals"].vectors[k]
            sine = abs(n_k[0] * meta["direction"][1]
                       - n_k[1] * meta["direction"][0])
            assert sine < 1e-12
    # the construction is the solver's optimum
    res = lp.solve(inst)
    assert res.plan.total_variation(meta["expected"]) < 1e-12


def test_shells_pass_both_depths():
    for radii, seed in (((1.4,), 3), ((1.0, 1.6, 2.3), 2)):
        report = run_scenario(ScenarioConfig("shells", seed=seed, sizes=(6,),
                                             radii=radii))
        checks = report["checks"]
        assert report["passed"]
        assert checks["reduced_plan_graph"]
        assert checks["sharing_pairs"] >= 1
        assert checks["max_collinearity_sine"] < 1e-6
        assert checks["cp_extreme"]


# -- pairwise inner-product and distance studies ----------------------------------

def test_gs_run_seed42():
    report = run_scenario(ScenarioConfig("gs", seed=42, sizes=(8,)))
    checks = report["checks"]
    assert report["passed"]
    assert checks["full_plan_graph"]
    assert checks["reconstruction"]["tv"] < 1e-9
    assert checks["map_agreement"] == 1.0
    assert checks["certificate_status"] == "unique"


def test_gs_single_atom_trivial():
    report = run_scenario(ScenarioConfig("gs", seed=0, sizes=(1,)))
    assert report["checks"]["full_plan_graph"]
    assert report["checks"]["map_agreement"] == 1.0


def test_gs_four_axes():
    cfg = ScenarioConfig("gs", seed=2, sizes=(4,))
    cfg.extras["n_axes"] = 4
    report = run_scenario(cfg)
    assert report["passed"]
    assert sorted(report["checks"]["reduced_graph"]) == ["1", "2", "3"]


def test_gs_degenerate_seed_is_flagged_not_failed(monkeypatch):
    # twin atoms on the last axis make the pair reduction against it
    # non-unique for every optimal dual, not just for one pivot path's
    monkeypatch.setattr(scenarios, "gen_gangbo_swiech",
                        lambda config: twin_surplus_instance(config.seed,
                                                             config.sizes[0]))
    report = run_scenario(ScenarioConfig("gs", seed=6, sizes=(8,)))
    assert report["checks"]["degenerate_flag"]
    assert not report["passed"]
    assert report["checks"]["reconstruction"]["hypothesis_unique"]["2"] is False


def test_gs_generic_seeds_pass():
    # every seed has a unique optimum that is a graph; the strictly
    # complementary potentials keep every pair reduction unique too
    for seed in range(12):
        report = run_scenario(ScenarioConfig("gs", seed=seed, sizes=(6,)))
        assert report["passed"], seed
        assert not report["checks"]["degenerate_flag"], seed


@pytest.mark.parametrize("n_axes", [3, 4])
def test_gs_solves_each_pair_reduction_once(monkeypatch, n_axes):
    # the full problem plus the N - 1 pair reductions, which the driver's
    # checks, the reconstruction and the conjugate tables share
    from momt import reduction

    calls, reduced = [], []

    def counting(instance, *args, **kwargs):
        calls.append(instance.n_axes)
        return real(instance, *args, **kwargs)

    def counting_reduce(instance, potentials, subset):
        reduced.append(tuple(subset))
        return real_reduce(instance, potentials, subset)

    real, real_reduce = lp.solve, reduction.reduce
    monkeypatch.setattr(lp, "solve", counting)
    monkeypatch.setattr(reduction, "solve", counting)
    monkeypatch.setattr(reduction, "reduce", counting_reduce)
    cfg = ScenarioConfig("gs", seed=2, sizes=(4,))
    cfg.extras["n_axes"] = n_axes
    report = run_scenario(cfg)
    assert report["checks"]["reconstruction"] is not None
    assert calls == [n_axes] + [2] * (n_axes - 1)
    assert reduced == [(0, j) for j in range(1, n_axes)]


def test_mq_run_generic():
    report = run_scenario(ScenarioConfig("mq", seed=5, sizes=(6,)))
    checks = report["checks"]
    assert report["passed"]
    assert checks["full_plan_graph"]
    assert checks["reduced_graph"] == {"1": True, "2": True}
    assert checks["cyclically_monotone"]


def test_mq_touching_supports_flagged():
    cfg = ScenarioConfig("mq", seed=5, sizes=(6,))
    cfg.extras["separation"] = 0.0
    report = run_scenario(cfg)
    assert "hypothesis_violated" in report
    assert not report["passed"]
    assert report["checks"] == {}


@pytest.mark.parametrize("d", range(4))
def test_gw_three_atoms(d):
    # one heavy atom of mass 2/3 on a three-atom axis; two would outweigh it
    for seed in range(10):
        assert run_scenario(ScenarioConfig("gw", seed=seed, sizes=(3,), dimension=d))["passed"]


def test_gw_run():
    report = run_scenario(ScenarioConfig("gw", seed=4, sizes=(6,)))
    checks = report["checks"]
    assert report["passed"]
    assert checks["max_fiber"] <= 2
    assert checks["twist_counts_max"] <= 2
    assert checks["zero_x0_count"] == 1


# -- two-map demonstration ---------------------------------------------------------

def test_two_map_demo_interior():
    report = run_scenario(ScenarioConfig("twomap", seed=13, sizes=(2,)))
    checks = report["checks"]
    assert report["passed"]
    assert checks["oracle_vertex_count"] == 2 ** checks["open_atoms"]
    assert checks["vertices_match_theta_endpoints"]
    assert checks["interior_theta_roundtrip"]


def test_two_map_demo_alpha_zero_unique():
    cfg = ScenarioConfig("twomap", seed=1, sizes=(2,))
    cfg.extras["alpha"] = [0.0, 0.0]
    report = run_scenario(cfg)
    checks = report["checks"]
    assert report["passed"]
    assert checks["unique_condition_global"]
    assert checks["oracle_vertex_count"] == 1
    assert checks["tagb_product_form"]
    # the atoms of weight 0 keep their indices, and the windows the true alpha
    inst, _ = gen_two_map_demo(cfg)
    assert inst.arities == (2, 4, 4)
    assert (inst.measures[1].weights[[0, 2]] == 0.0).all()
    assert [row[1] for row in report["windows"]] == [0.0, 0.0]


def theta_round_trip(config, fibers):
    """The vertex count and endpoint check of the pair polytope's products,
    one θ round trip per product vertex: recover θ, rebuild the assembly
    and match it, with θ at 0 or 1 on every atom."""
    inst, meta = gen_two_map_demo(config)
    mu = inst.measures[0]
    lower, _ = extreme_assemblies(meta["alpha"], meta["beta"], meta["maps"],
                                      meta["n_y"], meta["n_z"])
    count, matched, theta_ok = 0, 0, True
    for choice in itertools.product(*fibers):
        count += 1
        vertex = Coupling.from_dense(np.stack(choice).reshape(inst.arities))
        theta = recover_theta(vertex, lower, mu)
        rebuilt = assemble_three_marginal(replace(lower, theta=theta), mu)
        if rebuilt.total_variation(vertex) < 1e-10:
            matched += 1
            theta_ok &= bool(np.all((theta < 1e-9) | (theta > 1 - 1e-9)))
    return count, matched == count and theta_ok


ALPHAS = [None, [0.0, 0.0], [1.0, 0.3], [0.0, 1.0], [0.5, 0.5]]


@pytest.mark.parametrize("n", range(1, 7))
def test_two_map_fiber_checks_match_the_theta_round_trip(monkeypatch, n):
    # the report checks each fiber's vertices against the endpoint
    # conditionals; the product vertices, each sent through the θ round
    # trip, must give the same count and verdict
    calls = []
    pair_polytope_fibers = scenarios.pair_polytope_fibers

    def spy(target_xy, target_xz):
        calls.append(pair_polytope_fibers(target_xy, target_xz))
        return calls[-1]

    monkeypatch.setattr(scenarios, "pair_polytope_fibers", spy)
    for seed in range(20):
        for alpha in ALPHAS if n == 2 else [None]:
            config = ScenarioConfig("twomap", seed=seed, sizes=(n,))
            if alpha is not None:
                config.extras["alpha"] = alpha
            checks = run_scenario(config)["checks"]
            count, matched = theta_round_trip(config, calls.pop())
            assert checks["oracle_vertex_count"] == count
            assert checks["vertices_match_theta_endpoints"] == matched


def test_two_map_demo_memory_is_linear_in_n():
    # the 2^12 product vertices are never built; as dense arrays they
    # peaked at 246 MB
    tracemalloc.start()
    try:
        report = run_scenario(ScenarioConfig("twomap", seed=5, sizes=(12,)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report["checks"]["oracle_vertex_count"] == 2 ** 12
    assert peak < 10e6


def test_two_map_demo_size_is_capped_by_the_grid():
    # 4 * 36^3 cells fit GRID_CAP, 4 * 37^3 do not
    inst, _ = gen_two_map_demo(ScenarioConfig("twomap", sizes=(36,)))
    assert inst.grid_size() == 4 * 36**3 <= lp.GRID_CAP
    for n in (37, 1000):
        with pytest.raises(InstanceTooLarge):
            gen_two_map_demo(ScenarioConfig("twomap", sizes=(n,)))


def test_two_map_demo_generator_unique_restrictions():
    inst, meta = gen_two_map_demo(ScenarioConfig("twomap", seed=13, sizes=(3,)))
    # every second/third-axis atom is owned by exactly one first-axis atom,
    # so the prescribed restrictions are the unique supported couplings
    res = lp.solve(inst)
    assert res.value < 1e-12
    for axis in (1, 2):
        marg = res.plan.marginal_on((0, axis))
        owners = (marg > 1e-12).sum(axis=0)
        assert (owners == 1).all()


# -- determinism --------------------------------------------------------------------

@pytest.mark.parametrize("kind,kwargs", [
    ("sphere", {"sizes": (3,)}),
    ("shells", {"sizes": (6,), "radii": (1.0, 1.6, 2.3)}),
    ("gs", {"sizes": (6,)}),
    ("mq", {"sizes": (5,)}),
    ("gw", {"sizes": (6,)}),
    ("twomap", {"sizes": (2,)}),
])
def test_reports_are_bytewise_deterministic(kind, kwargs):
    a = run_scenario(ScenarioConfig(kind, seed=9, **kwargs))
    b = run_scenario(ScenarioConfig(kind, seed=9, **kwargs))
    assert dump_text(a) == dump_text(b)
