import numpy as np
import pytest

from momt import lp, scenarios
from momt.errors import InvariantViolation, UnknownScenario
from momt.scenarios import (
    NormalField,
    ScenarioConfig,
    gen_nested_shells,
    gen_sphere_reflection,
    gen_two_map_demo,
    run_scenario,
)
from momt.serialize import dump_text
from conftest import twin_surplus_instance


def test_unknown_kind_rejected():
    with pytest.raises(UnknownScenario):
        ScenarioConfig("warpDrive")


def test_config_validation():
    with pytest.raises(InvariantViolation):
        ScenarioConfig("gs", sizes=(0,))
    with pytest.raises(InvariantViolation):
        ScenarioConfig("shells", radii=(2.0, 1.0))
    with pytest.raises(InvariantViolation):
        ScenarioConfig("shells", normal=(0.0, 0.0))


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

    dec = detect_map_decomposition(mixture, 0)
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
