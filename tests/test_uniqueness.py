"""Uniqueness certificate: the face LP of `solve` against two oracles.

The first oracle is the probe certificate that the face LP replaced: the
optimal face is cut out of the transport polytope by one extra equality
row, the cost normalised as in `solve` at the plan's value, and swept by
two fixed random directions, each minimized and maximized by the dense
simplex.  The second is a face LP solved by HiGHS over the cells that its
own optimal duals make active.
"""

import numpy as np
import pytest

from momt import lp
from momt.reduction import reduce
from momt.scenarios import (
    ScenarioConfig,
    gen_gangbo_swiech,
    gen_monge_quadratic,
    gen_sphere_reflection,
)
from momt.tolerances import GAP_TOL, WITNESS_TV_TOL
from conftest import (
    random_instance,
    tensor_instance,
    twin_surplus_instance,
    twin_tensor,
)
from test_acceptance import GS_BATTERY

PROBE_SEED = 91217


def probe_status(inst, plan):
    """Status of `plan` under the probe certificate (the oracle)."""
    grid = inst.cost_grid().reshape(-1)
    row = (grid - grid.min()) / (float(np.ptp(grid)) or 1.0)
    model = lp.standard_model(inst.measures)
    A, b = model.A, model.b
    # a cost row in the span of the marginal rows prices every plan alike
    coeff = np.linalg.lstsq(A.T, row, rcond=None)[0]
    if np.abs(row - A.T @ coeff).max() > 1e-9 * (1.0 + np.abs(row).max()):
        A = np.vstack([A, row])
        b = np.append(b, row @ plan.to_dense().reshape(-1))
    rng = np.random.default_rng(PROBE_SEED)
    max_tv = 0.0
    for _ in range(2):
        probe = rng.standard_normal(model.n_cols)
        for sign in (1.0, -1.0):
            x, _, _ = lp._simplex(A, b, sign * probe)
            cand = lp._coupling_from_x(x, inst.arities)
            max_tv = max(max_tv, plan.total_variation(cand))
    if max_tv <= GAP_TOL:
        return "unique"
    if max_tv > WITNESS_TV_TOL:
        return "non-unique"
    return "inconclusive"


def assert_parity(inst):
    res = lp.solve(inst)
    cert = lp.uniqueness_certificate(inst, res)
    assert cert.status == probe_status(inst, res.plan)
    return cert.status


def _scenario_instance(kind, sizes, seed):
    gen = {"sphereReflection": gen_sphere_reflection,
           "mongeQuadratic": gen_monge_quadratic,
           "gangboSwiech": gen_gangbo_swiech}[kind]
    out = gen(ScenarioConfig(kind, seed=seed, sizes=sizes))
    return out[0] if isinstance(out, tuple) else out


# -- parity with the probe certificate -------------------------------------------

@pytest.mark.parametrize("kind,sizes,expected", [
    ("sphereReflection", (), "non-unique"),
    ("sphereReflection", (4,), "non-unique"),
    ("mongeQuadratic", (), "unique"),
    ("mongeQuadratic", (7,), "unique"),
    ("gangboSwiech", (), "unique"),
    ("gangboSwiech", (6,), "unique"),
    ("gangboSwiech", (9,), "unique"),
])
def test_scenario_instances_match_probe_oracle(kind, sizes, expected):
    for seed in range(6):
        inst = _scenario_instance(kind, sizes, seed)
        assert assert_parity(inst) == expected, seed


def test_acceptance_instances_and_their_reductions_match_probe_oracle():
    # criterion 6's mirror study and criterion 8's battery, whose pair
    # reductions are the reduced problems the reconstruction certifies
    config = ScenarioConfig("sphereReflection", seed=1, sizes=(3,))
    assert assert_parity(gen_sphere_reflection(config)[0]) == "non-unique"
    for n_axes, n, seed in GS_BATTERY:
        cfg = ScenarioConfig("gangboSwiech", seed=seed, sizes=(n,))
        cfg.extras["n_axes"] = n_axes
        inst = gen_gangbo_swiech(cfg)
        assert_parity(inst)
        res = lp.solve(inst)
        for j in range(1, n_axes):
            assert_parity(reduce(inst, res.potentials, (0, j)).instance)


def test_twin_instances_match_probe_oracle():
    for seed in range(4):
        assert assert_parity(twin_surplus_instance(seed, n=4)) == "non-unique"
        values, weights = twin_tensor(np.random.default_rng(seed))
        for sense in ("min", "max"):
            inst = tensor_instance(values, weights, sense)
            assert assert_parity(inst) == "non-unique", (seed, sense)


@pytest.mark.parametrize("scale,shift", [(1e12, 0.0), (1e-10, 0.0),
                                         (1.0, 1e9), (1.0, -1e9)])
def test_scaled_and_shifted_costs_match_probe_oracle(scale, shift):
    for seed in range(2):
        rng = np.random.default_rng(seed)
        unique = rng.uniform(0.0, 1.0, (4, 4, 4))
        weights = [rng.dirichlet(np.ones(4)) for _ in range(3)]
        twin, twin_weights = twin_tensor(rng, n=4)
        for values, w, status in ((unique, weights, "unique"),
                                  (twin, twin_weights, "non-unique")):
            inst = tensor_instance(values * scale + shift, w, ("min", "max")[seed])
            assert assert_parity(inst) == status, seed


def test_random_instances_match_probe_oracle():
    for seed in range(12):
        inst = random_instance(seed + 900, n_axes=2 + seed % 3, max_atoms=4,
                               kind=("surplus", "attractive")[seed % 2],
                               sense=("min", "max")[seed % 3 == 0],
                               uniform=seed % 2 == 0)
        assert_parity(inst)


# -- the certificate's three outcomes ----------------------------------------------

def _tiny_twin(delta, sense="min"):
    """Two axis-1 twins, one of mass delta, shared by both axis-0 atoms.

    Both axis-0 atoms send mass to the twins at cost 0, so the delta atom
    can be served by either of them: the two optimal vertices lie
    2 * delta apart in total variation.
    """
    values = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
    sign = 1.0 if sense == "min" else -1.0
    return tensor_instance(sign * values, [[0.5, 0.5], [0.6 - delta, delta, 0.4]],
                           sense)


@pytest.mark.parametrize("sense", ["min", "max"])
def test_second_vertex_within_witness_tolerance_is_inconclusive(sense):
    # off-support mass 1e-7 is above the face LP's 1e-9 zero, and the
    # distance 2e-7 is below the 1e-6 a witness must exceed
    inst = _tiny_twin(1e-7, sense)
    res = lp.solve(inst)
    assert res.second_vertex is not None
    cert = lp.uniqueness_certificate(inst, res)
    assert cert.status == "inconclusive"
    assert cert.witness is None
    assert cert.face_probe_value_gap == pytest.approx(1e-7, rel=1e-6)
    assert cert.max_tv_gap == pytest.approx(2e-7, rel=1e-6)
    assert probe_status(inst, res.plan) == "inconclusive"
    # the same instance with a visible twin is non-unique
    wide = _tiny_twin(1e-5, sense)
    wide_res = lp.solve(wide)
    cert = lp.uniqueness_certificate(wide, wide_res)
    assert cert.status == "non-unique"
    assert cert.max_tv_gap == pytest.approx(2e-5, rel=1e-6)
    assert cert.witness.total_variation(wide_res.plan) == cert.max_tv_gap


def test_witness_is_optimal_and_its_off_support_mass_is_reported():
    for seed in range(4):
        inst = twin_surplus_instance(seed, n=5)
        res = lp.solve(inst)
        cert = lp.uniqueness_certificate(inst, res)
        assert cert.status == "non-unique"
        grid = inst.cost_grid()
        value = sum(grid[idx] * m for idx, m in cert.witness.entries.items())
        assert abs(value - res.value) <= GAP_TOL * np.ptp(grid)
        off = sum(m for idx, m in cert.witness.entries.items()
                  if idx not in res.plan.entries)
        assert cert.face_probe_value_gap == pytest.approx(off, rel=1e-9)


# -- HiGHS face LP beyond the oracle caps ---------------------------------------------

def highs_status(inst, plan):
    """Uniqueness decided by HiGHS: the most mass an optimal plan puts off
    the plan's support, over the cells active under HiGHS's own duals."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    model = lp.standard_model(inst.measures)
    A, b = model.A_full, model.b_full
    grid = inst.cost_grid().reshape(-1)
    c = grid if inst.sense == "min" else -grid
    ref = linprog(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
    assert ref.status == 0
    reduced = c - A.T @ ref.eqlin.marginals
    support = plan.to_dense().reshape(-1) > 0
    active = (reduced <= 1e-9 * (float(np.ptp(grid)) or 1.0)) | support
    cols = np.flatnonzero(active)
    face = linprog(-(~support[cols]).astype(float), A_eq=A[:, cols], b_eq=b,
                   bounds=(0, None), method="highs")
    assert face.status == 0
    off_mass = -face.fun
    if off_mass <= 1e-9:
        return "unique"
    return "non-unique" if off_mass > WITNESS_TV_TOL else "inconclusive"


def test_status_matches_highs_face_lp_beyond_oracle_caps():
    pytest.importorskip("scipy.optimize")
    instances = [twin_surplus_instance(seed, n=5) for seed in range(3)]
    instances += [tensor_instance(*twin_tensor(np.random.default_rng(s)))
                  for s in range(3)]
    instances += [_scenario_instance(kind, (), s) for s in range(3)
                  for kind in ("sphereReflection", "mongeQuadratic", "gangboSwiech")]
    for seed in range(12):
        instances.append(random_instance(seed + 1100, n_axes=2 + seed % 3,
                                         max_atoms=(16, 7, 5)[seed % 3],
                                         kind=("surplus", "attractive")[seed % 2],
                                         sense=("min", "max")[seed % 5 == 0],
                                         uniform=seed % 4 == 0))
    seen = set()
    for i, inst in enumerate(instances):
        if inst.cost_grid().size <= lp.ORACLE_GRID_CAP:
            continue
        res = lp.solve(inst)
        status = lp.uniqueness_certificate(inst, res).status
        assert status == highs_status(inst, res.plan), i
        seen.add(status)
    assert seen == {"unique", "non-unique"}
