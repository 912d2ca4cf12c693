from itertools import combinations

import numpy as np
import pytest

from momt import lp
from momt.costs import CostSpec
from momt.errors import (
    InfeasiblePotentials,
    NotAGraph,
    SubsetNotProper,
    SubsetTooSmall,
)
from momt.instance import DiscreteInstance
from momt.measure import DiscreteMeasure, Space, pushforward
from momt.reduction import (
    IndexSubset,
    reconstruct_from_pair_reductions,
    reduce,
    reduce_chain,
    solve_pair_reductions,
    verify_reduction_optimality,
)
from momt.scenarios import (
    ScenarioConfig,
    gen_gangbo_swiech,
    gen_nested_shells,
    gen_sphere_reflection,
)
from conftest import random_instance, tensor_instance, twin_surplus_instance
from test_acceptance import GS_BATTERY


def test_subset_validation():
    s = IndexSubset((0, 2), 3)
    assert s.complement == (1,)
    with pytest.raises(SubsetTooSmall):
        IndexSubset((0,), 3).require_reducible()
    with pytest.raises(SubsetNotProper):
        IndexSubset((0, 1, 2), 3).require_reducible()


def test_separable_cost_reduces_to_partial_sum():
    rng = np.random.default_rng(2)
    spaces = [Space(f"S{k}", rng.normal(size=(3, 1))) for k in range(3)]
    a, b, g = rng.normal(size=3), rng.normal(size=3), rng.normal(size=3)
    values = a[:, None, None] + b[None, :, None] + g[None, None, :]
    measures = [DiscreteMeasure(s, np.ones(3) / 3) for s in spaces]
    inst = DiscreteInstance(spaces, measures,
                            CostSpec("tensor", "min", {"values": values}))
    pots = lp.Potentials([a.copy(), b.copy(), g.copy()], "min")
    red = reduce(inst, pots, (0, 1))
    assert np.abs(red.reduced_cost - (a[:, None] + b[None, :])).max() < 1e-12


def test_surplus_reduction_is_bilinear_plus_sum_conjugate():
    # the pair table equals <x, y> + psi(x + y) with psi the conjugate-style
    # fold of the third marginal's potential, tabulated independently here
    inst = random_instance(31, n_axes=3, max_atoms=4, kind="surplus", sense="max")
    res = lp.solve(inst)
    red = reduce(inst, res.potentials, (0, 1))
    phi3 = res.potentials.vectors[2]
    Z = inst.spaces[2].points
    n0, n1 = inst.arities[0], inst.arities[1]
    expected = np.zeros((n0, n1))
    for i in range(n0):
        for j in range(n1):
            t = inst.spaces[0].points[i] + inst.spaces[1].points[j]
            psi = max(float(t @ Z[k]) - phi3[k] for k in range(inst.arities[2]))
            expected[i, j] = float(
                inst.spaces[0].points[i] @ inst.spaces[1].points[j]
            ) + psi
    assert np.abs(red.reduced_cost - expected).max() < 1e-12


def test_reduction_requires_feasible_potentials():
    inst = random_instance(4, n_axes=3, max_atoms=3)
    bad = lp.Potentials([np.full(n, 10.0) for n in inst.arities], "min")
    with pytest.raises(InfeasiblePotentials):
        reduce(inst, bad, (0, 1))


def test_argmin_witness_attains_and_is_lexicographic_first():
    inst = random_instance(9, n_axes=3, max_atoms=3, sense="min")
    res = lp.solve(inst)
    red = reduce(inst, res.potentials, (0, 2))
    grid = inst.cost_grid() - res.potentials.vectors[1].reshape(1, -1, 1)
    for i in range(inst.arities[0]):
        for k in range(inst.arities[2]):
            j = int(red.argmin_witness[i, k, 0])
            assert grid[i, j, k] == pytest.approx(red.reduced_cost[i, k], abs=1e-12)
            better = [jj for jj in range(j)
                      if grid[i, jj, k] <= red.reduced_cost[i, k] - 1e-15]
            assert not better


def test_pushforward_attains_reduced_optimum_seed5():
    inst = random_instance(5, n_axes=3, max_atoms=3)
    res = lp.solve(inst)
    report = verify_reduction_optimality(inst, res.plan, res.potentials, (0, 2))
    assert report.passed
    assert report.gap <= 1e-9


def test_singleton_axes_reduce_trivially():
    inst = tensor_instance(np.full((1, 1, 1), 2.0))
    res = lp.solve(inst)
    report = verify_reduction_optimality(inst, res.plan, res.potentials, (0, 1))
    assert report.passed and report.gap == pytest.approx(0.0, abs=1e-15)


def test_dual_inheritance_and_value_split():
    # restricted potentials stay feasible for the reduced table, their dual
    # value equals the reduced optimum, and the complement potentials carry
    # exactly the remaining share of the full optimum
    for seed in (0, 1, 2, 3):
        inst = random_instance(seed + 40, n_axes=3, max_atoms=4,
                               sense=("min", "max")[seed % 2])
        res = lp.solve(inst)
        for subset in combinations(range(3), 2):
            red = reduce(inst, res.potentials, subset)
            assert red.inherited.feasibility_violation(red.reduced_cost) <= 1e-9
            reduced_value = lp.solve(red.instance).value
            dual_value = red.inherited.dual_value(red.instance.measures)
            assert abs(dual_value - reduced_value) <= 1e-8
            comp = sum(
                float(res.potentials.vectors[k] @ inst.measures[k].weights)
                for k in red.subset.complement
            )
            assert abs(reduced_value + comp - res.value) <= 1e-8


def test_chain_for_three_axes_is_single_prefix():
    inst = random_instance(8, n_axes=3, max_atoms=3)
    res = lp.solve(inst)
    chain = reduce_chain(inst, res.potentials)
    assert len(chain) == 1
    assert chain[0].subset.indices == (0, 1)


def test_chain_separable_four_axes():
    rng = np.random.default_rng(6)
    parts = [rng.normal(size=2) for _ in range(4)]
    values = (parts[0][:, None, None, None] + parts[1][None, :, None, None]
              + parts[2][None, None, :, None] + parts[3][None, None, None, :])
    inst = tensor_instance(values)
    pots = lp.Potentials([p.copy() for p in parts], "min")
    chain = reduce_chain(inst, pots)
    assert np.abs(chain[0].reduced_cost - (parts[0][:, None] + parts[1][None, :])
                  ).max() < 1e-12
    assert np.abs(chain[1].reduced_cost
                  - (parts[0][:, None, None] + parts[1][None, :, None]
                     + parts[2][None, None, :])).max() < 1e-12


def test_chain_nesting_identity_seed9():
    inst = random_instance(9, n_axes=4, max_atoms=2, kind="surplus", sense="max")
    res = lp.solve(inst)
    chain = reduce_chain(inst, res.potentials)   # raises if nesting fails
    assert [c.subset.indices for c in chain] == [(0, 1), (0, 1, 2)]


# -- full-plan reconstruction ---------------------------------------------------

def _gs_instance(seed, n=8, n_axes=3):
    rng = np.random.default_rng(seed)
    spaces = [Space(f"X{k}", rng.uniform(-1, 1, (n, 2))) for k in range(n_axes)]
    measures = [DiscreteMeasure(s, np.ones(n) / n) for s in spaces]
    return DiscreteInstance(spaces, measures, CostSpec("surplus", "max"))


def test_reconstruction_matches_plan_seed42():
    inst = _gs_instance(42)
    res = lp.solve(inst)
    assembled, report = reconstruct_from_pair_reductions(
        inst, solve_pair_reductions(inst, res.potentials), reference_plan=res.plan)
    assert report.hypothesis_holds
    assert report.tv_to_plan < 1e-9
    assert report.value_gap <= 1e-8
    assert report.feasible_dev <= 1e-10


def test_reconstruction_trivial_singletons():
    inst = tensor_instance(np.full((1, 1, 1), 1.5))
    res = lp.solve(inst)
    assembled, report = reconstruct_from_pair_reductions(
        inst, solve_pair_reductions(inst, res.potentials), reference_plan=res.plan)
    assert assembled.entries == {(0, 0, 0): pytest.approx(1.0)}
    assert report.passed


def test_reconstruction_reports_non_unique_reductions():
    # twin atoms on the last axis give the pair problem a fat optimal face
    # for every optimal dual: the assembly stays feasible and optimal but
    # the certificate withholds the identity claim
    inst = twin_surplus_instance(6)
    res = lp.solve(inst)
    assembled, report = reconstruct_from_pair_reductions(
        inst, solve_pair_reductions(inst, res.potentials), reference_plan=res.plan)
    assert not report.hypothesis_holds
    assert report.feasible_dev <= 1e-10


def test_reconstruction_diagonal_identity_on_mirror_instance():
    # twin plane marginals force the first two axes onto the diagonal, so
    # the pair reduction against the second axis is the identity graph
    from momt.scenarios import ScenarioConfig, gen_sphere_reflection

    config = ScenarioConfig("sphereReflection", seed=1, sizes=(3,))
    inst, _, _ = gen_sphere_reflection(config)
    res = lp.solve(inst)
    red = reduce(inst, res.potentials, (0, 1))
    sol = lp.solve(red.instance)
    for (i, j), _mass in sol.plan.entries.items():
        assert i == j
    assembled, report = reconstruct_from_pair_reductions(
        inst, solve_pair_reductions(inst, res.potentials), reference_plan=res.plan)
    assert report.feasible_dev <= 1e-10
    assert report.value_gap <= 1e-8


def _glue_cases():
    for n_axes, n, seed in GS_BATTERY:
        yield gen_gangbo_swiech(ScenarioConfig("gs", seed=seed, sizes=(n,),
                                               extras={"n_axes": n_axes}))
    for seed in range(6):
        yield gen_nested_shells(ScenarioConfig("shells", seed=seed))[0]
        yield gen_sphere_reflection(ScenarioConfig("sphere", seed=seed))[0]


def test_reconstruction_restricts_to_every_pair_plan():
    # the glued plan's pair marginals are the pair plans, the last (the one
    # that is not a graph) included, on uniform and non-uniform weights
    for inst in _glue_cases():
        res = lp.solve(inst)
        pairs = solve_pair_reductions(inst, res.potentials)
        assembled, report = reconstruct_from_pair_reductions(inst, pairs, res.plan)
        assert assembled.arities == inst.arities
        assert report.j0 == inst.n_axes - 1
        for j, (_, sol) in pairs.items():
            assert pushforward(assembled, (0, j)).total_variation(sol.plan) <= 1e-15


def test_reconstruction_gives_an_empty_axis_0_atom_no_cell():
    for seed in range(4):
        base = _gs_instance(seed, n=5)
        extra = np.random.default_rng(seed + 100).uniform(-1, 1, (1, 2))
        X0 = Space("X0", np.vstack([base.spaces[0].points, extra]))
        w0 = np.r_[np.full(5, 0.2), 0.0]
        inst = DiscreteInstance([X0, *base.spaces[1:]],
                                [DiscreteMeasure(X0, w0), *base.measures[1:]],
                                base.cost)
        res = lp.solve(inst)
        assembled, report = reconstruct_from_pair_reductions(
            inst, solve_pair_reductions(inst, res.potentials), res.plan)
        assert report.passed
        assert all(idx[0] != 5 for idx in assembled.entries)


def test_not_a_graph_error_names_axis():
    # force a multi-valued pair reduction by duplicating a zero-cost tensor
    inst = tensor_instance(np.zeros((2, 2, 2)))
    res = lp.solve(inst)
    try:
        reconstruct_from_pair_reductions(
            inst, solve_pair_reductions(inst, res.potentials), reference_plan=res.plan)
    except NotAGraph as err:
        assert err.axis in (1, 2)
    # zero cost may also reconstruct if the solver happens to pick graphs;
    # either outcome is legitimate for a fully degenerate instance


def test_universal_pushforward_optimality():
    # every proper subset with at least two axes, both senses
    for seed in range(8):
        n_axes = 3 if seed % 2 == 0 else 4
        inst = random_instance(seed + 60, n_axes=n_axes, max_atoms=3,
                               sense=("min", "max")[seed % 2])
        res = lp.solve(inst)
        for p in range(2, n_axes):
            for subset in combinations(range(n_axes), p):
                report = verify_reduction_optimality(inst, res.plan,
                                                     res.potentials, subset)
                assert report.passed, (seed, subset, report.gap)


# -- tolerances relative to the parent cost's span ------------------------------

SCALED_COSTS = {
    "x1e9": lambda v: v * 1e9,
    "x1e12": lambda v: v * 1e12,
    "+1e9": lambda v: v + 1e9,
    "-1e9": lambda v: v - 1e9,
    "x1e6+1e9": lambda v: v * 1e6 + 1e9,
}


def _dirichlet_tensor(seed, transform, n_axes, n):
    rng = np.random.default_rng(seed)
    values = transform(rng.uniform(0.0, 1.0, (n,) * n_axes))
    weights = []
    for _ in range(n_axes):
        w = rng.dirichlet(np.ones(n))
        weights.append(w / w.sum())
    return tensor_instance(values, weights)


@pytest.mark.parametrize("name", sorted(SCALED_COSTS))
def test_every_reduction_passes_on_scaled_and_shifted_costs(name):
    # solve guarantees dual feasibility within the span-relative rule, so
    # reduce must accept its potentials and the gaps must pass under the
    # same rule, at any scale and shift of the cost
    for seed in range(6):
        for n_axes, n in ((3, 4), (4, 3)):
            inst = _dirichlet_tensor(seed, SCALED_COSTS[name], n_axes, n)
            res = lp.solve(inst)
            for p in range(2, n_axes):
                for subset in combinations(range(n_axes), p):
                    report = verify_reduction_optimality(inst, res.plan,
                                                         res.potentials, subset)
                    assert report.passed, (seed, subset, report.gap)


@pytest.mark.parametrize("shift", [1e9, -1e9])
def test_reconstruction_passes_on_a_shifted_cost(shift):
    for seed in range(4):
        base = _gs_instance(seed, n=6)
        inst = DiscreteInstance(base.spaces, base.measures,
                                CostSpec("tensor", "max",
                                         {"values": base.cost_grid() + shift}))
        res = lp.solve(inst)
        _, report = reconstruct_from_pair_reductions(
            inst, solve_pair_reductions(inst, res.potentials), res.plan)
        assert report.passed, (seed, report.value_gap)
