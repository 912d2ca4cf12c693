"""Two-marginal solves on the spanning-tree basis (`lp._Tree`, `lp._tree_loop`)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from momt import lp
from momt.tolerances import GAP_TOL, cost_scaled
from conftest import dense_solve, tensor_instance


def two_marginal_instance(seed, n0, n1, cost, weights, sense):
    """A tensor instance of one of the cost and weight families below."""
    rng = np.random.default_rng(seed)
    values = {"random": lambda: rng.uniform(0.0, 1.0, (n0, n1)),
              "tied": lambda: rng.integers(0, 3, (n0, n1)).astype(float),
              "constant": lambda: np.zeros((n0, n1)),
              "twin": lambda: rng.uniform(0.0, 1.0, (n0, n1))}[cost]()
    w = [np.full(n, 1.0 / n) if weights == "uniform" else rng.dirichlet(np.ones(n))
         for n in (n0, n1)]
    if cost == "twin":
        # axis-1 atoms 0 and 1 have one cost column and weigh 1/3 each, and
        # every axis-0 atom weighs less than 2/3: no vertex gives the twins
        # one fiber, so swapping them gives a second optimal plan
        values[:, 1] = values[:, 0]
        w[1] = np.r_[1 / 3, 1 / 3, w[1][2:] / w[1][2:].sum() / 3]
        w[0] = (w[0] + 1.0 / n0) / 2
    return tensor_instance(values, w, sense)


@st.composite
def two_marginal_instances(draw):
    cost = draw(st.sampled_from(["random", "tied", "constant", "twin"]))
    low = (2, 3) if cost == "twin" else (1, 1)
    return two_marginal_instance(draw(st.integers(0, 2**32 - 1)),
                                 draw(st.integers(low[0], 7)),
                                 draw(st.integers(low[1], 7)), cost,
                                 draw(st.sampled_from(["uniform", "dirichlet"])),
                                 draw(st.sampled_from(["min", "max"])))


@settings(max_examples=300, deadline=None)
@given(two_marginal_instances())
def test_tree_agrees_with_the_dense_core(inst):
    tree = lp.solve(inst)
    dense = dense_solve(inst)
    grid = inst.cost_grid()
    assert abs(tree.value - dense.value) <= cost_scaled(GAP_TOL, grid)
    status = lp.uniqueness_certificate(inst, tree).status
    assert status == lp.uniqueness_certificate(inst, dense).status
    if status == "unique":
        assert set(tree.plan.entries) == set(dense.plan.entries)


def test_two_marginal_solve_runs_no_dense_algebra(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dense basis algebra on a two-marginal solve")

    loops = []
    tree_loop = lp._tree_loop

    def counted(*args, **kwargs):
        loops.append(1)
        return tree_loop(*args, **kwargs)

    monkeypatch.setattr(lp, "_pivot_loop", refuse)
    monkeypatch.setattr(lp, "_refactor", refuse)
    monkeypatch.setattr(np.linalg, "inv", refuse)
    monkeypatch.setattr(lp, "_tree_loop", counted)
    statuses = set()
    solves = 0
    for seed in range(6):
        for cost in ("random", "tied", "twin"):
            inst = two_marginal_instance(seed, 6, 5, cost, ("uniform", "dirichlet")[seed % 2],
                                         ("min", "max")[seed % 3 == 0])
            res = lp.solve(inst)
            cert = lp.uniqueness_certificate(inst, res)
            if cost == "twin":
                assert cert.status == "non-unique"
                assert cert.witness.total_variation(res.plan) > 1e-6
            statuses.add(cert.status)
            solves += 1
    assert "unique" in statuses
    assert len(loops) > solves                 # face LPs ran on the tree too


@pytest.mark.parametrize("weights", ["dirichlet", "uniform"])
def test_plan_bytes_depend_on_the_basis_alone(monkeypatch, weights):
    # the optimal tree of a solve, handed back as the start basis in shuffled
    # position orders, gives the same plan, value and potentials bit for bit
    inst = two_marginal_instance(4, 20, 20, "random", weights, "min")
    cols = lp._TransportColumns([m.weights for m in inst.measures])
    c = inst.cost_grid().reshape(-1)
    c = (c - c.min()) / np.ptp(c)
    tree = lp._Tree(cols, *lp._tree_start([m.weights for m in inst.measures], c))
    xB, _ = lp._tree_loop(cols, cols.b, c, tree, np.ones(cols.n, dtype=bool))
    assert tree.iterations > 0
    basis, masses = list(tree.basis), xB.tolist()
    rng = np.random.default_rng(0)
    outputs = set()
    for _ in range(6):
        order = rng.permutation(len(basis))
        monkeypatch.setattr(lp, "_tree_start", lambda weights, cost: (
            [basis[p] for p in order], [masses[p] for p in order]))
        res = lp.solve(inst)
        assert res.iterations == 0
        outputs.add((res.value, tuple(sorted(res.plan.entries.items())),
                     tuple(v.tobytes() for v in res.potentials.vectors)))
    assert len(outputs) == 1


def test_start_tree_is_strongly_feasible():
    # degenerate uniform weights leave empty arcs in the plain least-cost
    # start; the perturbed start hangs every non-root axis-1 atom from a
    # positive flow, and its masses are the tree's own
    degenerate = 0
    for seed in range(20):
        n = 3 + seed % 6
        inst = two_marginal_instance(seed, n, n + seed % 3, ("random", "tied")[seed % 2],
                                     "uniform", "min")
        weights = [m.weights for m in inst.measures]
        cols = lp._TransportColumns(weights)
        c = inst.cost_grid().reshape(-1)
        c = (c - c.min()) / (np.ptp(c) or 1.0)
        cells, masses = lp._tree_start(weights, c)
        tree = lp._Tree(cols, cells, masses)
        n0 = inst.arities[0]
        assert all(tree.flow[v] > 0.0 for v in range(n0, tree.root))
        x = np.zeros(cols.n)
        x[cells] = masses
        y = lp._basic_solution(tree.masses(cols.b), tree, cols.n)
        assert np.abs(x - y).max() <= 1e-15
        plain = lp._Tree(cols, *lp._least_cost_basis(weights, c))
        degenerate += any(plain.flow[v] == 0.0 for v in range(n0, plain.root))
    assert degenerate


def test_void_atoms_stay_leaves_and_the_solve_ends():
    # zero-weight atoms on axis 1 admit no strongly feasible tree; they are
    # kept as leaves, and the optimum matches the dense core's
    for seed in range(12):
        rng = np.random.default_rng(seed)
        n0, n1 = 4 + seed % 3, 6
        values = rng.integers(0, 3, (n0, n1)).astype(float)
        w1 = np.r_[0.0, rng.dirichlet(np.ones(n1 - 3)), 0.0, 0.0]
        inst = tensor_instance(values, [np.full(n0, 1.0 / n0), w1], ("min", "max")[seed % 2])
        res = lp.solve(inst)
        assert abs(res.value - dense_solve(inst).value) <= cost_scaled(GAP_TOL, values)
        assert all(w1[idx[1]] > 0.0 for idx in res.plan.entries)
        cols = lp._TransportColumns([m.weights for m in inst.measures])
        c = (inst.cost_grid().reshape(-1) - values.min()) / (np.ptp(values) or 1.0)
        weights = [m.weights for m in inst.measures]
        tree = lp._Tree(cols, *lp._tree_start(weights, c))
        lp._tree_loop(cols, cols.b, c, tree, np.ones(cols.n, dtype=bool))
        assert not tree.kids[n0] and not tree.kids[n0 + n1 - 2]


def test_start_tree_is_strongly_feasible_on_weights_within_storage_tolerance():
    # DiscreteMeasure admits sums off 1 by STORAGE_TOL (and reads weights
    # down to -STORAGE_TOL as 0); the start still leaves no axis-1 atom of
    # positive weight without flow, weight-0 atoms are leaves with no flow,
    # and the optimum matches the dense core's
    rng = np.random.default_rng(0)
    for t in range(400):
        n0, n1 = rng.integers(2, 6, 2)
        weights = []
        for n in (n0, n1):
            w = rng.dirichlet(np.ones(n))
            k = rng.integers(n)
            w[k] = 0.0
            w /= w.sum()
            w[k] = rng.choice([1e-13, -1e-13, 3e-13, 0.0])
            weights.append(w + rng.uniform(-1e-13, 1e-13, n))
        values = rng.integers(0, 3, (n0, n1)).astype(float)
        inst = tensor_instance(values, weights, ("min", "max")[t % 2])
        cols = lp._TransportColumns([m.weights for m in inst.measures])
        c = (-1.0 if t % 2 else 1.0) * values.reshape(-1)
        c = (c - c.min()) / (np.ptp(c) or 1.0)
        tree = lp._Tree(cols, *lp._tree_start([m.weights for m in inst.measures], c))
        for v in range(n0, tree.root):
            if cols.b[v] > 0.0:
                assert tree.flow[v] > 0.0
            else:
                assert tree.flow[v] == 0.0 and not tree.kids[v]
        res = lp.solve(inst)
        assert abs(res.value - dense_solve(inst).value) <= cost_scaled(GAP_TOL, values)


@st.composite
def start_problems(draw):
    """Weights of one family on two axes, each summing to 1 within 1e-12, and a cost."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    family = draw(st.sampled_from(["uniform", "dirichlet", "ratios", "zeros", "subnormal"]))
    weights = []
    for n in (draw(st.integers(1, 8)), draw(st.integers(1, 8))):
        w = {"uniform": lambda: np.full(n, 1.0 / n),
             "ratios": lambda: rng.integers(1, 4, n).astype(float)}.get(
                 family, lambda: rng.dirichlet(np.ones(n)))()
        if family in ("zeros", "subnormal") and n > 1:
            k = rng.choice(n, rng.integers(1, n), replace=False)
            w[k] = 0.0
        w /= w.sum()
        if family == "subnormal" and n > 1:
            w[k] = 5e-324 * rng.integers(1, 1000, len(k))
        weights.append(w * (1.0 + draw(st.floats(-1e-12, 1e-12))))
    n0, n1 = len(weights[0]), len(weights[1])
    c = (rng.integers(0, 3, n0 * n1) if draw(st.booleans())
         else rng.uniform(0.0, 1.0, n0 * n1)).astype(float)
    return weights, c


@settings(max_examples=300, deadline=None)
@given(start_problems())
def test_tree_start_is_a_strongly_feasible_basis(problem):
    # a basis of the transport polytope whose every non-root axis-1 atom of
    # positive weight hangs from a positive flow, weight-0 atoms being
    # leaves with no flow, and whose masses are the tree's own: off by no
    # more than the two exact weight sums differ, which the largest axis-1
    # atom takes up at the start and the root in leaf elimination
    weights, c = problem
    cols = lp._TransportColumns(weights)
    cells, masses = lp._tree_start(weights, c)
    assert len(cells) == cols.m
    assert np.linalg.matrix_rank(cols.matrix(cells)) == cols.m
    tree = lp._Tree(cols, cells, masses)
    n0 = len(weights[0])
    for v in range(n0, tree.root):
        if weights[1][v - n0] > 0.0:
            assert tree.flow[v] > 0.0
        else:
            assert tree.flow[v] == 0.0 and not tree.kids[v]
    x = np.zeros(cols.n)
    x[cells] = masses
    y = lp._basic_solution(tree.masses(cols.b), tree, cols.n)
    drift = abs(math.fsum(weights[0]) - math.fsum(weights[1]))
    assert np.abs(x - y).max() <= 1e-15 + drift


def test_tree_start_keeps_the_least_cost_cells_without_ties():
    # Dirichlet weights tie no two partial sums, so the perturbation decides
    # nothing and the start is the plain least-cost basis
    rng = np.random.default_rng(3)
    for t in range(300):
        n0, n1 = rng.integers(1, 10, 2)
        weights = [rng.dirichlet(np.ones(n)) for n in (n0, n1)]
        c = (rng.integers(0, 3, n0 * n1) if t % 2
             else rng.uniform(0.0, 1.0, n0 * n1)).astype(float)
        assert lp._tree_start(weights, c)[0] == lp._least_cost_basis(weights, c)[0]
