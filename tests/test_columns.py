"""Implicit transport columns against the dense standard model.

`solve` and `is_vertex` never build the constraint matrix;
`_TransportColumns` stands in for `standard_model(...).A`.  The dense model,
with `conftest.dense_is_vertex` as its vertex test, is the oracle here.
"""

import numpy as np
import pytest

from momt import lp
from momt.measure import Coupling
from conftest import dense_is_vertex, random_instance, tensor_instance

# N = 2..5, with an axis of one atom first, last and in between
SHAPES = [(3, 4), (1, 3), (4, 1), (2, 1, 3), (3, 2, 2, 1), (2, 2, 1, 2, 3),
          (1, 1, 1), (3, 3, 2, 2, 2)]


def _measures(shape, seed):
    rng = np.random.default_rng(seed)
    return tensor_instance(np.zeros(shape),
                           [rng.dirichlet(np.ones(n)) for n in shape]).measures


@pytest.mark.parametrize("shape", SHAPES)
def test_implicit_columns_match_the_dense_standard_model(shape):
    measures = _measures(shape, len(shape) * 7 + shape[0])
    model = lp.standard_model(measures)
    cols = lp._TransportColumns([m.weights for m in measures])
    assert (cols.n, cols.m) == (model.n_cols, model.A.shape[0])
    assert np.array_equal(cols.b, model.b)
    for j in range(cols.n):
        assert np.array_equal(cols.column(j), model.A[:, j])
    assert np.array_equal(cols.matrix(range(cols.n)), model.A)
    rng = np.random.default_rng(len(shape))
    M = rng.normal(size=(3, cols.m))
    ids = rng.integers(0, cols.n, 5)
    assert np.allclose(cols.product(M, ids), M @ model.A[:, ids], rtol=0, atol=1e-14)
    assert np.allclose(lp._DenseColumns(model.A).product(M, ids), M @ model.A[:, ids],
                       rtol=0, atol=1e-14)
    for scale in (1.0, 1e-8, 1e9):
        y = rng.normal(size=cols.m) * scale
        bound = 1e-15 * (1.0 + np.abs(y).sum())
        assert np.abs(cols.price(y) - y @ model.A).max() <= bound
    # potentials layout: kept row r is atom row_meta[r] of its axis, and the
    # dropped rows (the last atom of every axis after the first) read zero
    parts = cols.split(y)
    for r, kept in enumerate(model.kept):
        axis, atom = model.row_meta[kept]
        assert cols.rows[axis][atom] == r
        assert parts[axis][atom] == y[r]
    dropped = set(range(len(model.row_meta))) - set(model.kept)
    for full in dropped:
        axis, atom = model.row_meta[full]
        assert cols.rows[axis][atom] == cols.m and parts[axis][atom] == 0.0
    assert sorted(model.row_meta[r] for r in dropped) == [
        (k, n - 1) for k, n in enumerate(shape) if k > 0]


@pytest.mark.parametrize("n_axes", [2, 3, 4, 5])
def test_standard_model_keeps_the_structural_rows(n_axes):
    # the greedy row selection drops exactly the last row of every marginal
    # after the first, as the structural rule it replaced did
    for seed in range(4):
        inst = random_instance(seed + 40 * n_axes, n_axes=n_axes, max_atoms=4,
                               uniform=seed % 2 == 0)
        model = lp.standard_model(inst.measures)
        expected, offset = [], 0
        for k, n in enumerate(inst.arities):
            expected += list(range(offset, offset + n - (k > 0)))
            offset += n
        assert model.kept == expected


def _vertex_and_mixed_plans(measures, rng):
    """Optimal vertices for random costs, their midpoints and the product plan."""
    shape = tuple(m.size for m in measures)
    weights = [m.weights for m in measures]
    verts = [lp.solve(tensor_instance(rng.uniform(size=shape), weights)).plan
             for _ in range(6)]
    yield from verts
    for a, b in zip(verts, verts[1:]):
        mid = {idx: 0.5 * a.mass_at(idx) + 0.5 * b.mass_at(idx)
               for idx in set(a.entries) | set(b.entries)}
        yield Coupling(shape, mid)
    product = weights[0]
    for w in weights[1:]:
        product = np.multiply.outer(product, w)
    yield Coupling.from_dense(product)


@pytest.mark.parametrize("n_axes", [2, 3, 4])
def test_is_vertex_on_marginals_matches_the_dense_model(n_axes):
    seen = set()
    rng = np.random.default_rng(n_axes)
    for seed in range(4):
        inst = random_instance(seed + 900 + 10 * n_axes, n_axes=n_axes,
                               max_atoms=(5, 4, 3)[n_axes - 2], uniform=seed % 2 == 0)
        model = lp.standard_model(inst.measures)
        for plan in _vertex_and_mixed_plans(inst.measures, rng):
            implicit = lp.is_vertex(plan, inst.measures)
            assert implicit == dense_is_vertex(plan, model)
            seen.add(implicit)
    assert seen == {True, False}


def test_solve_and_is_vertex_build_no_dense_model(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dense model built or phase 1 run")

    monkeypatch.setattr(lp.PolytopeModel, "__init__", refuse)
    monkeypatch.setattr(lp._DenseColumns, "__init__", refuse)
    for name in ("standard_model", "solve_model", "_feasible_basis"):
        monkeypatch.setattr(lp, name, refuse)
    for seed in range(6):
        inst = random_instance(seed + 60, n_axes=2 + seed % 4, max_atoms=5,
                               sense=("min", "max")[seed % 2], uniform=seed % 3 == 0)
        res = lp.solve(inst)
        assert lp.is_vertex(res.plan, inst.measures)
        lp.uniqueness_certificate(inst, res)
