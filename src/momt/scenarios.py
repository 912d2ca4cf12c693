"""Seeded generators and experiment drivers for the application studies.

Discretization breaks the absolute-continuity hypotheses of the continuous
theory, so each driver checks structural conclusions (graph supports,
collinearity, extremality certificates, reflection witnesses) rather than
literal uniqueness of the discrete program; generic seeds use jittered
positions to avoid symmetric degeneracies, and hypothesis-violation paths
emit flagged reports instead of asserting conclusions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import lp
from .costs import CostSpec, build_gs_conjugates, gangbo_swiech_maps
from .errors import InstanceTooLarge, InvariantViolation, UnknownScenario
from .extremality import (
    OrderedPartition,
    check_c_extreme,
    check_cyclical_monotonicity,
    detect_map_decomposition,
    fiber_report,
    gw_second_solution,
    gw_twist_count,
)
from .instance import DiscreteInstance
from .measure import Coupling, DiscreteMeasure, Space
from .reduction import (
    reconstruct_from_pair_reductions,
    reduce,
    solve_pair_reductions,
)
from .tolerances import MASS_FLOOR, STORAGE_TOL, WITNESS_TV_TOL
from .twomap import (
    assemble_three_marginal,
    extreme_assemblies,
    mixed_assembly,
    product_rows,
    recover_theta,
    unique_condition,
)

SCENARIO_KINDS = (
    "sphereReflection",
    "nestedShells",
    "gangboSwiech",
    "mongeQuadratic",
    "gromovWasserstein",
    "twoMapDemo",
)

ALIASES = {
    "sphere": "sphereReflection",
    "shells": "nestedShells",
    "gs": "gangboSwiech",
    "mq": "mongeQuadratic",
    "gw": "gromovWasserstein",
    "twomap": "twoMapDemo",
}


@dataclass
class ScenarioConfig:
    kind: str
    seed: int = 0
    sizes: tuple[int, ...] = ()
    dimension: int = 0
    radii: tuple[float, ...] = ()
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        kind = ALIASES.get(self.kind, self.kind)
        if kind not in SCENARIO_KINDS:
            raise UnknownScenario(f"unknown scenario kind {self.kind!r}")
        self.kind = kind
        if self.seed < 0:
            raise InvariantViolation(f"seed must be non-negative, got {self.seed}")
        self.sizes = tuple(int(s) for s in self.sizes)
        if any(s < 1 for s in self.sizes):
            raise InvariantViolation("sizes must be at least 1")
        if self.dimension < 0:
            raise InvariantViolation("dimension must be non-negative (0: the default)")
        self.radii = tuple(float(r) for r in self.radii)
        if any(b <= a for a, b in zip(self.radii, self.radii[1:])):
            raise InvariantViolation("shell radii must be strictly increasing")


@dataclass(frozen=True)
class NormalField:
    """Outward unit normal per atom of a shell-sampled space."""

    vectors: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=float)
        norms = np.linalg.norm(v, axis=1)
        if np.abs(norms - 1.0).max() > STORAGE_TOL:
            raise InvariantViolation("normals must have unit length")
        object.__setattr__(self, "vectors", v)


def _round(x):
    """Round a report float to 15 decimal places before 17-digit output.

    This zeroes solver dust below 5e-16 (a 1e-17 gap reads 0.0, not a
    17-digit residue), and every scenario report's bytes depend on it.
    """
    return float(np.round(float(x), 15))


def _plain(obj):
    """Recursively convert numpy scalars/arrays to plain JSON-ready types."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    return obj


def _sine(u, v):
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        return 1.0
    cos = np.clip(abs(float(u @ v)) / (nu * nv), 0.0, 1.0)
    return float(np.sqrt(max(0.0, 1.0 - cos * cos)))


# ---------------------------------------------------------------------------
# plane + sphere reflection study
# ---------------------------------------------------------------------------

def gen_sphere_reflection(config: ScenarioConfig):
    """Planar twin marginals plus a mirror-closed sphere sample.

    Geometry comes in well-separated angular clusters: each mirror pair of
    sphere atoms points toward one cluster of two equal-weight plane atoms.
    Cluster matching then strictly dominates any cross assignment, while the
    two sphere atoms of a pair stay cost-identical for planar sources, so
    every optimal vertex is a graph sending one plane atom of a cluster up
    and the other down.  Mirroring the third coordinate swaps them at equal
    cost, which is the engine of the non-uniqueness this study exhibits.

    Returns the attractive-cost instance, the reflection involution on the
    third axis, and the equator mask (its fixed points).
    """
    rng = np.random.default_rng(config.seed)
    n_pairs = int(config.extras.get("pairs", config.sizes[0] if config.sizes else 3))
    n_equator = int(config.extras.get("equator", 0))
    p = n_pairs + n_equator

    base = rng.uniform(0, 2 * np.pi)
    cluster_angle = base + 2 * np.pi * np.arange(p) / p + rng.uniform(
        -0.15, 0.15, p) * (2 * np.pi / p)
    cluster_dir = np.column_stack([np.cos(cluster_angle), np.sin(cluster_angle)])
    cluster_radius = rng.uniform(0.8, 1.2, p)

    plane_rows = []
    weights = []
    for j in range(p):
        center = cluster_radius[j] * cluster_dir[j]
        n_members = 2 if j < n_pairs else 1
        for _ in range(n_members):
            jitter = rng.uniform(-0.05, 0.05, 2)
            plane_rows.append([center[0] + jitter[0], center[1] + jitter[1], 0.0])
        v = rng.uniform(0.5, 1.5)
        weights.extend([v] * n_members)
    plane_pts = np.array(plane_rows)
    w = np.array(weights)
    w = w / w.sum()

    polar = rng.uniform(0.3, np.pi / 2 - 0.3, n_pairs)
    upper = np.column_stack([
        np.sin(polar) * cluster_dir[:n_pairs, 0],
        np.sin(polar) * cluster_dir[:n_pairs, 1],
        np.cos(polar),
    ])
    z_blocks = [upper, upper * np.array([1.0, 1.0, -1.0])]
    if n_equator:
        z_blocks.append(np.column_stack([
            cluster_dir[n_pairs:, 0], cluster_dir[n_pairs:, 1],
            np.zeros(n_equator),
        ]))
    z_pts = np.vstack(z_blocks)

    pair_mass = np.array([w[2 * j] for j in range(n_pairs)])
    z_w = [pair_mass, pair_mass]
    if n_equator:
        z_w.append(np.array(
            [w[2 * n_pairs + k] for k in range(n_equator)]
        ))
    z_w = np.concatenate(z_w)

    reflection = np.arange(z_pts.shape[0])
    reflection[:n_pairs] = np.arange(n_pairs) + n_pairs
    reflection[n_pairs:2 * n_pairs] = np.arange(n_pairs)
    equator_mask = np.zeros(z_pts.shape[0], dtype=bool)
    equator_mask[2 * n_pairs:] = True

    plane = Space("plane", plane_pts)
    zspace = Space("sphere", z_pts)
    mu = DiscreteMeasure(plane, w)
    gamma = DiscreteMeasure(zspace, z_w)
    inst = DiscreteInstance([plane, plane, zspace], [mu, mu, gamma],
                            CostSpec("attractive", "min"))
    return inst, reflection, equator_mask


def run_sphere_reflection(config: ScenarioConfig) -> dict:
    inst, reflection, equator = gen_sphere_reflection(config)
    res = lp.solve(inst)
    off_diag = sum(m for idx, m in res.plan.entries.items() if idx[0] != idx[1])

    reflected = res.plan.push_axis_map(2, reflection)
    grid = inst.cost_grid()
    refl_value = sum(grid[idx] * m for idx, m in reflected.entries.items())
    cost_gap = abs(refl_value - res.value)
    tv = res.plan.total_variation(reflected)
    non_equatorial_mass = sum(
        m for idx, m in res.plan.entries.items() if not equator[idx[2]]
    )
    expect_distinct = non_equatorial_mass > WITNESS_TV_TOL

    mixture = res.plan.mix(reflected, 0.5)
    mix_value = sum(grid[idx] * m for idx, m in mixture.entries.items())
    mix_dec = detect_map_decomposition(mixture)
    cert = lp.uniqueness_certificate(inst, res)

    checks = {
        "support_diagonal": off_diag < 1e-12,
        "off_diagonal_mass": _round(off_diag),
        "reflected_cost_gap": _round(cost_gap),
        "reflected_optimal": cost_gap < 1e-10,
        "reflected_distinct": tv > WITNESS_TV_TOL,
        "reflected_tv": _round(tv),
        "expect_distinct": bool(expect_distinct),
        "mixture_cost_gap": _round(abs(mix_value - res.value)),
        "mixture_max_fiber": int(mix_dec.max_fiber),
        "certificate_status": cert.status,
        "certificate_consistent": (not expect_distinct)
        or cert.status == "non-unique",
    }
    passed = (
        checks["support_diagonal"]
        and checks["reflected_optimal"]
        and checks["reflected_distinct"] == bool(expect_distinct)
        and checks["mixture_cost_gap"] < 1e-10
        and checks["mixture_max_fiber"] <= 2
        and checks["certificate_consistent"]
    )
    return {
        "kind": config.kind,
        "seed": config.seed,
        "value": _round(res.value),
        "support": _support_rows(res.plan),
        "reflection_witness": _support_rows(reflected),
        "checks": checks,
        "passed": bool(passed),
    }


def _support_rows(plan: Coupling):
    return [
        {"index": [int(i) for i in idx], "mass": _round(m)}
        for idx, m in sorted(plan.entries.items())
    ]


# ---------------------------------------------------------------------------
# parallel planes against nested shells
# ---------------------------------------------------------------------------

def gen_nested_shells(config: ScenarioConfig):
    """Two parallel line marginals and nested circle shells in the plane.

    The construction realizes the continuous structure exactly at desk scale:
    plane pairs are matched monotonically, shell atoms partition the mass
    line in increasing order of their coordinate along the plane direction,
    and every shell atom serving two or more pairs sits exactly at a pole
    (normal parallel to the plane direction), which is where the collinearity
    identity can hold discretely.  The pairwise inner-product cost is then
    strictly supermodular in the three scalar coordinates, so the unique
    optimum is exactly the constructed comonotone plan.
    """
    rng = np.random.default_rng(config.seed)
    n = config.sizes[0] if config.sizes else 6
    if n < 3:
        raise InvariantViolation("need at least 3 plane pairs")
    radii = config.radii or (1.0, 1.6, 2.3)
    L = len(radii)
    d1, d2 = 0.35, 0.8
    normal = np.array([0.0, 1.0])
    e1 = np.array([normal[1], -normal[0]])

    p = np.cumsum(rng.uniform(0.4, 1.0, n)); p -= p.mean()
    q = np.cumsum(rng.uniform(0.4, 1.0, n)); q -= q.mean()
    masses = rng.uniform(0.5, 1.5, n)
    masses = masses / masses.sum()
    cum = np.concatenate([[0.0], np.cumsum(masses)])
    cum[-1] = 1.0

    # the left pole (negative pole of the outer shell) swallows the first k0
    # pairs; interior poles of inner shells straddle later boundaries, each
    # taking a tail fraction of one pair plus all of the next
    k0 = 2
    interior_candidates = []
    for l in range(L - 1):
        interior_candidates.extend([-radii[l], radii[l]])
    interior_candidates = sorted(interior_candidates)
    max_interior = max(0, (n - k0 - 1) // 2)
    n_interior = min(len(interior_candidates), max_interior, 2)
    if n_interior:
        pick = sorted(rng.choice(len(interior_candidates), size=n_interior,
                                 replace=False))
        interior_rho = [interior_candidates[i] for i in pick]
    else:
        interior_rho = []
    left_rho = -radii[-1]

    # fully-covered pair index -> pole coordinate, spaced two pairs apart
    binfo = {}
    b = k0 + 1
    for rho_val in interior_rho:
        binfo[b] = rho_val
        b += 2

    z_rows = []   # [rho, zeta, shell, kind, interval lo, interval hi]

    def add_private(lo_mass, hi_mass, rho_lo, rho_hi):
        rho = rng.uniform(rho_lo + 0.05 * (rho_hi - rho_lo),
                          rho_hi - 0.05 * (rho_hi - rho_lo))
        valid = [l for l in range(L) if radii[l] > abs(rho) + 1e-9]
        l = int(valid[rng.integers(len(valid))])
        zeta = float(np.sqrt(radii[l] ** 2 - rho**2))
        zeta *= 1.0 if rng.random() < 0.5 else -1.0
        z_rows.append([float(rho), zeta, l, "private", lo_mass, hi_mass])

    z_rows.append([left_rho, 0.0, L - 1, "pole", 0.0, cum[k0]])
    prev_rho = left_rho
    pair = k0
    while pair < n:
        coming = [bb for bb in binfo if bb >= pair + 1]
        next_anchor = binfo[min(coming)] if coming else radii[-1]
        if pair + 1 in binfo:
            rho_pole = binfo[pair + 1]
            frac = rng.uniform(0.25, 0.55)
            split_at = cum[pair + 1] - frac * masses[pair]
            add_private(cum[pair], split_at, prev_rho, rho_pole)
            lpole = int(np.argmin(np.abs(np.array(radii) - abs(rho_pole))))
            z_rows.append([float(rho_pole), 0.0, lpole, "pole",
                           split_at, cum[pair + 2]])
            prev_rho = rho_pole
            pair += 2
        else:
            add_private(cum[pair], cum[pair + 1], prev_rho, next_anchor)
            prev_rho = z_rows[-1][0]
            pair += 1

    z_rows.sort(key=lambda r: r[0])
    rho = np.array([r[0] for r in z_rows])
    zeta = np.array([r[1] for r in z_rows])
    shell_of = np.array([r[2] for r in z_rows], dtype=int)
    z_kind = [r[3] for r in z_rows]
    z_pts = rho[:, None] * e1[None, :] + zeta[:, None] * normal[None, :]
    z_w = np.array([r[5] - r[4] for r in z_rows])
    z_w = z_w / z_w.sum()

    x_pts = p[:, None] * e1[None, :] + d1 * normal[None, :]
    y_pts = q[:, None] * e1[None, :] + d2 * normal[None, :]
    X = Space("planeX", x_pts)
    Y = Space("planeY", y_pts)
    Z = Space("shells", z_pts)
    inst = DiscreteInstance(
        [X, Y, Z],
        [DiscreteMeasure(X, masses), DiscreteMeasure(Y, masses),
         DiscreteMeasure(Z, z_w)],
        CostSpec("surplus", "max"),
    )

    expected = {}
    for k, r in enumerate(z_rows):
        lo, hi = r[4], r[5]
        for i in range(n):
            ov = min(hi, cum[i + 1]) - max(lo, cum[i])
            if ov > MASS_FLOOR:
                expected[(i, i, k)] = ov
    meta = {
        "normals": NormalField(z_pts / np.linalg.norm(z_pts, axis=1, keepdims=True)),
        "shell_of": shell_of,
        "z_kind": z_kind,
        "expected": Coupling(inst.arities, expected),
        "radii": radii,
        "direction": e1,
    }
    return inst, meta


def run_nested_shells(config: ScenarioConfig) -> dict:
    inst, meta = gen_nested_shells(config)
    res = lp.solve(inst)

    red = reduce(inst, res.potentials, (0, 1))
    red_sol = lp.solve(red.instance)
    red_graph = red_sol.plan.is_graph()

    normals = meta["normals"].vectors
    by_z: dict[int, list] = {}
    for idx in res.plan.support():
        by_z.setdefault(idx[2], []).append(idx)
    sines = []
    for k, atoms in sorted(by_z.items()):
        for a in range(len(atoms)):
            for b in range(a + 1, len(atoms)):
                i1, j1, _ = atoms[a]
                i2, j2, _ = atoms[b]
                v = (inst.spaces[0].points[i2] - inst.spaces[0].points[i1]
                     + inst.spaces[1].points[j2] - inst.spaces[1].points[j1])
                sines.append({
                    "z": int(k),
                    "pair_a": [int(i1), int(j1)],
                    "pair_b": [int(i2), int(j2)],
                    "sine": _round(_sine(v, normals[k])),
                })
    max_sine = max((row["sine"] for row in sines), default=0.0)

    partition = OrderedPartition.from_lists(
        [[(int(z),) for z in np.flatnonzero(meta["shell_of"] == l)]
         for l in range(len(meta["radii"]))]
    )
    freport = fiber_report(res.plan.support(), inst.cost_grid(),
                           ((0, 1), (2,)), partition)
    extreme = check_c_extreme(freport)
    tv_expected = res.plan.total_variation(meta["expected"])

    checks = {
        "reduced_plan_graph": bool(red_graph),
        "sharing_pairs": len(sines),
        "max_collinearity_sine": _round(max_sine),
        "collinearity_ok": max_sine < 1e-6,
        "cp_extreme": bool(extreme.passed),
        "matches_construction_tv": _round(tv_expected),
    }
    passed = red_graph and checks["collinearity_ok"] and extreme.passed
    return {
        "kind": config.kind,
        "seed": config.seed,
        "value": _round(res.value),
        "support": _support_rows(res.plan),
        "collinearity": sines,
        "checks": checks,
        "passed": bool(passed),
    }


# ---------------------------------------------------------------------------
# pairwise inner-product study (quadratic team matching)
# ---------------------------------------------------------------------------

def gen_gangbo_swiech(config: ScenarioConfig):
    rng = np.random.default_rng(config.seed)
    n_axes = config.extras.get("n_axes", 3)
    n = config.sizes[0] if config.sizes else 8
    d = config.dimension or 2
    spaces = [Space(f"X{k}", rng.uniform(-1, 1, size=(n, d)))
              for k in range(n_axes)]
    measures = [DiscreteMeasure(s, np.ones(n) / n) for s in spaces]
    return DiscreteInstance(spaces, measures, CostSpec("surplus", "max"))


def run_gangbo_swiech(config: ScenarioConfig) -> dict:
    inst = gen_gangbo_swiech(config)
    res = lp.solve(inst)
    graph_full = res.plan.is_graph()

    reduced_graph = {}
    reduced_monotone = {}
    degenerate = False
    pairs = solve_pair_reductions(inst, res.potentials)
    for j, (red, rsol) in pairs.items():
        ok = rsol.plan.is_graph()
        reduced_graph[str(j)] = ok
        mono = check_cyclical_monotonicity(rsol.plan.support(), red.reduced_cost,
                                           rsol.potentials)
        reduced_monotone[str(j)] = bool(mono.passed)
        degenerate = degenerate or not ok

    reconstruction = None
    if not degenerate:
        _, brep = reconstruct_from_pair_reductions(inst, pairs, res.plan)
        if not brep.hypothesis_holds:
            degenerate = True
        reconstruction = {
            "j0": brep.j0,
            "tv": _round(brep.tv_to_plan),
            "value_gap": _round(brep.value_gap),
            "hypothesis_unique": {str(k): bool(v)
                                  for k, v in sorted(brep.hypothesis_unique.items())},
            "passed": bool(brep.passed and brep.hypothesis_holds
                           and brep.tv_to_plan < 1e-9),
        }

    conjugates = build_gs_conjugates(
        inst, {j: red.reduced_cost for j, (red, _) in pairs.items()})
    _, trep = gangbo_swiech_maps(inst, res.potentials, conjugates, plan=res.plan)
    cert = lp.uniqueness_certificate(inst, res)

    checks = {
        "full_plan_graph": bool(graph_full),
        "reduced_graph": reduced_graph,
        "reduced_monotone": reduced_monotone,
        "reconstruction": reconstruction,
        "map_agreement": trep["agreement_fraction"],
        "map_agreement_all": trep["agreement_fraction_all"],
        "tied_atoms": trep["tied_atoms"],
        "certificate_status": cert.status,
        "degenerate_flag": bool(degenerate),
    }
    passed = (
        not degenerate
        and graph_full
        and all(reduced_graph.values())
        and all(reduced_monotone.values())
        and reconstruction is not None
        and reconstruction["passed"]
        and trep["agreement_fraction"] == 1.0
    )
    return {
        "kind": config.kind,
        "seed": config.seed,
        "value": _round(res.value),
        "support": _support_rows(res.plan),
        "checks": checks,
        "passed": bool(passed),
    }


# ---------------------------------------------------------------------------
# distance plus double-quadratic study
# ---------------------------------------------------------------------------

def gen_monge_quadratic(config: ScenarioConfig):
    rng = np.random.default_rng(config.seed)
    n = config.sizes[0] if config.sizes else 6
    d = config.dimension or 2
    sep = config.extras.get("separation", 3.0)
    x_pts = rng.uniform(-0.8, 0.8, size=(n, d)) + np.array([-sep / 2] + [0.0] * (d - 1))
    y_pts = rng.uniform(-0.8, 0.8, size=(n, d)) + np.array([sep / 2] + [0.0] * (d - 1))
    if sep == 0.0:
        # touching supports: duplicate one point across the two clouds
        y_pts[0] = x_pts[0] + 1e-12
    z_pts = rng.uniform(-1.0, 1.0, size=(n, d))
    X, Y, Z = Space("X", x_pts), Space("Y", y_pts), Space("Z", z_pts)
    u = np.ones(n) / n
    inst = DiscreteInstance(
        [X, Y, Z],
        [DiscreteMeasure(X, u), DiscreteMeasure(Y, u), DiscreteMeasure(Z, u)],
        CostSpec("mongeQuadratic", "min"),
    )
    gap = min(
        np.linalg.norm(x - y) for x in x_pts for y in y_pts
    )
    return inst, float(gap)


def run_monge_quadratic(config: ScenarioConfig) -> dict:
    inst, xy_gap = gen_monge_quadratic(config)
    if xy_gap <= 1e-9:
        return {
            "kind": config.kind,
            "seed": config.seed,
            "hypothesis_violated": "supports of the first two marginals touch",
            "xy_gap": _round(xy_gap),
            "checks": {},
            "passed": False,
        }
    res = lp.solve(inst)
    graph_full = res.plan.is_graph()
    reduced_graph = {
        str(j): rsol.plan.is_graph()
        for j, (_, rsol) in solve_pair_reductions(inst, res.potentials).items()
    }
    mono = check_cyclical_monotonicity(res.plan.support(), inst.cost_grid(),
                                       res.potentials)
    cert = lp.uniqueness_certificate(inst, res)
    checks = {
        "xy_gap": _round(xy_gap),
        "full_plan_graph": bool(graph_full),
        "reduced_graph": reduced_graph,
        "cyclically_monotone": bool(mono.passed),
        "certificate_status": cert.status,
    }
    passed = graph_full and all(reduced_graph.values()) and mono.passed
    return {
        "kind": config.kind,
        "seed": config.seed,
        "value": _round(res.value),
        "support": _support_rows(res.plan),
        "checks": checks,
        "passed": bool(passed),
    }


# ---------------------------------------------------------------------------
# bilinear-quadratic two-twist study
# ---------------------------------------------------------------------------

def _random_invertible(rng, d):
    while True:
        A = rng.uniform(-1, 1, size=(d, d))
        if abs(np.linalg.det(A)) > 0.2:
            return A


def gen_gromov_wasserstein(config: ScenarioConfig):
    """Bilinear-quadratic instance whose optimum rides on at most two maps.

    Two first-axis atoms carry double mass against a uniform second marginal,
    so their mass must split across exactly two image atoms; fully generic
    fractional weights instead produce three-way splits that the continuous
    two-twist argument does not forbid at finite resolution.
    """
    rng = np.random.default_rng(config.seed)
    n = config.sizes[0] if config.sizes else 6
    d = config.dimension or 2
    A = _random_invertible(rng, d)
    xi = 1.0
    n_heavy = min(2, n // 2) if n >= 3 else 0
    X = Space("X", rng.uniform(-1, 1, size=(n - n_heavy, d)))
    Y = Space("Y", rng.uniform(-1, 1, size=(n, d)))
    w1 = np.concatenate([np.full(n_heavy, 2.0), np.ones(n - 2 * n_heavy)]) / n
    w2 = np.ones(n) / n
    inst = DiscreteInstance(
        [X, Y],
        [DiscreteMeasure(X, w1), DiscreteMeasure(Y, w2)],
        CostSpec("gromovWasserstein", "max", {"xi": xi, "A": A}),
    )
    return inst


def run_gromov_wasserstein(config: ScenarioConfig) -> dict:
    inst = gen_gromov_wasserstein(config)
    res = lp.solve(inst)
    dec = detect_map_decomposition(res.plan)

    rng = np.random.default_rng(config.seed + 104729)
    d = inst.spaces[0].dim
    counts = []
    for _ in range(20):
        A = _random_invertible(rng, d)
        xi = float(rng.uniform(0.3, 2.0) * (1 if rng.random() < 0.5 else -1))
        x0 = rng.uniform(-1, 1, d)
        y0 = rng.uniform(-1, 1, d)
        cands = [y0]
        second = gw_second_solution(x0, y0, A, xi)
        if second is not None:
            cands.append(second)
        sphere = rng.normal(size=(60, d))
        sphere = sphere / np.linalg.norm(sphere, axis=1, keepdims=True)
        cands.append(sphere * float(rng.uniform(0.5, 1.5)))
        counts.append(gw_twist_count(x0, y0, A, xi, np.vstack(
            [np.atleast_2d(c) for c in cands]
        )))
    checks = {
        "max_fiber": int(dec.max_fiber),
        "fiber_ok": dec.max_fiber <= 2,
        "twist_counts_max": int(max(counts)),
        "twist_counts_ok": all(c <= 2 for c in counts),
        "zero_x0_count": gw_twist_count(
            np.zeros(d), np.ones(d), np.eye(d), 1.0,
            np.vstack([np.ones(d), 2.0 * np.ones(d)])
        ),
    }
    passed = checks["fiber_ok"] and checks["twist_counts_ok"] and checks[
        "zero_x0_count"] == 1
    return {
        "kind": config.kind,
        "seed": config.seed,
        "value": _round(res.value),
        "support": _support_rows(res.plan),
        "checks": checks,
        "passed": bool(passed),
    }


# ---------------------------------------------------------------------------
# two-map assembly demonstration
# ---------------------------------------------------------------------------

def gen_two_map_demo(config: ScenarioConfig):
    """Instance whose reduced pair problems have unique two-map solutions.

    First-axis atom i owns second- and third-axis atoms 2i and 2i + 1: its
    maps are (T1, T2, G1, G2) = (2i, 2i + 1, 2i, 2i + 1), with weights
    alpha_i, 1 - alpha_i on the second axis and beta_i, 1 - beta_i on the
    third.  So the prescribed pair restrictions are the unique feasible
    couplings on the owned support, and a 0/1/2 penalty cost, one for each
    atom not owned, makes exactly those supports optimal.  An atom of
    weight 0 (alpha or beta at 0 or 1) keeps its index, as in
    `DiscreteMeasure`.  A size whose 4n^3 grid exceeds `lp.GRID_CAP` raises
    InstanceTooLarge before anything is built.
    """
    n = config.sizes[0] if config.sizes else 2
    if 4 * n**3 > lp.GRID_CAP:
        raise InstanceTooLarge(
            f"twoMapDemo grid has {4 * n**3} cells at n = {n}, cap is {lp.GRID_CAP}")
    rng = np.random.default_rng(config.seed)
    alpha = np.asarray(config.extras.get("alpha", rng.uniform(0.25, 0.75, n)),
                       dtype=float)
    beta = rng.uniform(0.25, 0.75, n)
    masses = rng.uniform(0.5, 1.5, n)
    masses = masses / masses.sum()

    X = Space("X", np.arange(n, dtype=float)[:, None])
    Y = Space("Y", np.arange(2 * n, dtype=float)[:, None] + 100.0)
    Z = Space("Z", np.arange(2 * n, dtype=float)[:, None] + 200.0)
    first = np.arange(n) * 2
    nu = np.column_stack([masses * alpha, masses * (1 - alpha)]).reshape(-1)
    gam = np.column_stack([masses * beta, masses * (1 - beta)]).reshape(-1)
    owner = np.arange(2 * n) // 2
    foreign = (owner != np.arange(n)[:, None]).astype(float)
    cost = foreign[:, :, None] + foreign[:, None, :]
    inst = DiscreteInstance(
        [X, Y, Z],
        [DiscreteMeasure(X, masses), DiscreteMeasure(Y, nu), DiscreteMeasure(Z, gam)],
        CostSpec("tensor", "min", {"values": cost}),
    )
    meta = {
        "alpha": alpha, "beta": beta, "masses": masses,
        "maps": (first, first + 1, first, first + 1), "n_y": 2 * n, "n_z": 2 * n,
    }
    return inst, meta


def pair_polytope_fibers(target_xy: np.ndarray, target_xz: np.ndarray):
    """Per axis-0 atom x, the vertices of the two-marginal transport polytope
    of the rows target_xy[x] and target_xz[x], as flat vectors over Y x Z.

    These fibers make up the polytope of three-axis plans with (0, 1)
    restriction `target_xy` and (0, 2) restriction `target_xz`.  By
    disintegration such a plan is fixed by its conditionals given x0, and
    the conditional at atom x is bound only by the rows target_xy[x] and
    target_xz[x]: it is a two-marginal transport plan of mass mu0(x).  So the
    polytope is the product of these fibers' transport polytopes, and its
    vertices are the products of the fibers' vertices; none is built here.
    """
    return [lp.enumerate_vertices([xy, xz]) for xy, xz in zip(target_xy, target_xz)]


def run_two_map_demo(config: ScenarioConfig) -> dict:
    inst, meta = gen_two_map_demo(config)
    res = lp.solve(inst)
    mu = inst.measures[0]
    alpha, beta = meta["alpha"], meta["beta"]
    lower, upper = extreme_assemblies(alpha, beta, meta["maps"], meta["n_y"], meta["n_z"])
    lower_plan = assemble_three_marginal(lower, mu)
    upper_plan = assemble_three_marginal(upper, mu)

    target_xy = lower_plan.marginal_on((0, 1))
    target_xz = lower_plan.marginal_on((0, 2))
    fibers = pair_polytope_fibers(target_xy, target_xz)
    # the total variation from a product vertex to the nearest product of
    # endpoint conditionals is a sum over the atoms, so its worst case over
    # the product vertices is the sum of each fiber's worst case
    endpoints = np.stack([lower_plan.to_dense(), upper_plan.to_dense()], axis=1)
    endpoint_tv = 0.0
    for fiber, ends in zip(fibers, endpoints):
        tv = 0.5 * np.abs(np.array(fiber)[:, None] - ends.reshape(2, -1)).sum(-1)
        endpoint_tv += tv.min(axis=1).max()
    vertex_count = math.prod(len(fiber) for fiber in fibers)
    per_atom_unique, all_unique = unique_condition(alpha, beta)
    open_atoms = int((~per_atom_unique).sum())

    solver_theta = recover_theta(res.plan, lower, mu)
    solver_rebuilt = assemble_three_marginal(
        mixed_assembly(lower, upper, solver_theta), mu
    )

    rng = np.random.default_rng(config.seed + 7)
    interior_ok = True
    targets = [((0, 1), target_xy), ((0, 2), target_xz)]
    for _ in range(20):
        theta = rng.uniform(0, 1, mu.size)
        plan = assemble_three_marginal(mixed_assembly(lower, upper, theta), mu)
        lp.check_marginals(plan, targets)
        back = recover_theta(plan, lower, mu)
        if open_atoms and np.abs((back - theta)[~per_atom_unique]).max() > 1e-9:
            interior_ok = False

    product = product_rows(alpha, beta)
    tagb_ok = not all_unique or bool(
        max(np.abs(lower.L - product).max(), np.abs(upper.L - product).max()) <= 1e-12)
    checks = {
        "solver_value": _round(res.value),
        "solver_on_allowed_support": res.value < 1e-12,
        "oracle_vertex_count": vertex_count,
        "expected_vertex_count": 2 ** open_atoms,
        "vertex_count_ok": vertex_count == 2 ** open_atoms,
        "open_atoms": open_atoms,
        "vertices_match_theta_endpoints": endpoint_tv < 1e-10,
        "solver_plan_is_theta_point": solver_rebuilt.total_variation(res.plan) < 1e-10,
        "interior_theta_roundtrip": bool(interior_ok),
        "unique_condition_global": bool(all_unique),
        "tagb_product_form": bool(tagb_ok),
    }
    passed = (
        checks["solver_on_allowed_support"]
        and checks["vertex_count_ok"]
        and checks["vertices_match_theta_endpoints"]
        and checks["solver_plan_is_theta_point"]
        and checks["interior_theta_roundtrip"]
        and checks["tagb_product_form"]
    )
    windows = [
        [int(i), _round(alpha[i]), _round(beta[i]),
         _round(max(0.0, alpha[i] + beta[i] - 1.0)),
         _round(min(alpha[i], beta[i]))]
        for i in range(mu.size)
    ]
    return {
        "kind": config.kind,
        "seed": config.seed,
        "support": _support_rows(res.plan),
        "windows": windows,
        "checks": checks,
        "passed": bool(passed),
    }


RUNNERS = {
    "sphereReflection": run_sphere_reflection,
    "nestedShells": run_nested_shells,
    "gangboSwiech": run_gangbo_swiech,
    "mongeQuadratic": run_monge_quadratic,
    "gromovWasserstein": run_gromov_wasserstein,
    "twoMapDemo": run_two_map_demo,
}


def run_scenario(config: ScenarioConfig) -> dict:
    return _plain(RUNNERS[config.kind](config))
