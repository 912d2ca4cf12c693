"""Pivot counts and output bytes of degenerate solves at N >= 3.

    python3 scripts/lex_fallback_digest.py

Run from anywhere inside a momt source tree; it imports momt from ``src/``
and takes no options.  Each instance is a uniform-weight surplus
minimization whose N point clouds are drawn in turn from
``default_rng(seed).uniform(-1, 1, (n, 2))``.  Uniform weights make
degenerate pivots, and after 40 in a row `lp.solve`'s revised simplex
switches to its lexicographic rule; the N = 3, n = 40 and 58 solves do.
One line per instance gives N, n, the seed, the calls of that rule's ratio
test (`lp._lex_leaving`, made on multi-row ties), the pivots and one
SHA-256 over the plan's entries, the value, the potentials and the second
optimal vertex, if any.  Two source trees that print the same lines took
the same pivot paths to the same bytes.
"""

import hashlib
import os
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from momt import lp  # noqa: E402
from momt.costs import CostSpec  # noqa: E402
from momt.instance import DiscreteInstance  # noqa: E402
from momt.measure import DiscreteMeasure, Space  # noqa: E402

CASES = ((3, 40, 0), (3, 40, 1), (3, 30, 2), (3, 58, 0), (4, 12, 3), (5, 8, 4))


def instance(n_axes, n, seed):
    rng = np.random.default_rng(seed)
    spaces = [Space(f"X{k}", rng.uniform(-1, 1, (n, 2))) for k in range(n_axes)]
    w = np.full(n, 1.0 / n)
    return DiscreteInstance(spaces, [DiscreteMeasure(s, w) for s in spaces],
                            CostSpec("surplus", "min"))


def main():
    lex, calls = lp._lex_leaving, [0]

    def counted(*args):
        calls[0] += 1
        return lex(*args)

    lp._lex_leaving = counted
    for n_axes, n, seed in CASES:
        calls[0] = 0
        res = lp.solve(instance(n_axes, n, seed))
        digest = hashlib.sha256()
        for cell, mass in sorted(res.plan.entries.items()):
            digest.update(repr(cell).encode())
            digest.update(np.float64(mass).tobytes())
        digest.update(np.float64(res.value).tobytes())
        for vector in res.potentials.vectors:
            digest.update(np.asarray(vector, dtype=float).tobytes())
        if res.second_vertex is not None:
            digest.update(res.second_vertex.tobytes())
        print(f"N={n_axes} n={n} seed={seed}: lex calls {calls[0]}, "
              f"pivots {res.iterations}, sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main()
