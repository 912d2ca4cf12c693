"""The lexicographic ratio test against a per-column reference.

`lp._lex_leaving` decides the leaving rows of many columns at once, over a
flat list of tie pairs.  The reference below follows its docstring one
column at a time, in Python floats.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from momt import lp


def reference_leaving(tied, D, W, owner=None):
    """Per column: from its tied rows, in order, find the first j where the
    largest W[r, j] / D[r, c] exceeds the least by more than
    1e-9 (1 + |least|), keep the rows within that of the least and start
    again from j = 0; when no j differs, leave on the first row left."""
    leaving = []
    for c in range(tied.shape[1]):
        Wc = W if owner is None else W[owner[c]]
        rows = np.flatnonzero(tied[:, c]).tolist()
        j = 0
        while j < Wc.shape[-1]:
            ratios = [float(Wc[r, j] / D[r, c]) for r in rows]
            low = min(ratios)
            tol = 1e-9 * (1.0 + abs(low))
            if max(ratios) - low > tol:
                rows = [r for r, v in zip(rows, ratios) if v <= low + tol]
                j = 0
            else:
                j += 1
        leaving.append(rows[0])
    return leaving


@st.composite
def lex_calls(draw):
    """(tied, D, W, owner): at least one tied row per column, D from a few
    exact ratios, small-integer W (maybe singular, maybe with 1e-12 noise),
    plain (owner None) or stacked, one W per basis."""
    m, n_cols, depth = (draw(st.integers(1, k)) for k in (6, 6, 4))
    tied = draw(arrays(bool, (m, n_cols)))
    tied[draw(arrays(int, n_cols, elements=st.integers(0, m - 1))),
         np.arange(n_cols)] = True
    D = draw(arrays(float, (m, n_cols),
                    elements=st.sampled_from([1 / 3, 0.5, 1.0, 2.0, 3.0])))
    n_bases = draw(st.sampled_from([None, 1, 2, 3]))
    shape = (m, depth) if n_bases is None else (n_bases, m, depth)
    W = draw(arrays(int, shape, elements=st.integers(-2, 2))).astype(float)
    if draw(st.booleans()):
        W += draw(arrays(float, shape, elements=st.sampled_from([-1e-12, 0.0, 1e-12])))
    owner = (None if n_bases is None
             else draw(arrays(int, n_cols, elements=st.integers(0, n_bases - 1))))
    return tied, D, W, owner


@settings(max_examples=2000, deadline=None)
@given(lex_calls())
def test_lex_leaving_matches_the_per_column_reference(call):
    assert lp._lex_leaving(*call).tolist() == reference_leaving(*call)
