"""Hypothesis-generated instance files, scenario arguments and MOMT_THREADS
values through `cli.main`: every run exits 0, 2 or 3, with no traceback and
no warning.

The documents are small instances with any field swapped for a wrong type
or shape, a NaN, an infinity or an integer beyond the float range.  Each
command runs with warnings raised as errors, so a numpy RuntimeWarning
fails the test.
"""

import contextlib
import io
import json
import string
import warnings

from hypothesis import HealthCheck, given, settings, strategies as st

from momt import cli
from momt.costs import BUILTIN_KINDS
from momt.scenarios import ALIASES, SCENARIO_KINDS

EXIT_CODES = {0, 2, 3}
NON_FINITE = st.sampled_from([float("nan"), float("inf"), float("-inf")])
HUGE_INT = st.one_of(st.integers(10**309, 10**400), st.integers(-10**400, -10**309))
NEAR_MAX = st.sampled_from([1e308, -1e308, 9e307, -9e307])
NUMBER = st.one_of(st.floats(-10, 10), st.integers(-3, 3), HUGE_INT, NON_FINITE,
                   NEAR_MAX, st.floats(allow_nan=False))
JUNK = st.one_of(st.none(), st.booleans(), st.text(max_size=3), st.just({}),
                 st.just([]), NUMBER)


WRONG = st.one_of(JUNK, st.lists(NUMBER, max_size=3))


def _mostly(valid, wrong=WRONG):
    """`valid` nine times in ten, else `wrong`.

    (A plain `one_of` would flatten the branches of `wrong` and pick them
    far more often.)
    """
    return st.sampled_from(range(10)).flatmap(lambda roll: wrong if roll == 5 else valid)


def _nested(shape, leaf):
    if not shape:
        return leaf
    return st.lists(_nested(shape[1:], leaf), min_size=shape[0], max_size=shape[0])


@st.composite
def documents(draw):
    n_axes = draw(st.integers(1, 3))
    sizes = draw(st.lists(st.integers(1, 3), min_size=n_axes, max_size=n_axes))
    d = draw(st.integers(1, 2))
    spaces = []
    for k, n in enumerate(sizes):
        # distinct first coordinates keep the atoms apart
        rows = [[float(i)] + draw(st.lists(_mostly(st.floats(-4, 4), NUMBER),
                                           min_size=d - 1, max_size=d - 1))
                for i in range(n)]
        rows = draw(_mostly(st.just(rows)))
        spaces.append(draw(_mostly(st.just({"name": f"X{k}", "points": rows}))))
    weights = [draw(_mostly(st.just([1.0 / n] * n), _nested((n,), NUMBER) | WRONG))
               for n in sizes]
    matrix = _nested((d, d), _mostly(st.floats(-3, 3), NUMBER))
    cost = draw(_mostly(st.one_of(
        st.fixed_dictionaries({"builtin": st.sampled_from(BUILTIN_KINDS[1:])}),
        st.fixed_dictionaries({"tensor": _mostly(
            _nested(tuple(sizes), _mostly(st.floats(-5, 5), NUMBER)))}),
        st.fixed_dictionaries({"builtin": st.just("gromovWasserstein"),
                               "xi": _mostly(st.floats(-3, 3)),
                               "A": _mostly(matrix)}),
    )))
    doc = {"version": draw(_mostly(st.just(1))), "spaces": spaces,
           "weights": weights, "cost": cost,
           "sense": draw(_mostly(st.sampled_from(["min", "max"])))}
    return draw(_mostly(st.just(doc)))


def _run(argv):
    """cli.main's exit code and stderr, with every warning raised as an error."""
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("error")
        code = cli.main(argv)
    return code, err.getvalue()


@settings(max_examples=250, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=documents())
def test_instance_files_exit_0_2_or_3(tmp_path, doc):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc))
    out = str(tmp_path / "out.json")
    for argv in (["solve", str(path), "--out", out],
                 ["diagnose", str(path), "--out", out],
                 ["reduce", str(path), "--subset", "1,2", "--out", out]):
        code, err = _run(argv)
        assert code in EXIT_CODES, (argv[0], code, err)
        assert "Traceback" not in err


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(threads=st.one_of(st.integers(-3, 10**6).map(str),
                         st.text(string.printable, max_size=4)),
       seeds=st.lists(st.integers(0, 50), min_size=1, max_size=2),
       kind=st.sampled_from(["gs", "mq", "gw", "twomap"]))
def test_momt_threads_values_exit_0_or_2(tmp_path, monkeypatch, threads, seeds, kind):
    # at most two seeds, so no pool starts more than two workers
    monkeypatch.setenv("MOMT_THREADS", threads)
    argv = ["scenario", kind, "--seeds", ",".join(map(str, seeds)),
            "--out", str(tmp_path / "runs")]
    code, err = _run(argv)
    assert code in EXIT_CODES, (code, err)
    assert "Traceback" not in err
    if len(seeds) == 1:
        assert code == 0


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(SCENARIO_KINDS + tuple(ALIASES)),
       seed=st.integers(-3, 2**70), n=st.integers(-1, 8), d=st.integers(-1, 3))
def test_scenario_arguments_exit_0_2_or_3(kind, seed, n, d):
    argv = ["scenario", kind, "--seed", str(seed), "--n", str(n), "--d", str(d)]
    code, err = _run(argv)
    assert code in EXIT_CODES, (argv, code, err)
    assert "Traceback" not in err
