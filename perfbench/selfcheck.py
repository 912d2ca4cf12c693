"""Fast self-test of the independent checker.

    python3 perfbench/selfcheck.py

Runs ``momt diagnose`` on two small instances, one with a unique optimum and
one non-unique by construction, and confirms that ``check.py`` accepts both
outputs and rejects each of four corruptions: a perturbed mass, a wrong
value, infeasible potentials, and a flipped uniqueness status.  Every
benchmark run repeats it after checking its own outputs.
"""

from __future__ import annotations

import copy
import json
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out", "selfcheck")


def _diagnose(cli, doc, name):
    path = os.path.join(OUT, name + ".json")
    out = os.path.join(OUT, name + ".out.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    if cli.main(["diagnose", path, "--out", out]) != 0:
        raise RuntimeError(f"momt diagnose failed on {name}")
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def corruptions(doc, result):
    """(label, corrupted copy) pairs that a sound checker must reject."""
    span = max(abs(float(result["value"])), 1.0)
    mass = copy.deepcopy(result)
    mass["support"][0]["mass"] += 1e-4
    value = copy.deepcopy(result)
    value["value"] += 1e-3 * span
    # raise the dual sum on atom 1 of axis 2 and lower it on atom 2 so that
    # the dual value and the gauge stay put while the inequality breaks
    dual = copy.deepcopy(result)
    step = 1e-2 * span * (1.0 if doc["sense"] == "min" else -1.0)
    w = doc["weights"][1]
    dual["potentials"][1][0] += step
    dual["potentials"][1][1] -= step * w[0] / w[1]
    flipped = copy.deepcopy(result)
    unique = flipped["certificates"]["uniqueness"]["status"] == "unique"
    flipped["certificates"]["uniqueness"]["status"] = "non-unique" if unique else "unique"
    return [("perturbed mass", mass), ("wrong value", value),
            ("infeasible potentials", dual), ("flipped uniqueness", flipped)]


def run() -> list[str]:
    """Faults of the checker; an empty list means it works."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import check
    import workloads
    from momt import cli

    os.makedirs(OUT, exist_ok=True)
    faults = []
    cases = [("unique", workloads.make_instance(
                 np.random.default_rng(7), 3, 3, "attractive", "min", "dirichlet")),
             ("twin", workloads.make_instance(
                 np.random.default_rng(8), 2, 4, "twin", "max", "dirichlet"))]
    for name, doc in cases:
        try:
            result = _diagnose(cli, doc, name)
        except RuntimeError as exc:
            faults.append(str(exc))
            continue
        status = result["certificates"]["uniqueness"]["status"]
        if status != ("non-unique" if name == "twin" else "unique"):
            faults.append(f"{name}: momt reports {status!r}, the case is built otherwise")
        found = check.check_diagnose(doc, result)
        if found:
            faults.append(f"{name}: checker rejects a correct output: {found}")
        for label, bad in corruptions(doc, result):
            if not check.check_diagnose(doc, bad):
                faults.append(f"{name}: checker accepts a {label}")
    return faults


if __name__ == "__main__":
    found = run()
    for fault in found:
        print(fault)
    print("checker self-test:", "FAILED" if found else "ok")
    sys.exit(1 if found else 0)
