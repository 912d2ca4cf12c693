"""Lines that fingerprint every output of the benchmark's workloads.

    python3 scripts/output_digest.py

Run from anywhere inside a momt source tree; it imports momt from ``src/``
and the command lists from ``perfbench/workloads.py``, and takes no options.
Every command of ``solve_ladder``, ``diagnose_ladder`` and
``scenario_suite`` at seeds 1-3 runs once, in-process through
``momt.cli.main``, with its inputs and outputs in a temporary directory.
Each line gives the command count, the output file count, the count of each
exit code, and one SHA-256 over every output file's path (relative to the
temporary directory) and bytes, in command order: one line per workload,
named by it, then the total line over all three.  Two source trees that
print the same total line wrote byte-identical outputs; the workload lines
say which workload's bytes moved when they did not.
"""

import collections
import contextlib
import hashlib
import io
import os
import sys
import tempfile
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (1, 2, 3)

sys.dont_write_bytecode = True          # leave perfbench/ as it is
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import workloads  # noqa: E402
from momt import cli  # noqa: E402


def _files(path):
    if os.path.isdir(path):
        return [os.path.join(path, f) for f in sorted(os.listdir(path))]
    return [path] if os.path.exists(path) else []


class _Tally:
    """Commands, output files, exit codes and one SHA-256 over the outputs."""

    def __init__(self):
        self.digest = hashlib.sha256()
        self.commands = self.files = 0
        self.codes = collections.Counter()

    def add(self, code, outputs):
        """One command's exit code and its (relative path, bytes) outputs."""
        self.commands += 1
        self.codes[code] += 1
        for rel, data in outputs:
            self.files += 1
            self.digest.update(rel)
            self.digest.update(data)

    def line(self) -> str:
        exits = ", ".join(f"{code}: {n}" for code, n in sorted(self.codes.items()))
        return (f"{self.commands} commands, {self.files} files, exit codes {{{exits}}}, "
                f"sha256 {self.digest.hexdigest()}")


def main() -> None:
    total = _Tally()
    with tempfile.TemporaryDirectory() as tmp:
        for name, build in workloads.WORKLOADS.items():
            tally = _Tally()
            for seed in SEEDS:
                workdir = os.path.join(tmp, f"{name}_seed{seed}")
                os.makedirs(workdir)
                ops = build(workdir, seed)
                workloads.write_inputs(ops)
                for op in ops:
                    sink = io.StringIO()
                    try:
                        with contextlib.redirect_stdout(sink), \
                                contextlib.redirect_stderr(sink):
                            code = cli.main(op.argv)
                    except Exception:       # a crash counts as the CLI's exit 1
                        traceback.print_exc()
                        code = 1
                    outputs = []
                    for path in (f for out in op.outputs for f in _files(out)):
                        with open(path, "rb") as fh:
                            rel = os.path.relpath(path, tmp).encode()
                            outputs.append((rel, fh.read()))
                    tally.add(code, outputs)
                    total.add(code, outputs)
            print(f"{name}: {tally.line()}", flush=True)
    print(total.line())


if __name__ == "__main__":
    main()
