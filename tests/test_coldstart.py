"""Cold start: `import coinforge.cli` loads neither numpy nor the modules only estimate-fairness
needs; numpy loads at the first exhaustive scan, and commands that run none never load it."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

CHILD = """
import sys

marks = []

def mark(step, *names):
    marks.append((step, [name for name in names if name in sys.modules]))

from coinforge import cli
mark("import", "numpy", "statistics", "csv")

flags = ["--z", "0.3", "--epsilon", "0.0833", "--alpha", "0.3333"]
one = ["--n", "1", "--override-q", "1", "--override-s", "1", "--override-c", "1", "--override-d", "1", *flags]
assert cli.main(["gen-committees", *one, "--seed", "3", "--out", "one.json"]) == 0
assert cli.main(["gen-graphs", *one, "--seed", "3", "--layout", "one.json"]) == 0
assert cli.main(["run-coin", *one, "--layout", "one.json", "--trials", "2", "--out", "runs.json"]) == 0
assert cli.main(["cost-report", "--variant", "perfect", "--n", "1000000", "--epsilon", "0.01"]) == 0
mark("commands", "numpy")

eight = ["--n", "8", "--override-q", "5", "--override-s", "4", "--override-c", "4", "--override-d", "1", *flags]
assert cli.main(["gen-committees", *eight, "--seed", "11", "--verify", "none", "--out", "eight.json"]) == 0
mark("unverified", "numpy")
assert cli.main(["verify", *eight, "--layout", "eight.json"]) == 0
mark("verify", "numpy")
print(marks)
"""


def test_numpy_loads_only_at_an_exhaustive_scan(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", CHILD], cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    marks = proc.stdout.splitlines()[-1]  # the commands print their own lines before it
    assert marks == str([("import", []), ("commands", []), ("unverified", []), ("verify", ["numpy"])])
