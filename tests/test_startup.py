"""What a fresh interpreter loads. scipy is a test-only dependency:
``scipy.stats`` would add about 430 modules to every start-up and
``scipy.special`` about 300, so neither ``import battleopt`` nor a
``compare`` may load any ``scipy`` module."""

import json
import os
import subprocess
import sys
from pathlib import Path

import battleopt

COMPARE = """
from battleopt import cli
code = cli.main(["compare", "--problem", "sphere", "--algorithm", "embgo", "--algorithm", {other!r},
                 "--dim", "2", "--pop", "5", "--budget", "40", "--trials", "3",
                 "--out", sys.argv[1]])
"""

CHILD = """
import json, sys
import battleopt
def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
loaded = {"import": scipy_modules()}
""" + COMPARE.format(other="de") + """
loaded["compare"] = scipy_modules()
print(json.dumps({"exit": code, "loaded": loaded}))
"""

# A finder ahead of every other one that refuses scipy: the run must not need it.
NO_SCIPY_CHILD = """
import sys
class RefuseScipy:
    @staticmethod
    def find_spec(name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"scipy is refused in this interpreter: {name}")
sys.meta_path.insert(0, RefuseScipy)
""" + COMPARE.format(other="mbgo") + """
sys.exit(code)
"""


def run_child(code: str, out: Path) -> subprocess.CompletedProcess:
    src = str(Path(battleopt.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, str(out)],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_neither_import_nor_compare_loads_scipy_stats(tmp_path):
    child = run_child(CHILD, tmp_path)
    assert child.returncode == 0, child.stderr
    report = json.loads(child.stdout.splitlines()[-1])
    assert report["exit"] == 0
    assert (tmp_path / "comparison.txt").is_file()
    assert report["loaded"] == {"import": [], "compare": []}


def test_compare_runs_where_scipy_cannot_be_imported(tmp_path):
    child = run_child(NO_SCIPY_CHILD, tmp_path)
    assert child.returncode == 0, child.stderr
    assert (tmp_path / "comparison.txt").is_file()
