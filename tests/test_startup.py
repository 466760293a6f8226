"""What a fresh interpreter loads. ``scipy.stats`` would add about 430 modules
to every start-up for one ranking function, so neither ``import battleopt``
nor a ``compare`` may load it."""

import json
import os
import subprocess
import sys
from pathlib import Path

import battleopt

CHILD = """
import json, sys
import battleopt
loaded = {"import": sorted(m for m in ("scipy.stats", "scipy.special") if m in sys.modules)}
from battleopt import cli
code = cli.main(["compare", "--problem", "sphere", "--algorithm", "embgo", "--algorithm", "de",
                 "--dim", "2", "--pop", "5", "--budget", "40", "--trials", "3",
                 "--out", sys.argv[1]])
loaded["compare"] = sorted(m for m in ("scipy.stats", "scipy.special") if m in sys.modules)
print(json.dumps({"exit": code, "loaded": loaded}))
"""


def test_neither_import_nor_compare_loads_scipy_stats(tmp_path):
    src = str(Path(battleopt.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-c", CHILD, str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    report = json.loads(child.stdout.splitlines()[-1])
    assert report["exit"] == 0
    assert (tmp_path / "comparison.txt").is_file()
    # scipy.special stays: levy.gamma_fn uses its gamma
    assert report["loaded"] == {"import": ["scipy.special"], "compare": ["scipy.special"]}
