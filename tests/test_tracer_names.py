"""Every name the benchmark tracer patches still exists.

``perfbench/tracing.py`` replaces matrel, numpy and scipy functions by
name and names each residual span by its relation class.  A renamed or
removed function would otherwise surface only in a traced benchmark
run.  The tracer is installed in a subprocess, so its numpy patches
never reach this test process.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

INSTALL_AND_CHECK = """
import tracing
from matrel import relations

tracer = tracing.Tracer()
tracer.install()
patched = len(tracer._patches)
tracer.uninstall()
assert patched > 0, patched
for kind in tracing.RESIDUAL_KINDS:
    cls = getattr(relations, kind, None)
    assert isinstance(cls, type) and issubclass(cls, relations.Relation), kind
print("ok")
"""


def test_the_tracer_installs_and_names_only_relation_classes():
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(
                   [str(ROOT / "src"), str(ROOT / "perfbench")]))
    run = subprocess.run([sys.executable, "-W", "error", "-c", INSTALL_AND_CHECK],
                         cwd=ROOT, env=env, capture_output=True, text=True,
                         timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stdout == "ok\n"
