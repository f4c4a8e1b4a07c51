"""The project's pytest settings let a failing property report itself.

``filterwarnings = ["error"]`` turns every warning into an error, which
is what Tier-1 wants of matrel's own code.  Hypothesis' pytest plugin
raises a DeprecationWarning of its own while it reports a failure; as an
error that warning would end the run in an INTERNALERROR and hide the
falsifying example, so pyproject.toml ignores exactly that one.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails_from_five(n):
    assert n < 5
'''


def test_a_failing_property_prints_its_falsifying_example(tmp_path):
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "Falsifying example" in out
    assert "n=5" in out
    assert "INTERNALERROR" not in out
