"""Every script in ``demos/`` runs unchanged as its own process, from an
empty working directory, and exits 0."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_present():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_0(demo, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(demo)], cwd=tmp_path,
                            env=dict(os.environ, PYTHONPATH=path),
                            capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stderr


def test_readme_library_quick_start_runs():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    exec(block, namespace)
    # The block ends with the two loss calls; each gives a positive loss.
    for line in block.strip().splitlines()[-2:]:
        value = eval(line, namespace)
        assert isinstance(value, float) and 0.0 < value < float("inf")
