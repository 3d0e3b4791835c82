import os
import pathlib
import shutil
import subprocess
import sys
import types

import pytest

import bdecay

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def test_import_leaves_numpy_and_scipy_unloaded():
    code = (
        "import sys, bdecay, bdecay.cli; "
        "print(sorted(m for m in ('numpy', 'scipy') if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_env(), check=True
    )
    assert proc.stdout.strip() == "[]"


def test_public_names_resolve_and_are_not_modules():
    assert len(bdecay.__all__) == len(set(bdecay.__all__))
    for name in bdecay.__all__:
        value = getattr(bdecay, name)
        assert not isinstance(value, types.ModuleType), name


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    # run a copy, so that demos writing next to themselves write into tmp_path
    script = tmp_path / demo.name
    shutil.copy(demo, script)
    proc = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, capture_output=True, text=True, env=_env()
    )
    assert proc.returncode == 0, proc.stderr
