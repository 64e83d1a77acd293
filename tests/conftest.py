import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

GOLDEN = Path(__file__).parent / "golden"


# scripts/make_goldens.py: the golden commands (CASES) and solver_reprs
_spec = importlib.util.spec_from_file_location(
    "make_goldens", REPO / "scripts" / "make_goldens.py"
)
make_goldens = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_goldens)


@pytest.fixture(scope="session")
def cli_env():
    env = os.environ.copy()
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


@pytest.fixture(scope="session")
def run_cli(cli_env):
    def run(*args, timeout=180):
        return subprocess.run(
            [sys.executable, "-m", "bsbound", *args],
            capture_output=True, text=True, env=cli_env, timeout=timeout,
        )

    return run
