import os
import subprocess
import sys
from pathlib import Path

import pytest

import recurra


@pytest.fixture
def fresh_python():
    """A runner of Python code, with argv, in a new interpreter that imports
    this checkout's recurra; it returns the ``CompletedProcess``."""
    path = str(Path(recurra.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([path, os.environ.get("PYTHONPATH", "")])}

    def run(code: str, *argv: str, input: str | None = None):
        return subprocess.run([sys.executable, "-c", code, *argv], input=input,
                              capture_output=True, text=True, env=env)

    return run
