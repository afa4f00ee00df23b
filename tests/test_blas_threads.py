"""Importing radarml pins BLAS to one thread, unless a thread count is
already set in the environment."""

import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")
VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def environment_after_import(**preset):
    """The BLAS thread variables a fresh interpreter sees after importing
    radarml and numpy, started with only ``preset`` of them set."""
    env = {name: value for name, value in os.environ.items() if name not in VARS}
    env.update(preset, PYTHONPATH=os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH")))))
    code = "import json, os, radarml, numpy; print(json.dumps({v: os.environ.get(v) for v in %r}))" % (VARS,)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def test_one_thread_when_unset():
    assert environment_after_import() == dict.fromkeys(VARS, "1")


@pytest.mark.parametrize("var", VARS)
def test_a_count_the_user_set_is_kept(var):
    assert environment_after_import(**{var: "3"}) == {v: "3" if v == var else None for v in VARS}
