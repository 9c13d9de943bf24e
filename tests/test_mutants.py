"""The checked-in mutants (tests/mutants.py) must each fail their named
test, and the unmutated tree must pass every named test. Each run is one
pytest subprocess at a time on a copy of the flowrl package, with
PYTHONPATH set to the copy only. The subprocesses share one bytecode cache
outside the checkout, so pytest rewrites the test and plugin modules once
a session instead of once a run; each copy of the package lies at a path
of its own, so no run reads another's bytecode."""
import os
import shutil
import subprocess
import sys

import pytest

import flowrl
from mutants import MUTANTS

PACKAGE = os.path.dirname(os.path.abspath(flowrl.__file__))
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def copy_package(tmp_path):
    """A copy of the package under tmp_path/src; returns that src."""
    src = tmp_path / "src"
    shutil.copytree(PACKAGE, src / "flowrl", ignore=shutil.ignore_patterns("__pycache__"))
    return src


@pytest.fixture(scope="session")
def pycache(tmp_path_factory):
    return tmp_path_factory.mktemp("pycache")


def run_pytest(src, test_ids, pycache):
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONPYCACHEPREFIX=str(pycache))
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # which would keep the cache from being written
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *test_ids],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )


def test_every_mutant_names_a_distinct_site():
    names = [m[0] for m in MUTANTS]
    assert len(set(names)) == len(names)
    sites = [(m[1], m[2], m[3]) for m in MUTANTS]
    assert len(set(sites)) == len(sites)


def test_unmutated_tree_passes_every_named_test(tmp_path, pycache):
    test_ids = sorted({m[4] for m in MUTANTS})
    proc = run_pytest(copy_package(tmp_path), test_ids, pycache)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert "%d passed" % len(test_ids) in proc.stdout


@pytest.mark.parametrize("name, file, text, replacement, test_id", MUTANTS,
                         ids=[m[0] for m in MUTANTS])
def test_mutant_fails_its_test(tmp_path, pycache, name, file, text, replacement, test_id):
    src = copy_package(tmp_path)
    path = src / "flowrl" / file
    source = path.read_text(encoding="utf-8")
    assert source.count(text) == 1, "%s: the mutated text must occur once in %s" % (name, file)
    path.write_text(source.replace(text, replacement), encoding="utf-8")
    proc = run_pytest(src, [test_id], pycache)
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    # exit code 1 with a failed test: a collection or import error exits 2
    assert proc.returncode == 1 and "1 failed" in summary and "error" not in summary, (
        "%s survived %s (exit %d): %s" % (name, test_id, proc.returncode,
                                          proc.stdout[-3000:] + proc.stderr[-3000:]))
