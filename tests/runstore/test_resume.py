"""Checkpoint/resume: a SIGKILL-ed sweep, restarted, re-runs only missing keys.

The acceptance scenario from the runstore design: results are persisted
per job as they finish, so killing the driver mid-sweep loses only the
in-flight job. Re-running the identical sweep against the same store
serves the persisted prefix as cache hits and simulates the remainder.
"""

import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

_REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
_N_JOBS = 6

_CHILD = """\
import json
import sys
import time

from repro.runstore import Job, RunStore, run_jobs
from tests.runstore.fakes import scenario


def slow(sc, **kwargs):
    time.sleep(0.4)
    return {"name": sc.name}


if __name__ == "__main__":
    store = RunStore(sys.argv[1])
    n = int(sys.argv[2])
    out = run_jobs(
        [Job(scenario(i)) for i in range(n)],
        store=store,
        workers=1,
        run_fn=slow,
    )
    print(json.dumps(out.stats.to_json()))
"""


def _spawn(script, store_dir):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(_REPO_ROOT / "src"), str(_REPO_ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.Popen(
        [sys.executable, "-u", str(script), str(store_dir), str(_N_JOBS)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        cwd=str(_REPO_ROOT),
        text=True,
    )


def _stored(store_dir):
    objects = pathlib.Path(store_dir) / "objects"
    if not objects.is_dir():
        return 0
    return sum(1 for f in objects.iterdir() if f.suffix == ".pkl")


def test_sigkilled_sweep_resumes_with_only_missing_keys(tmp_path):
    script = tmp_path / "sweep_child.py"
    script.write_text(_CHILD)
    store_dir = tmp_path / "store"

    # First run: kill -9 the driver once at least one result is persisted.
    # The with block closes the killed child's pipes.
    with _spawn(script, store_dir) as proc:
        deadline = time.monotonic() + 60.0
        try:
            while _stored(store_dir) < 1:
                if proc.poll() is not None:
                    pytest.fail(
                        "sweep finished before it could be killed:\n"
                        + proc.stderr.read()
                    )
                if time.monotonic() > deadline:
                    pytest.fail("no result persisted within 60s")
                time.sleep(0.01)
        finally:
            proc.kill()  # SIGKILL: no cleanup handlers run
            proc.wait()

    survived = _stored(store_dir)
    assert 0 < survived < _N_JOBS

    # Second run: same sweep, same store — completes, re-running only
    # the scenarios with no stored result.
    with _spawn(script, store_dir) as done:
        out, err = done.communicate(timeout=120)
    assert done.returncode == 0, err
    stats = json.loads(out.strip().splitlines()[-1])
    assert stats["hits"] == survived
    assert stats["misses"] == _N_JOBS - survived
    assert stats["failures"] == 0
    assert _stored(store_dir) == _N_JOBS
