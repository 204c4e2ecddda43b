"""Regression: concurrent solves sharing one checkpoint dir must not
clobber each other's ``ckpt_step*.npz`` files (names carry only step and
rank).  The fix is the ``checkpoint_namespace`` extra, a subdirectory
named verbatim; the solver service always namespaces by job key.
"""

import numpy as np
import pytest

from repro.tune.cache import cache_scope
from tests.serve.conftest import make_problem


def _ckpts(directory):
    return sorted(p.name for p in directory.glob("ckpt_step*.npz"))


def test_unnamespaced_paths_unchanged(tmp_path):
    """Back-compat: without the namespace extra, checkpoints land exactly
    where the golden tests expect them."""
    with cache_scope():
        problem = make_problem(nsteps=3)
        problem.extra["checkpoint_every"] = 1
        problem.extra["checkpoint_dir"] = str(tmp_path)
        problem.solve()
    assert (tmp_path / "ckpt_step000001.npz").exists()
    assert len(_ckpts(tmp_path)) == 3


def test_explicit_namespace_used_verbatim_and_restorable(tmp_path):
    with cache_scope():
        problem = make_problem(nsteps=4)
        problem.extra["checkpoint_every"] = 1
        problem.extra["checkpoint_dir"] = str(tmp_path)
        problem.extra["checkpoint_namespace"] = "jobA"
        full = problem.solve().solution().copy()
        ckpt = tmp_path / "jobA" / "ckpt_step000002.npz"
        assert ckpt.exists()

        # resume from the namespaced file: bit-identical to the full run
        resumed = make_problem(nsteps=4)
        resumed.extra["restore_from"] = str(ckpt)
        solver = resumed.generate()
        solver.run(4 - solver.state.step_index)
        assert np.array_equal(solver.solution(), full)


@pytest.mark.parametrize("rebalance", [False, True])
def test_two_namespaces_under_one_root_keep_separate_files(tmp_path, rebalance):
    """Cell ranks write under their namespace whether or not the elastic
    runtime is on (its runner reads the directory the state resolves)."""
    for namespace in ("jobA", "jobB"):
        with cache_scope():
            problem = make_problem(nsteps=4)
            problem.set_partitioning("cells", 2)
            problem.extra.update(checkpoint_every=2, checkpoint_dir=str(tmp_path),
                                 checkpoint_namespace=namespace, rebalance=rebalance)
            problem.solve()
    for namespace in ("jobA", "jobB"):
        assert _ckpts(tmp_path / namespace) == [
            f"ckpt_step00000{step}_rank{rank}.npz" for step in (2, 4) for rank in (0, 1)]
    assert _ckpts(tmp_path) == []


def test_service_namespaces_checkpoints_by_job_key(tmp_path):
    """Two jobs served concurrently from one checkpoint root never share
    a directory: each writes under ``<root>/<job_key[:16]>/``."""
    from repro.serve import ServiceConfig, serve_session

    with cache_scope():
        config = ServiceConfig(workers=2, checkpoint_every=1,
                               checkpoint_dir=str(tmp_path))
        with serve_session(config) as service:
            client = service.client
            client.hold()
            t1 = client.submit(make_problem(nsteps=3, slow_s=0.01),
                               tenant="alice")
            t2 = client.submit(make_problem(nsteps=4, slow_s=0.01),
                               tenant="bob")
            client.release()
            r1, r2 = t1.result(120), t2.result(120)
    assert r1.key != r2.key
    for result, steps in ((r1, 3), (r2, 4)):
        sub = tmp_path / result.key[:16]
        assert len(_ckpts(sub)) == steps
    # the shared root itself stays clean
    assert _ckpts(tmp_path) == []
