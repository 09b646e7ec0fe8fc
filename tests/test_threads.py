"""The concurrent step lifts and block-row walks.

Whatever the worker count, the lift, the products with M and the solves
give the arrays the serial loop gives.  Small work runs serially without
an executor, no executor is left behind for a forked sweep worker to
hang on, and two concurrent lifts take no more memory than the serial
lift in the Kronecker basis.
"""

import contextlib
import json
import os
import signal
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import carlift
from carlift import _threads, cli
from carlift.carleman import CarlemanBasis, UnipcQcmSet, run_lifted
from carlift.model import kron_model
from carlift.schedule import make_lambda_grid, make_vp_schedule
from carlift.solve import forward_substitute, gmres_solve
from carlift.system import assemble_global_dpm, assemble_global_unipc

from oracles import KronBasis, kron_lifting

S = make_vp_schedule(0.1, 20.0, 1.0)
PROPERTY = settings(max_examples=20, deadline=None)


@contextlib.contextmanager
def forced_workers(n):
    """A context in which every fan-out uses n workers, whatever its size."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_threads, "worker_count", lambda work, cutoff: n)
        yield


def random_kron(seed, d):
    rng = np.random.default_rng(seed)
    lin = np.diag(np.linspace(0.3, 0.7, d)) + 0.02 * rng.standard_normal((d, d))
    return kron_model(d, {
        0: 0.05 * rng.standard_normal((2, d, 1)),
        1: lin,
        2: 0.1 / d * rng.standard_normal((2, d, d * d)),
    }), rng.uniform(-1.0, 1.0, d)


def pipeline(seed, d, N, M, scheme, order, corrector):
    """Every array the lift -> assemble -> solve path makes, in order."""
    m, x_T = random_kron(seed, d)
    grid = make_lambda_grid(S, 0.5, 0.1, M)
    states, qcms = run_lifted(S, m, x_T, grid, CarlemanBasis(N=N, d=d), scheme=scheme,
                              order=order, corrector=corrector)
    out = [st.y for st in states]
    for q in qcms:
        if isinstance(q, UnipcQcmSet):
            mats = [*q.pred_mats, *q.corr_mats, q.corr_target]
            out += [q.pred_b, q.corr_b]
        else:
            mats = [q.A]
            out.append(q.b)
        out += [arr for mat in mats for arr in (mat.rows, mat.row_nnz)]
    if scheme == "dpm":
        system = assemble_global_dpm(qcms, states[0].y)
    else:
        warm = [q for q in qcms if not isinstance(q, UnipcQcmSet)]
        steps = [q for q in qcms if isinstance(q, UnipcQcmSet)]
        system = assemble_global_unipc(warm, steps, states[0].y,
                                       which="corrector" if corrector else "predictor")
    x = np.random.default_rng(seed).standard_normal(system.dim)
    gm = gmres_solve(system)
    out += [system.mat @ x, forward_substitute(system).solution, gm.solution,
            np.array([gm.iterations])]
    return out


@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 4),
    N=st.integers(1, 4),
    M=st.integers(1, 6),
    scheme=st.sampled_from(["dpm", "unipc"]),
    order=st.integers(1, 3),
    corrector=st.booleans(),
)
def test_outputs_do_not_depend_on_the_worker_count(seed, d, N, M, scheme, order, corrector):
    runs = []
    for n in (1, 2):
        with forced_workers(n):
            runs.append(pipeline(seed, d, N, M, scheme, order, corrector))
    serial, threaded = runs
    assert len(serial) == len(threaded)
    for a, b in zip(serial, threaded):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def test_small_work_creates_no_executor(monkeypatch):
    # the largest kron_sweep_kappa-like lift and solve stay below both cutoffs
    def refuse(*args, **kwargs):
        raise AssertionError("an executor was created")

    monkeypatch.setattr(_threads, "ThreadPoolExecutor", refuse)
    m, x_T = random_kron(0, 3)
    grid = make_lambda_grid(S, 0.5, 0.1, 32)
    states, qcms = run_lifted(S, m, x_T, grid, CarlemanBasis(N=4, d=3), order=2)
    system = assemble_global_dpm(qcms, states[0].y)
    gmres_solve(system)
    assert _threads.worker_count(0, 1) == 1


def test_large_work_uses_every_cpu_in_the_affinity_mask():
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert _threads.worker_count(10, 10) == cpus


def test_fan_out_keeps_order_and_raises_a_helpers_error():
    assert _threads.fan_out(lambda x: x * x, list(range(9)), 3) == [x * x for x in range(9)]

    def fail_on_5(x):
        if x == 5:
            raise ValueError("item 5")
        return x

    with pytest.raises(ValueError, match="item 5"):
        _threads.fan_out(fail_on_5, list(range(9)), 2)


def test_more_workers_than_cpus_under_rapid_thread_switches():
    # every item claimed exactly once, and every product row written by
    # one thread, while threads switch every microsecond
    m, x_T = random_kron(5, 2)
    states, qcms = run_lifted(S, m, x_T, make_lambda_grid(S, 0.5, 0.1, 12), CarlemanBasis(N=3, d=2))
    system = assemble_global_dpm(qcms, states[0].y)
    x = np.random.default_rng(5).standard_normal(system.dim)
    want = system.mat @ x
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        seen = []
        assert _threads.fan_out(lambda i: seen.append(i) or i, list(range(500)), 8) == list(range(500))
        assert sorted(seen) == list(range(500))
        with forced_workers(8):
            for _ in range(20):
                assert np.array_equal(system.mat @ x, want)
    finally:
        sys.setswitchinterval(interval)


def test_two_concurrent_lifts_stay_within_the_serial_kron_lifts_memory():
    m, x_T = random_kron(3, 4)
    grid = make_lambda_grid(S, 0.5, 0.1, 4)
    N = 4

    def peak(fn):
        tracemalloc.start()
        try:
            out = fn()
            return tracemalloc.get_traced_memory()[1], out
        finally:
            tracemalloc.stop()

    basis = CarlemanBasis(N=N, d=4)
    run_lifted(S, m, x_T, grid, basis, order=1)  # index tables built outside the traces
    with forced_workers(1), kron_lifting():
        kron_peak, _ = peak(lambda: run_lifted(S, m, x_T, grid, KronBasis(N=N, d=4), order=1))
    with forced_workers(1):
        want_states, _ = run_lifted(S, m, x_T, grid, basis, order=1)
    with forced_workers(2):
        threaded_peak, (states, _) = peak(lambda: run_lifted(S, m, x_T, grid, basis, order=1))
    assert all(np.array_equal(a.y, b.y) for a, b in zip(states, want_states))
    assert threaded_peak <= kron_peak


FORKED_SWEEP = """
import sys
import numpy as np
from carlift import _threads, cli
from carlift.carleman import CarlemanBasis, run_lifted
from carlift.model import kron_model
from carlift.schedule import make_lambda_grid, make_vp_schedule
from carlift.solve import gmres_solve
from carlift.system import assemble_global_dpm

_threads.worker_count = lambda work, cutoff: 2
s = make_vp_schedule(0.1, 20.0, 1.0)
m = kron_model(2, {1: 0.5 * np.eye(2), 2: np.full((2, 4), 0.01)})
states, qcms = run_lifted(s, m, np.ones(2), make_lambda_grid(s, 0.5, 0.1, 8), CarlemanBasis(N=3, d=2))
gmres_solve(assemble_global_dpm(qcms, states[0].y))
sys.exit(cli.main(["sweep", "--config", sys.argv[1], "--out", sys.argv[2]]))
"""


def test_sweep_after_an_in_process_parallel_run_does_not_hang(tmp_path):
    cfg = {
        "model": {"mode": "kron", "d": 2, "blocks": {"1": [[0.5, 0.0], [0.1, 0.4]],
                                                     "2": [[0.01] * 4, [-0.02] * 4]}},
        "window": {"x_T": [0.8, 0.6], "t_start": 0.5, "t_end": 0.1, "M": 6},
        "carleman": {"solver": "gmres"},
        "sweep": {"command": "carleman", "parameter": "carleman.N", "values": [1, 2, 3],
                  "workers": 2},
    }
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(cfg))
    src = str(Path(carlift.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    # in its own process group, so a hung run's pool workers are killed with it
    proc = subprocess.Popen([sys.executable, "-c", FORKED_SWEEP, str(path), str(tmp_path / "w2")],
                            env=env, stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    assert proc.returncode == 0, err

    serial = {**cfg, "sweep": {**cfg["sweep"], "workers": 1}}
    path.write_text(json.dumps(serial))
    assert cli.main(["sweep", "--config", str(path), "--out", str(tmp_path / "w1")]) == 0
    assert (tmp_path / "w2" / "sweep.csv").read_bytes() == (tmp_path / "w1" / "sweep.csv").read_bytes()
