"""The four carlift benchmark workloads.

Each workload builds its inputs from the benchmark seed, hands the
program only those generated inputs, and exposes one *pass*: a fixed
list of items.  An item is one pipeline pass; it raises
:class:`ItemFailure` when a call raises, does not converge, or a
correctness check falls outside its tolerance.  Every call into a
carlift module goes through ``tracer.call`` under a
``<module>.<function>`` span name, and every exact count goes through
``tracer.count``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from carlift import cli, model
from carlift.carleman import CarlemanBasis, UnipcQcmSet, run_lifted
from carlift.diagnostics import dissipativity_P, order_sweep, spectrum_trace, truncation_sweep
from carlift.errors import ConvergenceError
from carlift.model import kron_model
from carlift.presets import benchmark
from carlift.readout import recover_sparse
from carlift.reference import rk4_oracle, run_dpm, run_unipc
from carlift.schedule import make_lambda_grid, make_vp_schedule
from carlift.solve import LchsConfig, forward_substitute, gmres_solve, lchs_solve
from carlift.system import assemble_global_dpm, assemble_global_unipc, condition_number

from spans import Tracer


class ItemFailure(Exception):
    """An item that raised, did not converge, or fell outside tolerance."""

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind  # "raised" | "not_converged" | "tolerance"


def check(ok: bool, message: str) -> None:
    if not ok:
        raise ItemFailure("tolerance", message)


@dataclass
class Item:
    name: str
    run: Callable[[Tracer], None]


# --- inputs ---------------------------------------------------------------


def schedule():
    return make_vp_schedule(0.1, 20.0, 1.0)


def random_kron(seed: int, stream: int, d: int):
    """Seeded d-dimensional kron model with linear and quadratic terms.

    A fixed diagonal linear part plus small seeded perturbations keeps
    the work per seed (power-iteration counts above all) close to
    constant, so that runs at different seeds are comparable.
    """
    rng = np.random.default_rng((seed, stream, d))
    A1 = np.diag(np.linspace(0.3, 0.7, d)) + 0.01 * rng.normal(size=(d, d))
    A2 = 0.02 / d * rng.normal(size=(d, d * d))
    x_T = 0.8 + 0.1 * rng.uniform(size=d)
    return kron_model(d, {1: A1, 2: A2}), x_T


def kron_basis(d: int, N: int) -> CarlemanBasis:
    return CarlemanBasis(N=N, d=d, mode="kron")


class Workload:
    """One benchmark workload: seeded inputs, a warm-up and one pass of items."""

    name: str
    nominal_pass_s: float  # seconds per pass on a 2-core Xeon; sets passes per run

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed
        self.work_dir = work_dir

    def estimate_bytes(self) -> int:
        """Estimated peak bytes, for the memory pre-flight."""
        raise NotImplementedError

    def build(self) -> list[Item]:
        """Build the seeded inputs and return one pass of items."""
        raise NotImplementedError

    def warmup(self, tracer: Tracer) -> None:
        """Run one small untimed item of the same pipeline."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed work after set-up that the checks need."""


# --- memory pre-flight ----------------------------------------------------

BASE_BYTES = 150 * 2**20  # interpreter, numpy and scipy before any work


def lift_bytes(d: int, N: int, M: int, mats_per_step: int = 1, dense_kappa: bool = False,
               krylov: int = 0) -> int:
    """Estimated peak bytes of one lift -> assemble -> solve pipeline.

    Counts the dense (d^j, d^q) blocks ``compose_poly_power`` holds for
    the top block row, the per-step matrices kept by the caller, the
    global CSR with its COO and triangular-check temporaries, a dense
    copy for SVD condition numbers and a GMRES Krylov basis.
    """
    D = sum(d**j for j in range(1, N + 1))
    tail = [sum(d**q for q in range(j, N + 1)) for j in range(1, N + 1)]
    step_nnz = sum(d**j * tail[j - 1] for j in range(1, N + 1))
    compose = 3 * 8 * max(d**j * tail[j - 1] for j in range(1, N + 1))
    global_nnz = M * step_nnz * mats_per_step + (M + 1) * D
    total = BASE_BYTES + compose + 12 * M * step_nnz * mats_per_step + 48 * global_nnz
    if dense_kappa:
        total += 3 * 8 * ((M + 1) * D) ** 2
    total += 8 * krylov * (M + 1) * D
    return int(total)


# --- kron_lift ------------------------------------------------------------


class KronLift(Workload):
    """Large d=4 lifts through run_lifted, assembly, forward substitution,
    GMRES and the reference sampler."""

    name = "kron_lift"
    nominal_pass_s = 7.0
    SHAPES = {"A": (4, 4, 32, 2), "B": (4, 5, 16, 1)}  # d, N, M, k
    ORDER = ("A", "B")
    BLOCK1_TOL = 1e-3  # pinned truncation tolerance, relative to max |x|

    def estimate_bytes(self) -> int:
        return max(lift_bytes(d, N, M, krylov=51) for d, N, M, _ in self.SHAPES.values())

    def build(self) -> list[Item]:
        s = schedule()
        items = []
        for idx, shape in enumerate(self.ORDER):
            d, N, M, k = self.SHAPES[shape]
            m, x_T = random_kron(self.seed, idx, d)
            grid = make_lambda_grid(s, 0.5, 0.1, M)
            items.append(Item(f"{shape}{idx}", self._item(s, m, x_T, grid, kron_basis(d, N), k)))
        return items

    def warmup(self, tracer: Tracer) -> None:
        s = schedule()
        m, x_T = random_kron(self.seed, 99, 2)
        self._item(s, m, x_T, make_lambda_grid(s, 0.5, 0.1, 4), kron_basis(2, 4), 2)(tracer)

    def _item(self, s, m, x_T, grid, basis, k):
        def run(tr: Tracer) -> None:
            states, qcms = tr.call("carleman.run_lifted", run_lifted, s, m, x_T, grid, basis,
                                   scheme="dpm", order=k, alloc=True)
            system = tr.call("system.assemble", assemble_global_dpm, qcms, states[0].y, alloc=True)
            count_lift(tr, basis, qcms, system)
            fwd = tr.call("solve.forward_substitute", forward_substitute, system)
            gm = call_gmres(tr, system)
            ref = tr.call("reference.sampler", run_dpm, s, m, x_T, grid, k)
            tr.count("reference.sampler.nfe", ref.nfe)
            probe_total_derivative(tr, s, m, grid, range(1, grid.M + 1), k)

            seq = np.concatenate([st.y for st in states])
            scale = max(1.0, float(np.max(np.abs(seq))))
            gap = float(np.max(np.abs(fwd.solution - seq)))
            check(gap <= 1e-9 * scale, f"global solve differs from sequential walk by {gap:.3e}")
            check(fwd.residual <= 1e-12, f"forward residual {fwd.residual:.3e} > 1e-12")
            ggap = float(np.max(np.abs(gm.solution - fwd.solution)))
            check(ggap <= 1e-6 * scale, f"GMRES differs from forward substitution by {ggap:.3e}")
            block1 = fwd.solution.reshape(system.n_blocks, system.block_dim)[:, basis.block_slice(1)]
            ref_x = ref.state_matrix()
            err = float(np.max(np.abs(block1 - ref_x)))
            tol = self.BLOCK1_TOL * max(1.0, float(np.max(np.abs(ref_x))))
            check(err <= tol, f"block 1 differs from run_dpm by {err:.3e} > {tol:.1e}")
        return run


def count_lift(tr: Tracer, basis, qcms, system) -> None:
    tr.count("carleman.lifted_dim", basis.dim_total)
    tr.count("carleman.step_nnz", sum(step_nnz(q) for q in qcms))
    tr.count("system.nnz", system.mat.nnz)


def step_nnz(q) -> int:
    if isinstance(q, UnipcQcmSet):
        return sum(mat.nnz for mat in (*q.pred_mats, *q.corr_mats, q.corr_target))
    return q.A.nnz


def call_gmres(tr: Tracer, system, max_iter: int = 20000):
    tr.count("solve.gmres_solve.calls", 1)
    try:
        res = tr.call("solve.gmres_solve", gmres_solve, system, max_iter=max_iter)
    except ConvergenceError as exc:
        tr.count("solve.gmres_solve.iterations", exc.iterations)
        raise ItemFailure("not_converged", f"gmres: {exc}") from exc
    tr.count("solve.gmres_solve.iterations", res.iterations)
    tr.count("solve.gmres_solve.converged", 1)
    return res


def probe_total_derivative(tr: Tracer, s, m, grid, steps, k: int) -> None:
    """Time total_derivative_poly on the per-step inputs the pipeline used.

    Only in the traced run; the runner keeps probe time out of wall time.
    """
    if not tr.enabled:
        return
    for i in steps:
        for n in range(k):
            tr.call(PROBE_SPAN, TOTAL_DERIVATIVE, s, m, n, lam_center=float(grid.lam[i - 1]))
            tr.count("model.total_derivative_poly.probe_calls", 1)


PROBE_SPAN = "model.total_derivative_poly"
TOTAL_DERIVATIVE = model.total_derivative_poly


def probe_seconds(tr: Tracer) -> float:
    """Time spent in probe calls so far, to be kept out of wall time."""
    return sum(sp.end - sp.start for sp in tr.spans if sp.name == PROBE_SPAN)


def count_total_derivative_calls(tr: Tracer):
    """Count the pipeline's calls of model.total_derivative_poly.

    The call runs inside run_lifted and the samplers, where the benchmark
    has no span.  This rebinds the name in every carlift module that
    imported it and returns a function that restores the originals.
    """
    def counted(*args, **kwargs):
        tr.count("model.total_derivative_poly.calls", 1)
        return TOTAL_DERIVATIVE(*args, **kwargs)

    patched = [mod for name, mod in sys.modules.items() if name.startswith("carlift")
               and getattr(mod, "total_derivative_poly", None) is TOTAL_DERIVATIVE]
    for mod in patched:
        mod.total_derivative_poly = counted

    def restore():
        for mod in patched:
            mod.total_derivative_poly = TOTAL_DERIVATIVE
    return restore


# --- kron_sweep_kappa -------------------------------------------------------


class KronSweepKappa(Workload):
    """Many small and medium lifts, each with a condition-number estimate,
    plus one GMRES solve on an M=64 trajectory."""

    name = "kron_sweep_kappa"
    nominal_pass_s = 9.0
    # (scheme, order, d, N); all at M=32 on the window t 0.5 -> 0.1
    POINTS = (
        ("dpm", 1, 2, 3),
        ("dpm", 1, 2, 4),
        ("dpm", 1, 2, 5),
        ("dpm", 2, 2, 4),
        ("dpm", 2, 3, 3),
        ("unipc", 2, 2, 3),
        ("unipc", 2, 2, 4),
        ("unipc", 3, 2, 4),
        ("dpm", 1, 3, 4),
    )
    CROSS_CHECK = ("dpm", 1, 2, 4)  # also estimated by power iteration
    GMRES_POINT = (2, 1, 64)  # d, N, M of the GMRES solve, window t 1.0 -> 0.05
    GMRES_MAX_ITER = 2000

    def estimate_bytes(self) -> int:
        sizes = [lift_bytes(d, N, 32, mats_per_step=2 * o + 1 if sch == "unipc" else 1,
                            dense_kappa=33 * sum(d**j for j in range(1, N + 1)) <= 2000)
                 for sch, o, d, N in self.POINTS]
        d, N, M = self.GMRES_POINT
        return max(sizes + [lift_bytes(d, N, M, krylov=51)])

    def build(self) -> list[Item]:
        s = schedule()
        grid = make_lambda_grid(s, 0.5, 0.1, 32)
        items = []
        for idx, point in enumerate(self.POINTS):
            sch, order, d, N = point
            m, x_T = random_kron(self.seed, idx, d)
            items.append(Item(f"{sch}{order}_d{d}_N{N}",
                              self._kappa_item(s, m, x_T, grid, d, N, sch, order,
                                               point == self.CROSS_CHECK)))
        d, N, M = self.GMRES_POINT
        m, x_T = random_kron(self.seed, len(self.POINTS), d)
        items.append(Item(f"gmres_d{d}_N{N}_M{M}",
                          self._gmres_item(s, m, x_T, make_lambda_grid(s, 1.0, 0.05, M), d, N)))
        return items

    def warmup(self, tracer: Tracer) -> None:
        s = schedule()
        m, x_T = random_kron(self.seed, 99, 2)
        grid = make_lambda_grid(s, 0.5, 0.1, 4)
        self._kappa_item(s, m, x_T, grid, 2, 2, "dpm", 2, True)(tracer)
        self._kappa_item(s, m, x_T, grid, 2, 2, "unipc", 3, False)(tracer)
        self._gmres_item(s, m, x_T, grid, 2, 1)(tracer)

    def _kappa_item(self, s, m, x_T, grid, d, N, scheme, order, cross_check):
        basis = kron_basis(d, N)

        def run(tr: Tracer) -> None:
            system = lift_and_assemble(tr, s, m, x_T, grid, basis, scheme, order)
            if scheme == "dpm":
                probe_total_derivative(tr, s, m, grid, range(1, grid.M + 1), order)
            else:
                probe_total_derivative(tr, s, m, grid, range(1, order), order)
            rep = condition(tr, system, "auto")
            check(math.isfinite(rep.kappa) and rep.kappa >= 1.0, f"kappa {rep.kappa} not >= 1")
            if cross_check:
                other = condition(tr, system, "power" if rep.method == "dense_svd" else "dense_svd")
                rel = abs(other.kappa - rep.kappa) / rep.kappa
                check(rel <= 0.01, f"power and dense kappa differ by {rel:.2e} > 1%")
        return run

    def _gmres_item(self, s, m, x_T, grid, d, N):
        basis = kron_basis(d, N)

        def run(tr: Tracer) -> None:
            system = lift_and_assemble(tr, s, m, x_T, grid, basis, "dpm", 1)
            gm = call_gmres(tr, system, max_iter=self.GMRES_MAX_ITER)
            fwd = tr.call("solve.forward_substitute", forward_substitute, system)
            gap = float(np.max(np.abs(gm.solution - fwd.solution)))
            scale = max(1.0, float(np.max(np.abs(fwd.solution))))
            check(gap <= 1e-6 * scale, f"GMRES differs from forward substitution by {gap:.3e}")
        return run


def lift_and_assemble(tr: Tracer, s, m, x_T, grid, basis, scheme: str, order: int):
    states, qcms = tr.call("carleman.run_lifted", run_lifted, s, m, x_T, grid, basis,
                           scheme=scheme, order=order, corrector=scheme == "unipc", alloc=True)
    if scheme == "dpm":
        system = tr.call("system.assemble", assemble_global_dpm, qcms, states[0].y, alloc=True)
    else:
        warm = [q for q in qcms if not isinstance(q, UnipcQcmSet)]
        steps = [q for q in qcms if isinstance(q, UnipcQcmSet)]
        system = tr.call("system.assemble", assemble_global_unipc, warm, steps, states[0].y,
                         which="corrector", alloc=True)
    count_lift(tr, basis, qcms, system)
    return system


def condition(tr: Tracer, system, method: str):
    rep = tr.call("system.condition_number", condition_number, system, method=method, rtol=1e-4)
    tr.count("system.condition_number.calls", 1)
    tr.count("system.condition_number.iterations", rep.iterations)
    if not rep.converged:
        raise ItemFailure("not_converged", f"{rep.method} kappa after {rep.iterations} iterations")
    tr.count("system.condition_number.converged", 1)
    return rep


# --- scalar_presets ---------------------------------------------------------


class ScalarPresets(Workload):
    """Order and truncation sweeps, simulate-style runs, spectrum, LCHS and
    readout on the pinned scalar presets."""

    name = "scalar_presets"
    nominal_pass_s = 6.5
    M_LIST = (8, 16, 32, 64, 128)
    READOUT_R = (2, 4, 8)
    READOUT_TRIALS = 100

    def estimate_bytes(self) -> int:
        return lift_bytes(1, 4, 16, dense_kappa=True)

    def build(self) -> list[Item]:
        self.errors: dict[tuple, np.ndarray] = {}
        rng = np.random.default_rng((self.seed, 7))
        items = [Item(f"order_dpm{k}", self._order_item("cubic", "dpm", k)) for k in (1, 2, 3)]
        items += [Item(f"order_{sch}{p}", self._order_item("weak_quadratic", sch, p))
                  for sch in ("unip", "unic") for p in (2, 3)]
        # relative tolerances pinned at about 3x the discretisation error at M=16
        for bench_name, sch, order, rtol in (("cubic", "dpm", 2, 2e-3),
                                             ("weak_quadratic", "unic", 2, 1e-5)):
            scale = 1.0 + 0.05 * (rng.uniform() - 0.5)
            items.append(Item(f"simulate_{sch}{order}",
                              self._simulate_item(bench_name, sch, order, scale, rtol)))
        items.append(Item("truncation", self._truncation_item()))
        items.append(Item("spectrum", self._spectrum_item()))
        items.append(Item("lchs_const", self._lchs_const_item(*LCHS_PINNED)))
        items.append(Item("lchs_timedep", self._lchs_timedep_item(*lchs_inputs(rng), rng)))
        items.append(Item("readout", self._readout_item(rng)))
        return items

    def warmup(self, tracer: Tracer) -> None:
        rng = np.random.default_rng((self.seed, 99))
        b = benchmark("weak_quadratic")
        s = b.schedule()
        tracer.call("diagnostics.order_sweep", order_sweep, s, b.model(), [b.x_T], b.t_start,
                    b.t_end, "unic", 2, M_list=(4, 8), oracle_substeps=100)
        tracer.call("diagnostics.truncation_sweep", truncation_sweep, s, b.model(), [b.x_T],
                    b.grid(4), k=1, N_list=(1, 2), oracle_substeps=100)
        A, bvec, u0 = lchs_inputs(rng)
        tracer.call("solve.lchs_solve", lchs_solve, lambda t: A, lambda t: bvec, u0, 1.0,
                    LchsConfig(nodes=9, substeps=4))
        tracer.call("readout.recover_sparse", recover_sparse, np.array([1.0, 0.1, 0.0]), 1,
                    shots=10, amp_shots=10, seed=0)
        self._spectrum_item()(tracer)

    def _order_item(self, bench_name: str, scheme: str, order: int):
        b = benchmark(bench_name)
        s, m = b.schedule(), b.model()

        def run(tr: Tracer) -> None:
            sw = tr.call("diagnostics.order_sweep", order_sweep, s, m, [b.x_T], b.t_start, b.t_end,
                         scheme, order, M_list=self.M_LIST)
            self.errors[(scheme, order)] = sw.errors
            want = order + 1 if scheme == "unic" else order
            check(sw.slope >= want - 0.3, f"{scheme}{order} slope {sw.slope:.3f} < {want - 0.3}")
            if scheme == "unic":
                pred = self.errors.get(("unip", order))
                check(pred is not None, "no predictor errors to compare against")
                check(bool(np.all(sw.errors <= pred)), "corrector error above predictor at some M")
        return run

    def _simulate_item(self, bench_name: str, scheme: str, order: int, scale: float,
                       rtol: float):
        b = benchmark(bench_name)
        s, m = b.schedule(), b.model()
        grid = b.grid(16)
        x_T = [b.x_T * scale]

        def run(tr: Tracer) -> None:
            if scheme == "dpm":
                run_ = tr.call("reference.sampler", run_dpm, s, m, x_T, grid, k=order)
            else:
                run_ = tr.call("reference.sampler", run_unipc, s, m, x_T, grid, p=order,
                               corrector=scheme == "unic")
            tr.count("reference.sampler.nfe", run_.nfe)
            oracle = tr.call("reference.rk4_oracle", rk4_oracle, s, m, x_T, substeps=250,
                             times=grid.t)
            tr.count("reference.rk4_oracle.nfe", oracle.nfe)
            truth = oracle.state_matrix()
            err = float(np.max(np.abs(run_.state_matrix() - truth)))
            tol = rtol * float(np.max(np.abs(truth)))
            check(err <= tol, f"{scheme}{order} trajectory differs from RK4 by {err:.3e} > {tol:.1e}")
        return run

    def _truncation_item(self):
        b = benchmark("weak_quadratic")
        s, m = b.schedule(), b.model()

        def run(tr: Tracer) -> None:
            rows = tr.call("diagnostics.truncation_sweep", truncation_sweep, s, m, [b.x_T],
                           b.grid(16), k=1, N_list=(1, 2, 3, 4), with_kappa=True)
            errs = [r.error for r in rows]
            check(all(a > c for a, c in zip(errs, errs[1:])), f"errors not decreasing: {errs}")
            check(errs[-1] <= 1e-4, f"N=4 truncation error {errs[-1]:.3e} > 1e-4")
            check(all(math.isfinite(r.kappa) and r.kappa >= 1.0 for r in rows), "kappa not >= 1")
        return run

    def _spectrum_item(self):
        b = benchmark("dissipative_linear")
        s, m = b.schedule(), b.model()
        grid = b.grid(16)

        def run(tr: Tracer) -> None:
            run_ = tr.call("reference.sampler", run_dpm, s, m, [b.x_T], grid, k=1)
            tr.count("reference.sampler.nfe", run_.nfe)
            trace = tr.call("diagnostics.spectrum", spectrum_trace, s, m, run_)
            p = tr.call("diagnostics.spectrum", dissipativity_P, trace)
            check(float(p.a.min()) > 0.0, "normalised spectrum not positive")
            check(bool(np.all(np.diff(p.P) <= 0.0)), "P increases along a dissipative run")
        return run

    def _lchs_const_item(self, A, bvec, u0):
        E = expm(-A)
        exact = E @ u0 + np.linalg.solve(A, (np.eye(len(u0)) - E) @ bvec)

        def run(tr: Tracer) -> None:
            errs = []
            for K, nodes in ((32.0, 257), (64.0, 513), (128.0, 1025)):
                res = tr.call("solve.lchs_solve", lchs_solve, lambda t: A, lambda t: bvec, u0, 1.0,
                              LchsConfig(K=K, nodes=nodes, substeps=64))
                tr.count("solve.lchs_solve.n_exponentials", res.n_exponentials)
                errs.append(float(np.linalg.norm(res.u - exact)))
            check(errs[0] <= 1e-3, f"LCHS error {errs[0]:.3e} > 1e-3 at K=32")
            check(errs[0] >= errs[1] >= errs[2], f"LCHS errors not non-increasing in K: {errs}")
        return run

    def _lchs_timedep_item(self, A, bvec, u0, rng):
        P = rng.normal(scale=0.1, size=A.shape)
        A1 = 0.5 * np.array([[0.0, 1.0], [-1.0, 0.0]]) + (P - P.T)

        def A_fun(t):
            return A + t * A1

        ref = solve_ivp(lambda t, u: -A_fun(t) @ u + bvec, (0.0, 1.0), u0, method="DOP853",
                        rtol=1e-12, atol=1e-12).y[:, -1]

        def run(tr: Tracer) -> None:
            res = tr.call("solve.lchs_solve", lchs_solve, A_fun, lambda t: bvec, u0, 1.0)
            tr.count("solve.lchs_solve.n_exponentials", res.n_exponentials)
            err = float(np.linalg.norm(res.u - ref))
            check(err <= 3e-3, f"time-dependent LCHS error {err:.3e} > 3e-3")
        return run

    def _readout_item(self, rng):
        cases = []
        for r in self.READOUT_R:
            shots = math.ceil(20 * r * math.log(r))
            for _ in range(self.READOUT_TRIALS):
                v = np.zeros(1024)
                support = rng.choice(1024, size=r, replace=False)
                v[support] = rng.choice([-1.0, 1.0], size=r) * (0.5 + rng.random(r))
                cases.append((v, r, shots, int(rng.integers(2**31))))

        def run(tr: Tracer) -> None:
            ok = 0
            for v, r, shots, seed in cases:
                rep = tr.call("readout.recover_sparse", recover_sparse, v, r, shots=shots,
                              amp_shots=1024, seed=seed)
                ok += rep.success
            tr.count("readout.trials", len(cases))
            tr.count("readout.successes", ok)
            check(ok >= 0.95 * len(cases), f"readout success {ok}/{len(cases)} < 95%")
        return run


# the constant-coefficient system of acceptance criterion 7: its error falls
# as the kernel window K grows, which seeded perturbations of A do not
# guarantee once the 64-substep time discretisation dominates
LCHS_PINNED = (np.array([[2.0, 1.0], [1.0, 3.0]]), np.array([1.0, 0.5]), np.array([1.0, -0.5]))


def lchs_inputs(rng):
    """A seeded symmetric positive definite 2x2 system near the pinned one."""
    P = rng.normal(scale=0.1, size=(2, 2))
    A = np.array([[2.0, 1.0], [1.0, 3.0]]) + (P + P.T) / 2.0
    return A, rng.uniform(0.5, 1.0, size=2), rng.uniform(-1.0, 1.0, size=2)


# --- cli_sweep --------------------------------------------------------------


class CliSweep(Workload):
    """``carlift sweep`` in-process over carleman points N=1..5 with two
    worker processes."""

    name = "cli_sweep"
    nominal_pass_s = 5.0
    WORKERS = 2
    N_VALUES = (1, 2, 3, 4, 5)

    def __init__(self, seed: int, work_dir: str):
        super().__init__(seed, work_dir)
        self.n_items = 0

    def estimate_bytes(self) -> int:
        point = lift_bytes(2, max(self.N_VALUES), 16, mats_per_step=5, dense_kappa=True)
        return BASE_BYTES + self.WORKERS * point

    def _config(self, workers: int) -> dict:
        m, x_T = random_kron(self.seed, 0, 2)
        blocks = {str(j): m.coeffs[j][0].tolist() for j in (1, 2)}
        return {
            "seed": self.seed,
            "model": {"mode": "kron", "d": 2, "blocks": blocks},
            "window": {"x_T": x_T.tolist(), "t_start": 0.5, "t_end": 0.1, "M": 16},
            "carleman": {"scheme": "unipc", "order": 2, "condition": "dense_svd"},
            "sweep": {"command": "carleman", "parameter": "carleman.N",
                      "values": list(self.N_VALUES), "workers": workers},
        }

    def _write(self, name: str, cfg: dict) -> str:
        path = os.path.join(self.work_dir, name)
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        return path

    def build(self) -> list[Item]:
        os.makedirs(self.work_dir, exist_ok=True)
        self.config = self._write("sweep.json", self._config(self.WORKERS))
        return [Item("sweep", self._item())]

    def warmup(self, tracer: Tracer) -> None:
        cfg = {"seed": self.seed, "readout": {"trials": 1, "dim": 64},
               "sweep": {"command": "readout", "parameter": "readout.r", "values": [1, 2],
                         "workers": self.WORKERS}}
        out = os.path.join(self.work_dir, "warmup")
        rc = tracer.call("cli.main", cli.main,
                         ["sweep", "--config", self._write("warmup.json", cfg), "--out", out])
        shutil.rmtree(out, ignore_errors=True)
        if rc != 0:
            raise ItemFailure("raised", f"warm-up sweep exited {rc}")

    def prepare(self) -> None:
        """Untimed single-process sweep whose bytes every timed sweep must match."""
        out = os.path.join(self.work_dir, "reference")
        rc = cli.main(["sweep", "--config", self._write("reference.json", self._config(1)),
                       "--out", out])
        if rc != 0:
            raise RuntimeError(f"workers=1 reference sweep exited {rc}")
        with open(os.path.join(out, "sweep.csv"), "rb") as fh:
            self.reference = fh.read()
        shutil.rmtree(out)

    def _item(self):
        def run(tr: Tracer) -> None:
            self.n_items += 1
            out = os.path.join(self.work_dir, f"item{self.n_items}")
            try:
                rc = tr.call("cli.main", cli.main, ["sweep", "--config", self.config, "--out", out])
                check(rc == 0, f"sweep exited {rc}")
                with open(os.path.join(out, "sweep.csv"), "rb") as fh:
                    data = fh.read()
            finally:
                shutil.rmtree(out, ignore_errors=True)
            tr.count("cli.points", len(self.N_VALUES))
            tr.count("cli.sweep_csv_sha256_prefix", int(hashlib.sha256(data).hexdigest()[:12], 16))
            check(data == self.reference, "sweep.csv differs from the workers=1 reference")
        return run


WORKLOADS = {w.name: w for w in (KronLift, KronSweepKappa, ScalarPresets, CliSweep)}
