"""Batch front end: JSON config in, bit-stable CSV tables out.

Commands: simulate, carleman, lchs, diagnose, readout, sweep.  Every run
validates its config against a strict schema (unknown keys rejected),
writes the fully resolved config next to the results, and stamps each
CSV with the tool version and a sha256 of that resolved config.  Fixed
seed and fixed config give byte-identical files, regardless of how many
workers a sweep uses.

Exit codes: 0 ok, 2 config error, 3 numerical failure, 4 non-convergence.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import math
import os
import shutil
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np
from scipy.linalg import expm

import jsonschema

from . import __version__
from .carleman import CarlemanBasis, UnipcQcmSet, run_lifted
from .diagnostics import dissipativity_P, spectrum_trace
from .errors import CapacityError, ConvergenceError, StructureError
from .model import PolyNoiseModel, kron_model, scalar_model, separable_model
from .presets import BENCHMARKS, MODEL_PRESETS, benchmark, model_preset
from .readout import recover_sparse
from .reference import rk4_oracle, run_scheme
from .schedule import make_lambda_grid, make_vp_schedule
from .solve import LchsConfig, forward_substitute, gmres_solve, lchs_solve
from .system import assemble_global_dpm, assemble_global_unipc, condition_number, export_matrix

COMMANDS = ("simulate", "carleman", "lchs", "diagnose", "readout", "sweep")


class ConfigError(Exception):
    pass


# --- schema -----------------------------------------------------------------

_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "seed": {"type": "integer", "minimum": 0},
        "out": {"type": ["string", "null"]},
        "schedule": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "beta_min": {"type": "number", "exclusiveMinimum": 0},
                "beta_max": {"type": "number", "exclusiveMinimum": 0},
                "T": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "model": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "preset": {"enum": sorted(MODEL_PRESETS)},
                "mode": {"enum": ["scalar", "separable", "kron"]},
                "d": {"type": "integer", "minimum": 1},
                "terms": {
                    "type": "array",
                    "items": {
                        "type": "array",
                        "minItems": 3,
                        "maxItems": 3,
                        "prefixItems": [
                            {"type": "integer", "minimum": 0},
                            {"type": "integer", "minimum": 0},
                            {
                                "anyOf": [
                                    {"type": "number"},
                                    {"type": "array", "items": {"type": "number"}},
                                ]
                            },
                        ],
                    },
                },
                "blocks": {
                    "type": "object",
                    "additionalProperties": {"type": "array"},
                },
            },
        },
        "window": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "benchmark": {"enum": sorted(BENCHMARKS)},
                "x_T": {
                    "anyOf": [
                        {"type": "number"},
                        {"type": "array", "items": {"type": "number"}, "minItems": 1},
                    ]
                },
                "t_start": {"type": "number", "exclusiveMinimum": 0},
                "t_end": {"type": "number", "exclusiveMinimum": 0},
                "M": {"type": "integer", "minimum": 1},
            },
        },
        "simulate": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "scheme": {"enum": ["dpm", "unip", "unic"]},
                "order": {"type": "integer", "minimum": 1, "maximum": 3},
                "variant": {"enum": ["bh1", "bh2"]},
                "oracle": {"type": "boolean"},
                "oracle_substeps": {"type": "integer", "minimum": 1},
            },
        },
        "carleman": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "N": {"type": "integer", "minimum": 1},
                "scheme": {"enum": ["dpm", "unipc"]},
                "order": {"type": "integer", "minimum": 1, "maximum": 3},
                "variant": {"enum": ["bh1", "bh2"]},
                "which": {"enum": ["predictor", "corrector"]},
                "solver": {"enum": ["forward", "gmres"]},
                "gmres_tol": {"type": "number", "exclusiveMinimum": 0},
                "condition": {"enum": ["auto", "dense_svd", "lanczos", "none"]},
                "condition_rtol": {"type": "number", "exclusiveMinimum": 0},
                "equivalence_check": {"type": "boolean"},
                "export_matrix": {"type": "boolean"},
            },
        },
        "lchs": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "A": {"type": "array", "items": {"type": "array", "items": {"type": "number"}}},
                "b": {"type": "array", "items": {"type": "number"}},
                "u0": {"type": "array", "items": {"type": "number"}},
                "T": {"type": "number", "exclusiveMinimum": 0},
                "K": {"type": "number", "exclusiveMinimum": 0},
                "nodes": {"type": "integer", "minimum": 3},
                "substeps": {"type": "integer", "minimum": 1},
            },
        },
        "diagnose": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "scheme": {"enum": ["dpm", "unip", "unic"]},
                "order": {"type": "integer", "minimum": 1, "maximum": 3},
                "variant": {"enum": ["bh1", "bh2"]},
            },
        },
        "readout": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "r": {"type": "integer", "minimum": 1},
                "dim": {"type": "integer", "minimum": 2},
                "shots": {"type": ["integer", "null"], "minimum": 1},
                "amp_shots": {"type": "integer", "minimum": 1},
                "trials": {"type": "integer", "minimum": 1},
                "threshold": {"type": "number", "minimum": 0},
                "fixture": {"enum": ["uniform", "random"]},
            },
        },
        "sweep": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "command": {"enum": ["simulate", "carleman", "lchs", "diagnose", "readout"]},
                "parameter": {"type": "string", "minLength": 1},
                "values": {"type": "array", "minItems": 1},
                "slope": {"type": "boolean"},
                "workers": {"type": "integer", "minimum": 1},
            },
            "required": ["command", "parameter", "values"],
        },
    },
}

_DEFAULTS = {
    "seed": 0,
    "out": None,
    "schedule": {"beta_min": 0.1, "beta_max": 20.0, "T": 1.0},
    "window": {"x_T": 1.0, "t_start": 1.0, "t_end": 0.05, "M": 16},
    "simulate": {"scheme": "dpm", "order": 1, "variant": "bh2", "oracle": True, "oracle_substeps": 4000},
    "carleman": {
        "N": 2,
        "scheme": "dpm",
        "order": 1,
        "variant": "bh2",
        "which": "corrector",
        "solver": "forward",
        "gmres_tol": 1e-10,
        "condition": "auto",
        "condition_rtol": 1e-4,
        "equivalence_check": True,
        "export_matrix": False,
    },
    "lchs": {"T": 1.0, "K": 32.0, "nodes": 257, "substeps": 64},
    "diagnose": {"scheme": "dpm", "order": 1, "variant": "bh2"},
    "readout": {
        "r": 4,
        "dim": 1024,
        "shots": None,
        "amp_shots": 4096,
        "trials": 100,
        "threshold": 0.0,
        "fixture": "random",
    },
    "sweep": {"slope": False, "workers": 1},
}


def _deep_merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], val)
        else:
            out[key] = copy.deepcopy(val)
    return out


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return raw


def validate_config(raw: dict) -> None:
    validator = jsonschema.Draft202012Validator(_SCHEMA)
    errors = sorted(validator.iter_errors(raw), key=lambda e: str(list(e.absolute_path)))
    if errors:
        err = errors[0]
        path = "$" + "".join(
            f"[{p}]" if isinstance(p, int) else f".{p}" for p in err.absolute_path
        )
        raise ConfigError(f"{path}: {err.message}")


def resolve_config(raw: dict, seed=None, out=None, workers=None) -> dict:
    """Schema-validate, apply CLI overrides and defaults, expand benchmark."""
    validate_config(raw)
    cfg = _deep_merge(_DEFAULTS, raw)
    if seed is not None:
        cfg["seed"] = seed
    if out is not None:
        cfg["out"] = out
    if workers is not None and "sweep" in raw:
        cfg["sweep"]["workers"] = workers
    window_given = raw.get("window", {})
    bench_name = window_given.get("benchmark")
    if bench_name is not None:
        bench = benchmark(bench_name)
        for field, value in (("x_T", bench.x_T), ("t_start", bench.t_start), ("t_end", bench.t_end)):
            if field not in window_given:
                cfg["window"][field] = value
        if "model" not in raw:
            cfg["model"] = {"preset": bench.model_name}
    return cfg


def canonical_config(cfg: dict) -> dict:
    """The experiment identity: the resolved config minus run-environment
    fields (output path, worker count), which must not affect output bytes."""
    out = copy.deepcopy(cfg)
    out["out"] = None
    if "sweep" in out:
        out["sweep"].pop("workers", None)
    return out


def config_hash(cfg: dict) -> str:
    payload = json.dumps(canonical_config(cfg), sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(payload).hexdigest()


# --- config -> domain objects ------------------------------------------------


def build_schedule(cfg: dict):
    sch = cfg["schedule"]
    return make_vp_schedule(sch["beta_min"], sch["beta_max"], sch["T"])


def build_model(cfg: dict) -> PolyNoiseModel:
    mc = cfg["model"]
    if "preset" in mc:
        extra = set(mc) - {"preset"}
        if extra:
            raise ConfigError(f"$.model: preset cannot be combined with {sorted(extra)}")
        return model_preset(mc["preset"])
    mode = mc.get("mode")
    if mode is None:
        raise ConfigError("$.model.mode: required when no preset is given")
    try:
        if mode == "scalar":
            terms = {(int(j), int(l)): float(c) for j, l, c in mc.get("terms", [])}
            return scalar_model(terms)
        if mode == "separable":
            if "d" not in mc:
                raise ConfigError("$.model.d: required for separable models")
            d = mc["d"]
            deg_x = max((j for j, _, _ in mc.get("terms", [])), default=0)
            deg_l = max((l for _, l, _ in mc.get("terms", [])), default=0)
            coeffs = np.zeros((d, deg_x + 1, deg_l + 1))
            for j, l, c in mc.get("terms", []):
                vec = np.broadcast_to(np.asarray(c, dtype=float), (d,))
                coeffs[:, j, l] = vec
            return separable_model(coeffs)
        if mode == "kron":
            if "d" not in mc or "blocks" not in mc:
                raise ConfigError("$.model.d and $.model.blocks: required for kron models")
            blocks = {int(j): np.asarray(block, dtype=float) for j, block in mc["blocks"].items()}
            return kron_model(mc["d"], blocks)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"$.model: {exc}") from exc
    raise ConfigError(f"$.model.mode: unsupported mode {mode!r}")


def build_window(cfg: dict, m: PolyNoiseModel):
    s = build_schedule(cfg)
    win = cfg["window"]
    grid = make_lambda_grid(s, win["t_start"], win["t_end"], win["M"])
    x_T = np.broadcast_to(np.atleast_1d(np.asarray(win["x_T"], dtype=float)), (m.d,)).copy()
    return s, grid, x_T


# --- CSV helpers --------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    if value is None:
        return ""
    return str(value)


def write_csv(path, cfg_sha: str, columns, rows, extra_meta=()):
    lines = [f"# version: {__version__}", f"# config_sha256: {cfg_sha}"]
    for key, val in extra_meta:
        lines.append(f"# {key}: {_fmt(val)}")
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_csv_rows(path):
    """Return (columns, data rows as raw strings) of a file written by write_csv."""
    columns = None
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            if columns is None:
                columns = line
            else:
                rows.append(line)
    if columns is None:
        raise ValueError(f"{path} has no header row")
    return columns, rows


def emit_resolved_config(cfg: dict, out_dir: str) -> str:
    canon = canonical_config(cfg)
    sha = config_hash(cfg)
    with open(os.path.join(out_dir, "resolved_config.json"), "w") as fh:
        json.dump(canon, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return sha


# --- commands -----------------------------------------------------------------


def cmd_simulate(cfg: dict, out_dir: str) -> int:
    sha = emit_resolved_config(cfg, out_dir)
    m = build_model(cfg)
    s, grid, x_T = build_window(cfg, m)
    sim = cfg["simulate"]
    run = run_scheme(s, m, x_T, grid, sim["scheme"], sim["order"], sim["variant"])
    states = run.state_matrix()
    errors = np.full(len(grid.t), np.nan)
    endpoint_error = math.nan
    if sim["oracle"]:
        # oracle_substeps is a whole-window budget; split it over the grid
        # intervals (rk4_oracle counts per interval when times are given)
        per_interval = max(32, -(-sim["oracle_substeps"] // max(1, len(grid.h))))
        oracle = rk4_oracle(s, m, x_T, substeps=per_interval, times=grid.t)
        diff = states - oracle.state_matrix()
        errors = np.linalg.norm(diff, axis=1)
        endpoint_error = float(errors[-1])
    alpha = np.array([float(s.alpha(t)) for t in grid.t])
    columns = (
        ["step", "t", "lam"]
        + [f"x_{i}" for i in range(m.d)]
        + [f"x_over_alpha_{i}" for i in range(m.d)]
        + ["error"]
    )
    rows = []
    for i, t in enumerate(grid.t):
        rows.append(
            [i, t, grid.lam[i]]
            + list(states[i])
            + list(states[i] / alpha[i])
            + [errors[i]]
        )
    meta = [("scheme", run.scheme), ("nfe", run.nfe)]
    write_csv(os.path.join(out_dir, "trajectory.csv"), sha, columns, rows, meta)
    sum_cols = ["scheme", "M", "nfe"] + [f"x_end_{i}" for i in range(m.d)] + ["endpoint_error"]
    sum_row = [run.scheme, len(grid.h), run.nfe] + list(states[-1]) + [endpoint_error]
    write_csv(os.path.join(out_dir, "summary.csv"), sha, sum_cols, [sum_row])
    return 0


def cmd_carleman(cfg: dict, out_dir: str) -> int:
    sha = emit_resolved_config(cfg, out_dir)
    m = build_model(cfg)
    s, grid, x_T = build_window(cfg, m)
    car = cfg["carleman"]
    basis = CarlemanBasis(N=car["N"], d=m.d)
    states, qcms = run_lifted(
        s, m, x_T, grid, basis,
        scheme=car["scheme"], order=car["order"],
        variant=car["variant"], corrector=car["which"] == "corrector",
    )
    if car["scheme"] == "dpm":
        system = assemble_global_dpm(qcms, states[0].y)
    else:
        warm = [q for q in qcms if not isinstance(q, UnipcQcmSet)]
        steps = [q for q in qcms if isinstance(q, UnipcQcmSet)]
        system = assemble_global_unipc(warm, steps, states[0].y, which=car["which"])
    if car["solver"] == "forward":
        sol = forward_substitute(system)
    else:
        sol = gmres_solve(system, tol=car["gmres_tol"])
    blocks = sol.solution.reshape(system.n_blocks, system.block_dim)
    b1 = basis.block_slice(1)
    traj = blocks[:, b1]

    equivalence = math.nan
    if car["equivalence_check"]:
        seq = np.concatenate([st.y for st in states])
        equivalence = float(np.max(np.abs(sol.solution - seq)))
    oracle = rk4_oracle(s, m, x_T, substeps=4000, t_start=float(grid.t[0]), t_end=float(grid.t[-1]))
    error = float(np.linalg.norm(traj[-1] - oracle.endpoint))
    defect = states[-1].consistency_defect()

    kappa = math.nan
    converged = True
    if car["condition"] != "none":
        report = condition_number(system, method=car["condition"], rtol=car["condition_rtol"])
        kappa = report.kappa
        converged = report.converged
        cond_cols = [
            "kappa", "method", "dim", "iterations", "rtol", "residual",
            "converged", "sigma_max", "sigma_min", "s_row", "s_col", "nnz",
        ]
        cond_row = [
            report.kappa, report.method, report.dim, report.iterations,
            report.rtol, report.residual, report.converged,
            report.sigma_max, report.sigma_min, report.s_row, report.s_col, report.nnz,
        ]
        write_csv(os.path.join(out_dir, "condition.csv"), sha, cond_cols, [cond_row])
    if car["export_matrix"]:
        export_matrix(system, os.path.join(out_dir, "matrix.txt"))

    columns = ["step", "t", "lam"] + [f"x_{i}" for i in range(m.d)]
    rows = [[i, grid.t[i], grid.lam[i]] + list(traj[i]) for i in range(len(grid.t))]
    meta = [("scheme", system.scheme), ("solver", sol.method), ("dim", system.dim)]
    write_csv(os.path.join(out_dir, "trajectory.csv"), sha, columns, rows, meta)

    sum_cols = (
        ["scheme", "N", "M", "dim"]
        + [f"x_end_{i}" for i in range(m.d)]
        + ["error", "defect", "kappa", "solve_residual", "solve_iterations", "equivalence"]
    )
    sum_row = (
        [system.scheme, car["N"], len(grid.h), system.dim]
        + list(traj[-1])
        + [error, defect, kappa, sol.residual, sol.iterations, equivalence]
    )
    write_csv(os.path.join(out_dir, "summary.csv"), sha, sum_cols, [sum_row])
    return 0 if converged else 4


def cmd_lchs(cfg: dict, out_dir: str) -> int:
    sha = emit_resolved_config(cfg, out_dir)
    sec = cfg["lchs"]
    for field in ("A", "b", "u0"):
        if field not in sec:
            raise ConfigError(f"$.lchs.{field}: required")
    A = np.asarray(sec["A"], dtype=float)
    b = np.asarray(sec["b"], dtype=float)
    u0 = np.asarray(sec["u0"], dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ConfigError("$.lchs.A: must be a square matrix")
    if b.shape != (A.shape[0],) or u0.shape != (A.shape[0],):
        raise ConfigError("$.lchs.b and $.lchs.u0 must match the matrix dimension")
    lcfg = LchsConfig(K=sec["K"], nodes=sec["nodes"], substeps=sec["substeps"])
    res = lchs_solve(lambda t: A, lambda t: b, u0, sec["T"], lcfg)
    E = expm(-A * sec["T"])
    rhs = (np.eye(A.shape[0]) - E) @ b
    u_exact = E @ u0 + np.linalg.solve(A, rhs)
    error = float(np.linalg.norm(res.u - u_exact))
    columns = (
        ["K", "nodes", "substeps", "T"]
        + [f"u_{i}" for i in range(A.shape[0])]
        + ["error", "shift", "n_exponentials", "kernel_mass"]
    )
    row = (
        [sec["K"], sec["nodes"], sec["substeps"], sec["T"]]
        + list(np.real(res.u))
        + [error, res.shift, res.n_exponentials, res.kernel_mass]
    )
    write_csv(os.path.join(out_dir, "summary.csv"), sha, columns, [row])
    return 0


def cmd_diagnose(cfg: dict, out_dir: str) -> int:
    sha = emit_resolved_config(cfg, out_dir)
    m = build_model(cfg)
    s, grid, x_T = build_window(cfg, m)
    diag = cfg["diagnose"]
    run = run_scheme(s, m, x_T, grid, diag["scheme"], diag["order"], diag["variant"])
    trace = spectrum_trace(s, m, run)
    ptrace = dissipativity_P(trace)
    spec_cols = ["step", "t"] + [f"eig_{i}" for i in range(m.d)]
    spec_rows = [[i, trace.times[i]] + list(trace.eigs[i]) for i in range(len(trace.times))]
    write_csv(
        os.path.join(out_dir, "spectrum.csv"), sha, spec_cols, spec_rows,
        [("normalization", trace.normalization)],
    )
    p_cols = ["step", "t", "P"] + [f"a_{i}" for i in range(m.d)]
    p_rows = [[i, ptrace.times[i], ptrace.P[i]] + list(ptrace.a[i]) for i in range(len(ptrace.times))]
    write_csv(
        os.path.join(out_dir, "ptrace.csv"), sha, p_cols, p_rows,
        [("flagged", ptrace.flagged)],
    )
    sum_cols = ["scheme", "M", "normalization", "flagged", "P_final", "max_eig"]
    sum_row = [
        run.scheme, len(grid.h), trace.normalization, ptrace.flagged,
        float(ptrace.P[-1]), float(np.max(trace.eigs)),
    ]
    write_csv(os.path.join(out_dir, "summary.csv"), sha, sum_cols, [sum_row])
    return 0


def _readout_fixture(kind: str, dim: int, r: int, rng) -> np.ndarray:
    v = np.zeros(dim)
    support = rng.choice(dim, size=r, replace=False)
    signs = rng.choice([-1.0, 1.0], size=r)
    if kind == "uniform":
        v[support] = signs / math.sqrt(r)
    else:
        v[support] = signs * (0.5 + rng.random(r))
        v /= np.linalg.norm(v)
    return v


def cmd_readout(cfg: dict, out_dir: str) -> int:
    sha = emit_resolved_config(cfg, out_dir)
    sec = cfg["readout"]
    r, dim = sec["r"], sec["dim"]
    if r >= dim:
        raise ConfigError("$.readout.r: must be smaller than dim")
    shots = sec["shots"]
    if shots is None:
        shots = max(1, math.ceil(20.0 * r * math.log(max(r, 2))))
    seed = cfg["seed"]
    successes = 0
    l2_errors = []
    for trial in range(sec["trials"]):
        rng = np.random.default_rng((seed, trial))
        v = _readout_fixture(sec["fixture"], dim, r, rng)
        report = recover_sparse(
            v, r, shots=shots, amp_shots=sec["amp_shots"],
            seed=seed + 2 * trial, threshold=sec["threshold"],
        )
        successes += int(report.success)
        if report.success:
            l2_errors.append(report.l2_error)
    l2_err = float(np.mean(l2_errors)) if l2_errors else math.nan
    columns = ["r", "dim", "shots", "trials", "successes", "amp_shots", "l2_err"]
    row = [r, dim, shots, sec["trials"], successes, sec["amp_shots"], l2_err]
    write_csv(os.path.join(out_dir, "summary.csv"), sha, columns, [row])
    return 0


# --- sweep --------------------------------------------------------------------


def _set_path(cfg: dict, dotted: str, value) -> None:
    parts = dotted.split(".")
    node = cfg
    for part in parts[:-1]:
        if not isinstance(node, dict) or part not in node:
            raise ConfigError(f"$.sweep.parameter: path {dotted!r} not found in config")
        node = node[part]
    if not isinstance(node, dict) or parts[-1] not in node:
        raise ConfigError(f"$.sweep.parameter: path {dotted!r} not found in config")
    node[parts[-1]] = value


def _execute_point(payload):
    index, command, cfg_json, point_dir = payload
    cfg = json.loads(cfg_json)
    os.makedirs(point_dir, exist_ok=True)
    status = _POINT_COMMANDS[command](cfg, point_dir)
    columns, rows = read_csv_rows(os.path.join(point_dir, "summary.csv"))
    return index, status, columns, rows


def cmd_sweep(cfg: dict, out_dir: str) -> int:
    sha = emit_resolved_config(cfg, out_dir)
    sweep = cfg["sweep"]
    base_command = sweep["command"]
    parameter = sweep["parameter"]
    values = sweep["values"]
    base_cfg = {k: copy.deepcopy(v) for k, v in cfg.items() if k != "sweep"}
    payloads = []
    points_root = os.path.join(out_dir, "points")
    for idx, value in enumerate(values):
        point_cfg = copy.deepcopy(base_cfg)
        _set_path(point_cfg, parameter, value)
        point_dir = os.path.join(points_root, f"{idx:04d}")
        payloads.append((idx, base_command, json.dumps(point_cfg, sort_keys=True), point_dir))

    workers = min(sweep["workers"], len(payloads))
    results = [None] * len(payloads)
    if workers <= 1:
        for payload in payloads:
            idx, status, columns, rows = _execute_point(payload)
            results[idx] = (status, columns, rows)
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for idx, status, columns, rows in pool.map(_execute_point, payloads):
                results[idx] = (status, columns, rows)

    worst = 0
    merged_rows = []
    header = None
    for idx, value in enumerate(values):
        status, columns, rows = results[idx]
        worst = max(worst, status)
        if header is None:
            header = columns
        elif header != columns:
            raise StructureError("sweep points produced mismatching summary columns")
        for row in rows:
            merged_rows.append(f"{parameter},{_fmt(value)},{row}")

    slope_value = math.nan
    if sweep["slope"]:
        cols = header.split(",")
        if "error" in cols:
            err_idx = cols.index("error")
        elif "endpoint_error" in cols:
            err_idx = cols.index("endpoint_error")
        else:
            raise StructureError("slope requested but no error column in summary")
        errs, hs = [], []
        for value, line in zip(values, merged_rows):
            err = float(line.split(",")[2 + err_idx])
            if not (isinstance(value, (int, float)) and value > 0):
                raise ConfigError("$.sweep.slope: swept values must be positive numbers")
            if err > 0 and math.isfinite(err):
                errs.append(math.log(err))
                hs.append(math.log(1.0 / float(value)))
        if len(errs) < 2:
            raise StructureError("slope requested but fewer than two usable error points")
        slope_value = float(np.polyfit(hs, errs, 1)[0])
        merged_rows.append(parameter + ",slope," + ",".join([_fmt(slope_value)] + [""] * (len(cols) - 1)))

    write_csv(os.path.join(out_dir, "sweep.csv"), sha, ["parameter", "value", header],
              [[row] for row in merged_rows], [("command", base_command)])
    shutil.rmtree(points_root)
    return worst


# commands a sweep point can run; main adds "sweep" itself
_POINT_COMMANDS = {
    "simulate": cmd_simulate,
    "carleman": cmd_carleman,
    "lchs": cmd_lchs,
    "diagnose": cmd_diagnose,
    "readout": cmd_readout,
}


# --- entry point ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="carlift",
        description="Carleman-lifted diffusion sampler toolkit (batch runner)",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="path to a JSON config file")
    parser.add_argument("--out", default=None, help="output directory (default: config 'out' or cwd)")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--workers", type=int, default=None, help="sweep worker processes")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        raw = load_config(args.config)
        cfg = resolve_config(raw, seed=args.seed, out=args.out, workers=args.workers)
        if args.command == "sweep" and "sweep" not in raw:
            raise ConfigError("$.sweep: required for the sweep command")
        if args.command == "lchs" and "lchs" not in raw:
            raise ConfigError("$.lchs: required for the lchs command")
        needs_model = args.command in ("simulate", "carleman", "diagnose") or (
            args.command == "sweep" and cfg["sweep"].get("command") in ("simulate", "carleman", "diagnose")
        )
        if needs_model and "model" not in cfg:
            raise ConfigError("$.model: a preset or inline definition is required")
        out_dir = cfg["out"] or os.getcwd()
        os.makedirs(out_dir, exist_ok=True)
        cfg["out"] = out_dir
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    handler = {**_POINT_COMMANDS, "sweep": cmd_sweep}[args.command]
    try:
        return handler(cfg, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"did not converge: {exc}", file=sys.stderr)
        return 4
    except (CapacityError, StructureError, np.linalg.LinAlgError, FloatingPointError, OverflowError,
            ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
