"""Batch front end: JSON config in, bit-stable CSV tables out.

Commands: simulate, carleman, lchs, diagnose, readout, sweep.  One strict
schema declares the config: every option's type and default, and the
rules that tie model keys together (a preset stands alone; otherwise a
mode is required, separable needs d and refuses blocks, kron needs d and
blocks and refuses terms; a one-coordinate model is separable with
d = 1).  Every run validates its config against it (unknown keys
rejected), checks that the config holds what the command needs beyond
the defaults, and writes the fully resolved config to the output
directory before the command starts.
A command is a function of that config that writes nothing: it returns
its exit status and its outputs, which map each file name to a table
(columns, rows, metadata) or, for the one non-CSV file, to a deferred
writer.  :func:`main` alone writes them, stamping each CSV with the tool
version and a sha256 of the resolved config, so a command that raises
leaves only ``resolved_config.json`` behind.  A sweep checks what its
point command needs, every point's config against the schema and, for
a slope, that every swept value is a positive number, before it runs
any point.  It runs the points one after another in the calling process
and merges their summary tables as values; points write no files.
Carleman points that share a window share its RK4 reference, run by the
first point that needs it.  The first failing point, in grid order, ends
the sweep, and its index and swept value are appended to the error
message.  Fixed seed and fixed config give byte-identical files.

Exit codes: 0 ok, 2 config error (a carleman model the lift cannot take
included), 3 numerical failure (a sampler, RK4 oracle or lifted
trajectory that overflows or leaves a non-finite state, and a failed
condition estimate, included), 4 non-convergence.
"""

from __future__ import annotations

import argparse
import copy
import functools
import hashlib
import json
import math
import os
import sys

import numpy as np
from scipy.linalg import expm

import jsonschema

from . import __version__
from .carleman import CarlemanBasis, LiftedState, lift_run
from .diagnostics import dissipativity_P, spectrum_trace
from .errors import CapacityError, ConvergenceError, StructureError
from .model import PolyNoiseModel, kron_model, separable_model
from .presets import (BENCHMARKS, DEFAULT_BETA_MAX, DEFAULT_BETA_MIN, DEFAULT_T, MODEL_PRESETS,
                      benchmark, model_preset)
from .readout import recover_sparse
from .reference import SolverRun, rk4_oracle, run_scheme
from .schedule import NoiseSchedule, TimeGrid, make_lambda_grid, make_vp_schedule
from .solve import LchsConfig, forward_substitute, lchs_solve
from .system import condition_number, export_matrix

# the config paths each command needs beyond the defaults; a sweep also
# needs what its point command needs
_NEEDS = {
    "simulate": ("model",),
    "carleman": ("model",),
    "lchs": ("lchs.A", "lchs.b", "lchs.u0"),
    "diagnose": ("model",),
    "readout": (),
    "sweep": ("sweep.command", "sweep.parameter", "sweep.values"),
}
COMMANDS = tuple(_NEEDS)


def _require(cfg: dict, command: str) -> None:
    """Refuse a config short of what the command needs, or a carleman
    config whose model the lift cannot take (separable with d > 1)."""
    for path in _NEEDS[command]:
        if not _has_path(cfg, path):
            raise ConfigError(f"$.{path}: required for the {command} command")
    model = cfg.get("model", {})
    if command == "carleman" and model.get("mode") == "separable" and model["d"] > 1:
        raise ConfigError("$.model.mode: separable models with d > 1 cannot be lifted; "
                          "use kron mode")


class ConfigError(Exception):
    pass


# --- schema -----------------------------------------------------------------


def _section(properties: dict) -> dict:
    """A config object that rejects unknown keys."""
    return {"type": "object", "additionalProperties": False, "properties": properties}


# the only declaration of the config: every option's type and default, and
# the rules that tie model keys together
_SCHEMA = _section({
    "seed": {"type": "integer", "minimum": 0, "default": 0},
    "out": {"type": ["string", "null"], "default": None},
    "schedule": _section({
        # the benchmarks' schedule, so a window.benchmark runs where it was pinned
        "beta_min": {"type": "number", "exclusiveMinimum": 0, "default": DEFAULT_BETA_MIN},
        "beta_max": {"type": "number", "exclusiveMinimum": 0, "default": DEFAULT_BETA_MAX},
        "T": {"type": "number", "exclusiveMinimum": 0, "default": DEFAULT_T},
    }),
    "model": _section({
        "preset": {"enum": sorted(MODEL_PRESETS)},
        "mode": {"enum": ["separable", "kron"]},
        "d": {"type": "integer", "minimum": 1},
        "terms": {"type": "array", "items": {
            "type": "array",
            "minItems": 3,
            "maxItems": 3,
            "prefixItems": [
                {"type": "integer", "minimum": 0},
                {"type": "integer", "minimum": 0},
                {"anyOf": [{"type": "number"}, {"type": "array", "items": {"type": "number"}}]},
            ],
        }},
        "blocks": {"type": "object", "propertyNames": {"pattern": "^(0|[1-9][0-9]*)$"},
                   "additionalProperties": {"type": "array"}},
    }) | {
        # a preset stands alone; otherwise the mode is required and names
        # the keys it needs and the other mode's key it refuses
        "if": {"required": ["preset"]},
        "then": {"properties": {"preset": True}, "additionalProperties": False},
        "else": {"required": ["mode"]},
        "allOf": [
            {"if": {"properties": {"mode": {"const": mode}}, "required": ["mode"]},
             "then": {"required": keys, "properties": {other: {"not": {}}}}}
            for mode, keys, other in (("separable", ["d"], "blocks"), ("kron", ["d", "blocks"], "terms"))
        ],
    },
    "window": _section({
        "benchmark": {"enum": sorted(BENCHMARKS)},
        "x_T": {
            "anyOf": [
                {"type": "number"},
                {"type": "array", "items": {"type": "number"}, "minItems": 1},
            ],
            "default": 1.0,
        },
        "t_start": {"type": "number", "exclusiveMinimum": 0, "default": 1.0},
        "t_end": {"type": "number", "exclusiveMinimum": 0, "default": 0.05},
        "M": {"type": "integer", "minimum": 1, "default": 16},
    }),
    "simulate": _section({
        "scheme": {"enum": ["dpm", "unip", "unic"], "default": "dpm"},
        "order": {"type": "integer", "minimum": 1, "maximum": 3, "default": 1},
        "variant": {"enum": ["bh1", "bh2"], "default": "bh2"},
        "oracle": {"type": "boolean", "default": True},
        "oracle_substeps": {"type": "integer", "minimum": 1, "default": 4000},
    }),
    "carleman": _section({
        "N": {"type": "integer", "minimum": 1, "default": 2},
        "scheme": {"enum": ["dpm", "unipc"], "default": "dpm"},
        "order": {"type": "integer", "minimum": 1, "maximum": 3, "default": 1},
        "variant": {"enum": ["bh1", "bh2"], "default": "bh2"},
        "which": {"enum": ["predictor", "corrector"], "default": "corrector"},
        "condition": {"enum": ["auto", "dense_svd", "none"], "default": "auto"},
        "condition_rtol": {"type": "number", "exclusiveMinimum": 0, "default": 1e-4},
        "export_matrix": {"type": "boolean", "default": False},
    }),
    "lchs": _section({
        "A": {"type": "array", "items": {"type": "array", "items": {"type": "number"}}},
        "b": {"type": "array", "items": {"type": "number"}},
        "u0": {"type": "array", "items": {"type": "number"}},
        "T": {"type": "number", "exclusiveMinimum": 0, "default": 1.0},
        "K": {"type": "number", "exclusiveMinimum": 0, "default": 32.0},
        "nodes": {"type": "integer", "minimum": 3, "default": 257},
        "substeps": {"type": "integer", "minimum": 1, "default": 64},
    }),
    "diagnose": _section({
        "scheme": {"enum": ["dpm", "unip", "unic"], "default": "dpm"},
        "order": {"type": "integer", "minimum": 1, "maximum": 3, "default": 1},
        "variant": {"enum": ["bh1", "bh2"], "default": "bh2"},
    }),
    "readout": _section({
        "r": {"type": "integer", "minimum": 1, "default": 4},
        "dim": {"type": "integer", "minimum": 2, "default": 1024},
        "shots": {"type": ["integer", "null"], "minimum": 1, "default": None},
        "amp_shots": {"type": "integer", "minimum": 1, "default": 4096},
        "trials": {"type": "integer", "minimum": 1, "default": 100},
        "threshold": {"type": "number", "minimum": 0, "default": 0.0},
        "fixture": {"enum": ["uniform", "random"], "default": "random"},
    }),
    "sweep": _section({
        "command": {"enum": [c for c in COMMANDS if c != "sweep"]},
        "parameter": {"type": "string", "minLength": 1},
        "values": {"type": "array", "minItems": 1},
        "slope": {"type": "boolean", "default": False},
        # accepted and unread; see canonical_config
        "workers": {"type": "integer", "minimum": 1, "default": 1},
    }) | {"required": ["command", "parameter", "values"]},
})


def _defaults(schema: dict) -> dict:
    """The declared defaults, nested as the config is; a section enters
    only when it holds a default."""
    out = {}
    for key, prop in schema.get("properties", {}).items():
        if "default" in prop:
            out[key] = prop["default"]
        elif section := _defaults(prop):
            out[key] = section
    return out


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
    errors = [("$" + "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in err.absolute_path),
               err) for err in validator.iter_errors(raw)]
    if errors:  # the first by printed path: an object's own error before its keys'
        path, err = min(errors, key=lambda pe: pe[0])
        # the one "not" in the schema is a key the model's mode refuses
        raise ConfigError(f"{path}: " + ("not a key of this mode" if err.validator == "not" else err.message))


def resolve_config(raw: dict, seed=None, out=None) -> dict:
    """Schema-validate, apply CLI overrides and defaults, expand benchmark."""
    validate_config(raw)
    cfg = _deep_merge(_defaults(_SCHEMA), raw)
    if seed is not None:
        cfg["seed"] = seed
    if out is not None:
        cfg["out"] = out
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
    fields, which must not affect output bytes: the output path, and
    ``sweep.workers``.  The schema still accepts that key from configs
    written for the worker pool sweeps once ran on, but nothing reads it;
    popping it keeps a config's hash, and so its CSV stamps, the same
    whatever count it names."""
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
    """The model of a config whose model keys the schema has checked."""
    mc = cfg["model"]
    if "preset" in mc:
        return model_preset(mc["preset"])
    terms = mc.get("terms", [])
    try:
        if mc["mode"] == "separable":
            d = mc["d"]
            deg_x = max((j for j, _, _ in terms), default=0)
            deg_l = max((l for _, l, _ in terms), default=0)
            coeffs, first = np.zeros((d, deg_x + 1, deg_l + 1)), {}
            for i, (j, l, c) in enumerate(terms):
                if np.size(c) not in (1, d):
                    raise ConfigError(f"$.model.terms[{i}]: needs 1 or d = {d} coefficients, not {np.size(c)}")
                if (k := first.setdefault((j, l), i)) != i:
                    raise ConfigError(f"$.model.terms[{i}]: repeats (j, l) = ({j}, {l}) of $.model.terms[{k}]")
                coeffs[:, j, l] = c
            return separable_model(coeffs)
        blocks = {int(j): np.asarray(block, dtype=float) for j, block in mc["blocks"].items()}
        return kron_model(mc["d"], blocks)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"$.model: {exc}") from exc


def build_window(cfg: dict, m: PolyNoiseModel):
    s = build_schedule(cfg)
    win = cfg["window"]
    grid = make_lambda_grid(s, win["t_start"], win["t_end"], win["M"])
    x_T = np.atleast_1d(np.asarray(win["x_T"], dtype=float))
    if x_T.size not in (1, m.d):
        raise ConfigError(f"$.window.x_T: needs 1 or d = {m.d} entries, not {x_T.size}")
    return s, grid, np.broadcast_to(x_T, (m.d,)).copy()


def finite_run(name: str, solve, states=SolverRun.state_matrix):
    """``solve()``, the sampler, RK4-oracle or forward-solve run ``name``
    names, with an overflow, an invalid value or a non-finite state as a
    numerical failure of that run; ``states(run)`` gives those states.
    The samplers and the oracle step one-coordinate and kron models on
    Python floats, whose overflow raises nothing, so the recorded states
    are checked too."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            run = solve()
    except FloatingPointError as exc:
        raise FloatingPointError(f"{exc}, in {name}") from exc
    if not np.isfinite(states(run)).all():
        raise FloatingPointError(f"{name} reached a non-finite state")
    return run


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


# --- commands -----------------------------------------------------------------


def cmd_simulate(cfg: dict) -> tuple[int, dict]:
    m = build_model(cfg)
    s, grid, x_T = build_window(cfg, m)
    sim = cfg["simulate"]
    run = finite_run(f"the {sim['scheme']}{sim['order']} sampler",
                     lambda: run_scheme(s, m, x_T, grid, sim["scheme"], sim["order"], sim["variant"]))
    states = run.state_matrix()
    errors = np.full(len(grid.t), np.nan)
    endpoint_error = math.nan
    if sim["oracle"]:
        # oracle_substeps is a whole-window budget; split it over the grid
        # intervals (rk4_oracle counts substeps per interval)
        per_interval = max(32, -(-sim["oracle_substeps"] // max(1, len(grid.h))))
        oracle = finite_run("the RK4 oracle",
                            lambda: rk4_oracle(s, m, x_T, substeps=per_interval, times=grid.t))
        diff = states - oracle.state_matrix()
        errors = np.linalg.norm(diff, axis=1)
        endpoint_error = float(errors[-1])
    alpha = s.alpha(grid.t)
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
    sum_cols = ["scheme", "M", "nfe"] + [f"x_end_{i}" for i in range(m.d)] + ["endpoint_error"]
    sum_row = [run.scheme, len(grid.h), run.nfe] + list(states[-1]) + [endpoint_error]
    return 0, {
        "trajectory.csv": (columns, rows, meta),
        "summary.csv": (sum_cols, [sum_row], ()),
    }


def _oracle_key(cfg: dict) -> str:
    """What :func:`_carleman_oracle` depends on in a config: the grid pins
    both window ends to t_start and t_end exactly, so M does not enter."""
    win = cfg["window"]
    return json.dumps([cfg["schedule"], cfg["model"], win["x_T"], win["t_start"], win["t_end"]],
                      sort_keys=True)


def _carleman_oracle(s: NoiseSchedule, m: PolyNoiseModel, x_T, grid: TimeGrid) -> np.ndarray:
    """Endpoint of the RK4 reference a carleman run measures its error
    against, over the window of its grid."""
    return finite_run("the RK4 oracle", lambda: rk4_oracle(
        s, m, x_T, substeps=4000, times=(float(grid.t[0]), float(grid.t[-1])))).endpoint


def cmd_carleman(cfg: dict, oracles: dict | None = None) -> tuple[int, dict]:
    """Lift and assemble the trajectory system, solve it forward once, and
    measure its endpoint against :func:`_carleman_oracle`.  A solve that
    leaves the finite range fails (:func:`finite_run`) before the
    reference runs; ``defect`` is the consistency defect of the solution's
    last block.  A sweep hands every point the same ``oracles`` dict,
    keyed on :func:`_oracle_key`, so points that share a window run its
    reference once."""
    m = build_model(cfg)
    s, grid, x_T = build_window(cfg, m)
    car = cfg["carleman"]
    basis = CarlemanBasis(N=car["N"], d=m.d)
    system, _ = lift_run(s, m, x_T, grid, basis, car["scheme"], car["order"], car["variant"],
                         car["which"] == "corrector")
    sol = finite_run("the forward solve", lambda: forward_substitute(system), lambda res: res.solution)
    traj = sol.solution.reshape(system.n_blocks, system.block_dim)[:, basis.block_slice(1)]

    oracles = {} if oracles is None else oracles
    key = _oracle_key(cfg)
    if key not in oracles:
        oracles[key] = _carleman_oracle(s, m, x_T, grid)
    error = float(np.linalg.norm(traj[-1] - oracles[key]))
    defect = LiftedState(basis, sol.solution[-basis.dim_total :]).consistency_defect()

    outputs = {}
    kappa = math.nan
    converged = True
    if car["condition"] != "none":
        report = condition_number(system, method=car["condition"], rtol=car["condition_rtol"])
        kappa = report.kappa
        converged = report.converged
        cond = vars(report)  # a column per field, in field order
        outputs["condition.csv"] = (list(cond), [list(cond.values())], ())
    if car["export_matrix"]:
        outputs["matrix.txt"] = functools.partial(export_matrix, system)

    columns = ["step", "t", "lam"] + [f"x_{i}" for i in range(m.d)]
    rows = [[i, grid.t[i], grid.lam[i]] + list(traj[i]) for i in range(len(grid.t))]
    meta = [("scheme", system.scheme), ("dim", system.dim)]
    outputs["trajectory.csv"] = (columns, rows, meta)

    sum_cols = (
        ["scheme", "N", "M", "dim"]
        + [f"x_end_{i}" for i in range(m.d)]
        + ["error", "defect", "kappa", "solve_residual"]
    )
    sum_row = (
        [system.scheme, car["N"], len(grid.h), system.dim]
        + list(traj[-1])
        + [error, defect, kappa, sol.residual]
    )
    outputs["summary.csv"] = (sum_cols, [sum_row], ())
    return (0 if converged else 4), outputs


def cmd_lchs(cfg: dict) -> tuple[int, dict]:
    sec = cfg["lchs"]
    if not sec["A"] or any(len(row) != len(sec["A"]) for row in sec["A"]):
        raise ConfigError("$.lchs.A: must be a square matrix")
    A = np.asarray(sec["A"], dtype=float)
    b = np.asarray(sec["b"], dtype=float)
    u0 = np.asarray(sec["u0"], dtype=float)
    if b.shape != (A.shape[0],) or u0.shape != (A.shape[0],):
        raise ConfigError("$.lchs.b and $.lchs.u0 must match the matrix dimension")
    # the schema admits integral floats such as 9.0 as integers
    lcfg = LchsConfig(K=sec["K"], nodes=int(sec["nodes"]), substeps=int(sec["substeps"]))
    res = lchs_solve(lambda t: A, lambda t: b, u0, sec["T"], lcfg)
    # exact for any A, singular included: exp(T [[-A, b], [0, 0]]) maps
    # (u0, 1) to (u(T), 1)
    n = A.shape[0]
    aug = np.zeros((n + 1, n + 1))
    aug[:n, :n] = -A
    aug[:n, n] = b
    u_exact = (expm(sec["T"] * aug) @ np.append(u0, 1.0))[:n]
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
    return 0, {"summary.csv": (columns, [row], ())}


def cmd_diagnose(cfg: dict) -> tuple[int, dict]:
    m = build_model(cfg)
    s, grid, x_T = build_window(cfg, m)
    sec = cfg["diagnose"]
    run = finite_run(f"the {sec['scheme']}{sec['order']} sampler",
                     lambda: run_scheme(s, m, x_T, grid, sec["scheme"], sec["order"], sec["variant"]))
    trace = spectrum_trace(s, m, run)
    ptrace = dissipativity_P(trace)
    spec_cols = ["step", "t"] + [f"eig_{i}" for i in range(m.d)]
    spec_rows = [[i, trace.times[i]] + list(trace.eigs[i]) for i in range(len(trace.times))]
    p_cols = ["step", "t", "P"] + [f"a_{i}" for i in range(m.d)]
    p_rows = [[i, ptrace.times[i], ptrace.P[i]] + list(ptrace.a[i]) for i in range(len(ptrace.times))]
    sum_cols = ["scheme", "M", "normalization", "flagged", "P_final", "max_eig"]
    sum_row = [
        run.scheme, len(grid.h), trace.normalization, ptrace.flagged,
        float(ptrace.P[-1]), float(np.max(trace.eigs)),
    ]
    return 0, {
        "spectrum.csv": (spec_cols, spec_rows, [("normalization", trace.normalization)]),
        "ptrace.csv": (p_cols, p_rows, [("flagged", ptrace.flagged)]),
        "summary.csv": (sum_cols, [sum_row], ()),
    }


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


def cmd_readout(cfg: dict) -> tuple[int, dict]:
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
    return 0, {"summary.csv": (columns, [row], ())}


# --- sweep --------------------------------------------------------------------


def _has_path(cfg: dict, dotted: str) -> bool:
    node = cfg
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return False
        node = node[part]
    return True


def _set_path(cfg: dict, dotted: str, value) -> None:
    if not _has_path(cfg, dotted):
        raise ConfigError(f"$.sweep.parameter: path {dotted!r} not found in config")
    *parents, leaf = dotted.split(".")
    node = cfg
    for part in parents:
        node = node[part]
    node[leaf] = value


def _name_point(exc: Exception, index: int, parameter: str, value) -> None:
    """Append the sweep point a failure came from to the message main prints."""
    exc.args = (f"{exc} (sweep point {index}: {parameter} = {json.dumps(value)})",)


def cmd_sweep(cfg: dict) -> tuple[int, dict]:
    sweep = cfg["sweep"]
    parameter = sweep["parameter"]
    values = sweep["values"]
    base_cfg = {k: v for k, v in cfg.items() if k != "sweep"}
    point_cfgs = []
    for value in values:
        point_cfg = copy.deepcopy(base_cfg)
        _set_path(point_cfg, parameter, value)
        try:
            validate_config(point_cfg)
            _require(point_cfg, sweep["command"])
            if sweep["slope"] and (isinstance(value, bool) or not isinstance(value, (int, float))
                                   or not value > 0):
                raise ConfigError("$.sweep.slope: swept values must be positive numbers")
        except ConfigError as exc:
            _name_point(exc, len(point_cfgs), parameter, value)
            raise
        point_cfgs.append(point_cfg)

    command = _POINT_COMMANDS[sweep["command"]]
    if sweep["command"] == "carleman":
        command = functools.partial(command, oracles={})
    worst = 0
    header = None
    rows = []
    for index, (value, point_cfg) in enumerate(zip(values, point_cfgs)):
        try:
            status, outputs = command(point_cfg)
        except Exception as exc:
            _name_point(exc, index, parameter, value)
            raise
        columns, point_rows, _ = outputs["summary.csv"]
        worst = max(worst, status)
        if header is None:
            header = columns
        elif header != columns:
            raise StructureError("sweep points produced mismatching summary columns")
        rows += [[parameter, value, *row] for row in point_rows]

    if sweep["slope"]:
        err_col = next((c for c in ("error", "endpoint_error") if c in header), None)
        if err_col is None:
            raise StructureError("slope requested but no error column in summary")
        err_idx = 2 + header.index(err_col)
        errs, hs = [], []
        for value, row in zip(values, rows):
            err = float(row[err_idx])
            if err > 0 and math.isfinite(err):
                errs.append(math.log(err))
                hs.append(math.log(1.0 / float(value)))
        if len(errs) < 2:
            raise StructureError("slope requested but fewer than two usable error points")
        slope = float(np.polyfit(hs, errs, 1)[0])
        rows.append([parameter, "slope", slope] + [None] * (len(header) - 1))

    meta = [("command", sweep["command"])]
    return worst, {"sweep.csv": (["parameter", "value", *header], rows, meta)}


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
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        raw = load_config(args.config)
        cfg = resolve_config(raw, seed=args.seed, out=args.out)
        _require(cfg, args.command)
        if args.command == "sweep":
            # the points' inputs too, before any point runs
            _require(cfg, cfg["sweep"]["command"])
        out_dir = cfg["out"] or os.getcwd()
        os.makedirs(out_dir, exist_ok=True)
        cfg["out"] = out_dir
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    handler = {**_POINT_COMMANDS, "sweep": cmd_sweep}[args.command]
    sha = config_hash(cfg)
    with open(os.path.join(out_dir, "resolved_config.json"), "w") as fh:
        json.dump(canonical_config(cfg), fh, indent=2, sort_keys=True)
        fh.write("\n")
    try:
        status, outputs = handler(cfg)
        for name, output in outputs.items():
            path = os.path.join(out_dir, name)
            if callable(output):
                output(path)
            else:
                write_csv(path, sha, *output)
        return status
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
