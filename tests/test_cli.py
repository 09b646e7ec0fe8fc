"""End-to-end tests of the batch front end: exit codes, CSV artifacts,
deterministic reruns, and the sweep merge."""

import hashlib
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from carlift import cli, model, solve, system
from carlift.system import TrajectoryOperator
from oracles import address_space_cap


def write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run(tmp_path, command, cfg, out="out", extra=()):
    path = write_cfg(tmp_path, cfg, name=f"{command}_{out}.json")
    out_dir = tmp_path / out
    code = cli.main([command, "--config", path, "--out", str(out_dir), *extra])
    return code, out_dir


def data_rows(path):
    """Header and data rows of a CSV the CLI wrote, past its '#' stamp lines."""
    lines = [line for line in path.read_text().splitlines() if line and not line.startswith("#")]
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


SIM_CFG = {"window": {"benchmark": "weak_quadratic", "M": 8}, "simulate": {"order": 2}}


def test_simulate_artifacts_and_stamp(tmp_path):
    code, out = run(tmp_path, "simulate", SIM_CFG)
    assert code == 0
    for name in ("trajectory.csv", "summary.csv", "resolved_config.json"):
        assert (out / name).exists()
    lines = (out / "summary.csv").read_text().splitlines()
    assert lines[0].startswith("# version: ")
    assert lines[1].startswith("# config_sha256: ")
    sha = lines[1].split()[-1]
    canon = json.loads((out / "resolved_config.json").read_text())
    blob = json.dumps(canon, sort_keys=True, separators=(",", ":")).encode()
    assert sha == hashlib.sha256(blob).hexdigest()
    assert canon["out"] is None
    cols, rows = data_rows(out / "summary.csv")
    assert cols == ["scheme", "M", "nfe", "x_end_0", "endpoint_error"]
    row = dict(zip(cols, rows[0]))
    assert row["scheme"] == "dpm2" and row["M"] == "8"
    assert float(row["endpoint_error"]) < 1e-2


def test_simulate_zero_model_conserves_rescaled_state(tmp_path):
    cfg = {
        "model": {"mode": "separable", "d": 1, "terms": []},
        "window": {"x_T": 1.3, "t_start": 1.0, "t_end": 0.05, "M": 12},
        "simulate": {"oracle": False},
    }
    code, out = run(tmp_path, "simulate", cfg)
    assert code == 0
    cols, rows = data_rows(out / "trajectory.csv")
    idx = cols.index("x_over_alpha_0")
    vals = np.array([float(r[idx]) for r in rows])
    assert np.allclose(vals, vals[0], rtol=1e-12)


def test_simulate_inline_separable_model(tmp_path):
    cfg = {
        "model": {"mode": "separable", "d": 2, "terms": [[1, 0, [0.5, 0.7]]]},
        "window": {"x_T": [1.0, 2.0], "t_start": 0.8, "t_end": 0.1, "M": 16},
        "simulate": {"order": 2},
    }
    code, out = run(tmp_path, "simulate", cfg)
    assert code == 0
    cols, rows = data_rows(out / "summary.csv")
    assert "x_end_1" in cols
    assert float(dict(zip(cols, rows[0]))["endpoint_error"]) < 1e-2


@pytest.mark.parametrize("model, key", [
    ({"mode": "kron", "d": 1, "blocks": {"1": [[-0.5]]}, "terms": [[1, 0, -0.5]]}, "terms"),
    ({"mode": "separable", "d": 1, "terms": [[1, 0, -0.5]], "blocks": {"1": [[-0.5]]}}, "blocks"),
])
def test_model_refuses_the_other_modes_key(tmp_path, capsys, model, key):
    # each model is valid without the key its mode does not read
    cfg = {"model": model, "window": {"x_T": 0.8, "t_start": 0.5, "t_end": 0.1, "M": 4}}
    code, out = run(tmp_path, "simulate", cfg)
    assert code == 2
    assert capsys.readouterr().err.startswith(f"config error: $.model.{key}")
    assert not (out / "summary.csv").exists()
    del model[key]
    assert run(tmp_path, "simulate", cfg, out="without")[0] == 0


@pytest.mark.parametrize("model, key", [
    # a negative degree was dropped, and "01" ran as degree 1 in place of "1"
    ({"mode": "kron", "d": 1, "blocks": {"1": [[0.1]], "-1": [[100.0]]}}, "$.model.blocks"),
    ({"mode": "kron", "d": 1, "blocks": {"1": [[0.1]], "01": [[5.0]]}}, "$.model.blocks"),
    # neither one coefficient for every coordinate nor one each
    ({"mode": "separable", "d": 2, "terms": [[1, 0, -0.5], [0, 0, [0.1, 0.2, 0.3]]]}, "$.model.terms[1]"),
], ids=["negative_degree", "leading_zero", "terms_length"])
def test_model_degrees_and_coefficient_counts_are_checked(tmp_path, capsys, model, key):
    cfg = {"model": model, "window": {"x_T": 0.8, "t_start": 0.5, "t_end": 0.1, "M": 4}}
    code, out = run(tmp_path, "simulate", cfg)
    assert code == 2
    assert capsys.readouterr().err.startswith(f"config error: {key}: ")
    assert not (out / "summary.csv").exists()


def test_a_repeated_separable_term_exits_2(tmp_path, capsys):
    # a second entry for one (j, l) would replace the first without a word
    cfg = {"model": {"mode": "separable", "d": 1, "terms": [[1, 0, -0.5], [1, 0, -0.3]]},
           "window": {"x_T": 0.8, "t_start": 0.5, "t_end": 0.1, "M": 4}}
    code, out = run(tmp_path, "simulate", cfg)
    assert code == 2
    assert capsys.readouterr().err == (
        "config error: $.model.terms[1]: repeats (j, l) = (1, 0) of $.model.terms[0]\n")
    assert not (out / "summary.csv").exists()


def test_config_errors_exit_2(tmp_path, capsys):
    sep2 = {"mode": "separable", "d": 2, "terms": [[1, 0, 0.5]]}
    lchs = {"A": [[1.0, 0.0], [0.0]], "b": [1.0, 0.5], "u0": [1.0, -0.5]}
    bad_cases = [
        ("simulate", {"window": {"M": 8}}, "$.model"),
        ("simulate", {"window": {"M": 8, "steps": 4}}, "$.window"),
        ("simulate", {"model": {"preset": "linear", "mode": "separable"}}, "$.model"),
        ("simulate", {"model": {"preset": "quartic"}}, "$.model.preset"),
        ("simulate", {"window": {"M": "eight"}}, "$.window.M"),
        ("simulate", {"window": {"benchmark": "weak_quadratic", "M": 8},
                      "carleman": {"condition": "power"}}, "$.carleman.condition"),
        # the model-key rules: separable needs d, kron needs d and blocks,
        # and without a preset the mode is required
        ("simulate", {"model": {"mode": "separable", "terms": [[1, 0, 0.5]]}}, "$.model"),
        ("simulate", {"model": {"mode": "kron", "d": 1}}, "$.model"),
        ("simulate", {"model": {"mode": "kron", "blocks": {"1": [[0.5]]}}}, "$.model"),
        ("simulate", {"model": {"terms": [[1, 0, 0.5]]}}, "$.model"),
        # shapes the schema cannot check
        ("simulate", {"model": sep2, "window": {"x_T": [1.0, 2.0, 3.0], "M": 4}}, "$.window.x_T"),
        ("lchs", {"lchs": lchs}, "$.lchs.A"),
    ]
    for i, (command, cfg, key) in enumerate(bad_cases):
        code, out = run(tmp_path, command, cfg, out=f"e{i}")
        err = capsys.readouterr().err
        assert code == 2, cfg
        assert err.startswith(f"config error: {key}"), (cfg, err)
        assert not (out / "summary.csv").exists()

    # malformed JSON
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert cli.main(["simulate", "--config", str(path), "--out", str(tmp_path / "x")]) == 2

    # missing sections for the chosen command
    code, _ = run(tmp_path, "sweep", {"window": {"benchmark": "linear"}}, out="s0")
    assert code == 2
    code, _ = run(tmp_path, "lchs", {}, out="l0")
    assert code == 2
    code, _ = run(tmp_path, "simulate", {"window": {"M": 4}}, out="m0")
    assert code == 2


@pytest.mark.parametrize("text, message", [
    (None, "config error: cannot read config {path!r}"),
    ("[1, 2]", "config error: config root must be a JSON object"),
    ("{not json", "config error: config {path!r} is not valid JSON"),
], ids=["missing", "list_root", "invalid_json"])
def test_unloadable_config_exits_2_before_writing(tmp_path, capsys, text, message):
    path = tmp_path / "cfg.json"
    if text is not None:
        path.write_text(text)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(message.format(path=str(path)))
    assert not out.exists()


SLOPE_SIM = {"window": {"benchmark": "weak_quadratic", "M": 4},
             "sweep": {"command": "simulate", "parameter": "window.M", "values": [4, 8], "slope": True}}


@pytest.mark.parametrize("command, cfg, code, message", [
    ("simulate", {"model": {"mode": "kron", "d": 2, "blocks": {"1": [[0.5, 0.1, 0.2]]}},
                  "window": {"x_T": [0.5, -0.5], "t_start": 0.6, "t_end": 0.1, "M": 4}},
     2, "config error: $.model: kron degree-1 block must have shape"),
    ("lchs", {"lchs": {"A": [[1.0, 0.0], [0.0, 2.0]], "b": [1.0], "u0": [1.0, -0.5]}},
     2, "config error: $.lchs.b and $.lchs.u0 must match"),
    ("readout", {"readout": {"r": 4, "dim": 4}}, 2, "config error: $.readout.r: must be smaller than dim"),
    ("sweep", {"readout": {"dim": 64, "trials": 2},
               "sweep": {"command": "readout", "parameter": "readout.r", "values": [1, 2], "slope": True}},
     3, "numerical failure: slope requested but no error column"),
    ("sweep", {**SLOPE_SIM, "simulate": {"oracle": False}},
     3, "numerical failure: slope requested but fewer than two usable error points"),
    ("sweep", {"model": {"mode": "separable", "d": 1, "terms": [[1, 0, 0.5]]},
               "window": {"x_T": 0.8, "t_start": 0.6, "t_end": 0.1, "M": 4},
               "sweep": {"command": "simulate", "parameter": "model.d", "values": [1, 2]}},
     3, "numerical failure: sweep points produced mismatching summary columns"),
], ids=["kron_block_shape", "lchs_vectors", "readout_r", "slope_without_error", "slope_without_oracle",
        "sweep_columns"])
def test_command_failure_leaves_only_the_resolved_config(tmp_path, capsys, command, cfg, code, message):
    got, out = run(tmp_path, command, cfg)
    assert got == code
    assert capsys.readouterr().err.startswith(message)
    assert sorted(p.name for p in out.iterdir()) == ["resolved_config.json"]


def test_numerical_failure_exits_3(tmp_path):
    cfg = {
        "model": {"preset": "linear"},
        "window": {"x_T": 1.0, "t_start": 1.0, "t_end": 1e-7, "M": 4},
    }
    code, _ = run(tmp_path, "simulate", cfg)
    assert code == 3


# eps grows as x^2, so the order-3 sampler overflows within the window
DIVERGING_CFG = {
    "model": {"mode": "separable", "d": 2, "terms": [[0, 0, 0.2], [1, 0, [-0.6, -0.4]], [2, 1, 0.05]]},
    "window": {"x_T": [1.0, 0.5], "t_start": 0.8, "t_end": 0.1, "M": 10},
    "simulate": {"order": 3},
    "diagnose": {"order": 3},
}


@pytest.mark.parametrize("command, cfg, message", [
    ("simulate", DIVERGING_CFG, "overflow"),
    ("diagnose", DIVERGING_CFG, "overflow"),
    ("sweep", {**DIVERGING_CFG, "sweep": {"command": "simulate", "parameter": "window.M",
                                          "values": [10, 12], "workers": 2}}, "overflow"),
    # JSON admits NaN, and a NaN state raises no floating-point error
    ("simulate", {"model": {"preset": "linear"}, "window": {"x_T": math.nan, "M": 4}},
     "the dpm1 sampler reached a non-finite state"),
], ids=["simulate", "diagnose", "sweep", "nan_start"])
def test_non_finite_sampler_state_exits_3(tmp_path, capsys, command, cfg, message):
    code, out = run(tmp_path, command, cfg)
    assert code == 3
    assert sorted(p.name for p in out.iterdir()) == ["resolved_config.json"]
    assert capsys.readouterr().err.startswith(f"numerical failure: {message}")


@pytest.mark.parametrize("command", ["simulate", "diagnose"])
def test_diverging_one_coordinate_sampler_exits_3(tmp_path, capsys, command):
    # coordinate 0 of DIVERGING_CFG alone: a one-coordinate sampler steps on
    # Python floats, whose overflow raises nothing, so the states check
    # reports it where DIVERGING_CFG's arrays raise an overflow
    cfg = {**DIVERGING_CFG,
           "model": {"mode": "separable", "d": 1, "terms": [[0, 0, 0.2], [1, 0, -0.6], [2, 1, 0.05]]},
           "window": {**DIVERGING_CFG["window"], "x_T": 1.0}}
    code, out = run(tmp_path, command, cfg)
    assert code == 3
    assert sorted(p.name for p in out.iterdir()) == ["resolved_config.json"]
    assert capsys.readouterr().err.startswith("numerical failure: the dpm3 sampler reached a non-finite state")


def test_diverging_oracle_exits_3(tmp_path, capsys):
    # the lifted endpoint stays finite (about 184) while the one-coordinate
    # RK4 oracle, stepping on Python floats, overflows without raising
    cfg = {
        "model": {"mode": "separable", "d": 1, "terms": [[0, 0, 0.2], [1, 0, -0.6], [2, 1, 0.05]]},
        "window": {"x_T": 1.0, "t_start": 0.8, "t_end": 0.1, "M": 10},
    }
    code, out = run(tmp_path, "carleman", cfg)
    assert code == 3
    assert sorted(p.name for p in out.iterdir()) == ["resolved_config.json"]
    assert capsys.readouterr().err.startswith(
        "numerical failure: the RK4 oracle reached a non-finite state")


# test_diverging_oracle_exits_3's model as a one-coordinate kron model,
# and the same model on two coordinates
DIVERGING_KRON = {
    1: {"mode": "kron", "d": 1, "blocks": {"0": [[0.2]], "1": [[-0.6]], "2": [[[0.0]], [[0.05]]]}},
    2: {"mode": "kron", "d": 2, "blocks": {"0": [[0.2], [0.2]], "1": [[-0.6, 0.0], [0.0, -0.6]],
                                           "2": [[[0.0] * 4, [0.0] * 4],
                                                 [[0.05, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.05]]]}},
}


@pytest.mark.parametrize("command, model", [
    (command, DIVERGING_KRON[d]) for d in (1, 2) for command in ("simulate", "carleman")
], ids=["simulate", "carleman", "simulate_d2", "carleman_d2"])
def test_diverging_kron_oracle_exits_3(tmp_path, capsys, command, model):
    # the oracle steps on a list of Python floats, whose overflow raises
    # nothing; the contraction with eps's coefficients then meets
    # inf - inf, and NumPy's error names the operation, the message the oracle
    cfg = {"model": model, "window": {"x_T": 1.0, "t_start": 0.8, "t_end": 0.1, "M": 10}}
    code, out = run(tmp_path, command, cfg)
    assert code == 3
    assert sorted(p.name for p in out.iterdir()) == ["resolved_config.json"]
    assert capsys.readouterr().err.startswith(
        "numerical failure: invalid value encountered in dot, in the RK4 oracle")


# test_diverging_oracle_exits_3's model over x_T: its oracle overflows at
# x_T = 1.0 and stays finite at 0.1, and every lift stays finite
XT_SWEEP_CFG = {
    "model": {"mode": "separable", "d": 1, "terms": [[0, 0, 0.2], [1, 0, -0.6], [2, 1, 0.05]]},
    "window": {"t_start": 0.8, "t_end": 0.1, "M": 4},
}


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_reports_a_lift_failure_before_a_later_points_oracle(tmp_path, capsys, workers):
    # over the whole default window in one step, point 0's lift outruns
    # exp_taylor_tail's term budget, which ends the sweep before its own
    # oracle, or point 1's, would overflow
    cfg = {**XT_SWEEP_CFG, "schedule": {"beta_max": 1600}, "window": {"M": 1},
           "sweep": {"command": "carleman", "parameter": "window.x_T", "values": [0.1, 1.0],
                     "workers": workers}}
    code, out = run(tmp_path, "sweep", cfg)
    assert code == 4
    assert sorted(p.name for p in out.iterdir()) == ["resolved_config.json"]
    err = capsys.readouterr().err
    assert err.startswith("did not converge: exponential tail")
    assert err.rstrip().endswith("(sweep point 0: window.x_T = 0.1)")


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_names_the_point_whose_oracle_diverges(tmp_path, capsys, workers):
    cfg = {**XT_SWEEP_CFG, "sweep": {"command": "carleman", "parameter": "window.x_T",
                                     "values": [1.0, 0.1], "workers": workers}}
    code, out = run(tmp_path, "sweep", cfg)
    assert code == 3
    assert sorted(p.name for p in out.iterdir()) == ["resolved_config.json"]
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: the RK4 oracle reached a non-finite state")
    assert err.rstrip().endswith("(sweep point 0: window.x_T = 1.0)")


def test_carleman_refuses_separable_models_with_d_above_1(tmp_path, capsys):
    cfg = {
        "model": {"mode": "separable", "d": 2, "terms": [[1, 0, 0.5]]},
        "window": {"x_T": [1.0, 0.5], "t_start": 0.8, "t_end": 0.1, "M": 4},
    }
    code, out = run(tmp_path, "carleman", cfg)
    assert code == 2
    assert not out.exists()
    assert capsys.readouterr().err.startswith("config error: $.model.mode: separable models")
    code, _ = run(tmp_path, "simulate", cfg, out="sim")
    assert code == 0


def test_oversized_lift_exits_3(tmp_path):
    cfg = {
        "model": {"mode": "kron", "d": 4, "blocks": {"1": (0.5 * np.eye(4)).tolist()}},
        "window": {"x_T": [0.1, 0.2, 0.3, 0.4], "t_start": 0.5, "t_end": 0.1, "M": 2},
        "carleman": {"N": 24},
    }
    code, _ = run(tmp_path, "carleman", cfg)
    assert code == 3


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="needs /proc to cap memory")
def test_run_too_large_to_lift_exits_3_before_allocating(tmp_path, capsys):
    # d=4, N=20: dim 10 625, so one step's dense matrix (0.90 GB) is under
    # the cap, but the M=32 steps of the run are 28.9 GB together
    cfg = {
        "model": {"mode": "kron", "d": 4, "blocks": {"1": (0.5 * np.eye(4)).tolist(),
                                                     "2": np.full((4, 16), 0.01).tolist()}},
        "window": {"x_T": [0.1, 0.2, 0.3, 0.4], "t_start": 0.5, "t_end": 0.1, "M": 32},
        "carleman": {"N": 20},
    }
    tracemalloc.start()
    try:
        with address_space_cap(2**30):
            code, _ = run(tmp_path, "carleman", cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 3
    assert "lifting the run needs" in capsys.readouterr().err
    assert peak < 8 * 2**20


def test_derivative_pass_past_the_cap_exits_3(tmp_path, monkeypatch, capsys):
    # the d=2 degree-2 kron model's order-3 pass is priced at 13 920 bytes
    # a point: a cap one byte lower refuses the dpm3 run before it writes
    # anything but its resolved config
    monkeypatch.setattr(model, "MAX_TOWER_BYTES", 13920 - 1)
    cfg = {"model": KRON_UNIPC_CFG["model"], "window": KRON_UNIPC_CFG["window"], "simulate": {"order": 3}}
    code, out = run(tmp_path, "simulate", cfg)
    assert code == 3
    assert "derivative pass needs 13920 bytes" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["resolved_config.json"]


def test_oversized_global_system_exits_3(tmp_path, monkeypatch, capsys):
    # the lowered cap admits the run's lift (8 steps, each a dim 3 matrix
    # and offset at 8 * 3 * 4 = 96 bytes, 768 in all) but not the global
    # system at 12 bytes per entry (1 028 bytes)
    monkeypatch.setattr(system, "MAX_STEP_BYTES", 1024)
    cfg = {"window": {"benchmark": "weak_quadratic", "M": 8}, "carleman": {"N": 3}}
    code, _ = run(tmp_path, "carleman", cfg)
    assert code == 3
    assert "global system needs" in capsys.readouterr().err


def test_condition_estimate_past_the_cap_exits_3(tmp_path, monkeypatch, capsys):
    # the lowered cap admits the lift (768 bytes) and the global CSR (1 028
    # bytes) but not the Lanczos estimate's CSR, the LU factor of its
    # transpose and its basis of 21 vectors of 27 entries
    # (2 056 + 4 536 = 6 592 bytes)
    monkeypatch.setattr(system, "MAX_STEP_BYTES", 2000)
    cfg = {"window": {"benchmark": "weak_quadratic", "M": 8},
           "carleman": {"N": 3, "export_matrix": True}}
    code, out = run(tmp_path, "carleman", cfg)
    assert code == 3
    assert "the condition estimate 6592" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["resolved_config.json"]
    cfg["carleman"]["condition"] = "none"
    code, out = run(tmp_path, "carleman", cfg, out="none")
    assert code == 0
    assert (out / "matrix.txt").exists()


def test_condition_estimate_short_of_rtol_exits_4(tmp_path):
    cfg = {
        "window": {"benchmark": "weak_quadratic", "M": 8},
        "carleman": {"N": 3, "condition": "auto", "condition_rtol": 1e-300},
    }
    code, out = run(tmp_path, "carleman", cfg)
    assert code == 4
    cols, rows = data_rows(out / "condition.csv")
    assert dict(zip(cols, rows[0]))["converged"] == "false"


def test_gmres_stall_exits_4(tmp_path, monkeypatch, capsys):
    # a growing trajectory leaves a nonzero floating-point residual that an
    # impossible tolerance can never reach: a stall in the carleman
    # command's system solve is a convergence failure, not a numerical one
    monkeypatch.setattr(solve, "GMRES_TOL", 1e-30)
    monkeypatch.setattr(cli, "forward_substitute", solve.gmres_solve)
    cfg = {
        "model": {"mode": "separable", "d": 1, "terms": [[0, 0, 0.1], [1, 0, -0.5], [2, 0, 0.1]]},
        "window": {"x_T": 0.8, "t_start": 0.6, "t_end": 0.05, "M": 6},
        "carleman": {"N": 3},
    }
    code, out = run(tmp_path, "carleman", cfg)
    assert code == 4
    assert sorted(p.name for p in out.iterdir()) == ["resolved_config.json"]
    assert capsys.readouterr().err.startswith("did not converge: gmres stalled")


def test_unsummable_step_weights_exit_4(tmp_path, capsys):
    # one step of log-SNR width about 399 outruns exp_taylor_tail's term
    # budget, in the sampler and in the lift alike
    cfg = {"model": {"preset": "linear"}, "schedule": {"beta_max": 1600}, "window": {"M": 1},
           "simulate": {"oracle": False}}
    for command in ("simulate", "carleman"):
        code, out = run(tmp_path, command, cfg, out=command)
        assert code == 4
        assert sorted(p.name for p in out.iterdir()) == ["resolved_config.json"]
        assert capsys.readouterr().err.startswith("did not converge: exponential tail")


@pytest.mark.parametrize("x_T, condition, message", [
    (1.0, "none", "overflow encountered in matmul, in the forward solve"),
    (1.0, "dense_svd", "overflow encountered in matmul, in the forward solve"),
    (1e-100, "auto", "the condition estimate failed: the squared norm of application 1 is not finite"),
    (1e-100, "dense_svd", "the condition number is beyond the float range: sigma_min underflowed to 0"),
], ids=["trajectory", "trajectory_before_svd", "condition_estimate", "condition_underflow"])
def test_lift_overflow_exits_3(tmp_path, capsys, x_T, condition, message):
    # two steps of log-SNR width about 200: from x_T = 1 block 2 of the
    # lifted trajectory overflows; from x_T = 1e-100 the trajectory stays
    # finite, but M^T M in the condition estimate does not, and the
    # smallest singular value of M underflows to 0
    cfg = {"model": {"preset": "linear"}, "schedule": {"beta_max": 1600},
           "window": {"M": 2, "x_T": x_T}, "carleman": {"N": 2, "condition": condition}}
    code, out = run(tmp_path, "carleman", cfg)
    assert code == 3
    assert sorted(p.name for p in out.iterdir()) == ["resolved_config.json"]
    assert capsys.readouterr().err.startswith(f"numerical failure: {message}")


@pytest.mark.parametrize("carleman, message", [
    ({"solver": "forward"}, "$.carleman: Additional properties are not allowed ('solver' was unexpected)"),
    ({"solver": "gmres"}, "$.carleman: Additional properties are not allowed ('solver' was unexpected)"),
    ({"gmres_tol": 1e-10},
     "$.carleman: Additional properties are not allowed ('gmres_tol' was unexpected)"),
    ({"condition": "lanczos"}, "$.carleman.condition: 'lanczos' is not one of"),
], ids=["solver_forward", "solver_gmres", "gmres_tol", "condition_lanczos"])
def test_removed_carleman_options_exit_2_before_writing(tmp_path, capsys, carleman, message):
    cfg = {"window": {"benchmark": "weak_quadratic", "M": 4}, "carleman": carleman}
    code, out = run(tmp_path, "carleman", cfg)
    assert code == 2
    assert capsys.readouterr().err.startswith(f"config error: {message}")
    assert not out.exists()


def test_steps_from_an_underflowed_alpha_exit_0(tmp_path):
    # two steps of log-SNR width about 200 from lam near -400, where alpha
    # underflows to 0: the alpha ratio is taken from log alpha
    cfg = {"model": {"preset": "weak_quadratic"}, "schedule": {"beta_max": 1600},
           "window": {"M": 2}, "simulate": {"oracle": False}}
    code, out = run(tmp_path, "simulate", cfg)
    assert code == 0
    cols, rows = data_rows(out / "trajectory.csv")
    states = np.array(rows, dtype=float)[:, [i for i, c in enumerate(cols) if c.startswith("x")]]
    assert states.shape == (3, 2) and np.isfinite(states).all()  # no oracle, so no error column


def test_importing_the_cli_leaves_scipy_optimize_unloaded():
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    probe = "import sys, carlift.cli; print('scipy.optimize' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    assert done.stdout.strip() == "False"


def test_carleman_matrix_export_round_trips(tmp_path):
    from oracles import import_matrix

    cfg = {
        "window": {"benchmark": "weak_quadratic", "M": 4},
        "carleman": {"N": 2, "export_matrix": True},
    }
    code, out = run(tmp_path, "carleman", cfg)
    assert code == 0
    mat = import_matrix(out / "matrix.txt")
    cols, rows = data_rows(out / "summary.csv")
    dim = int(dict(zip(cols, rows[0]))["dim"])
    assert mat.shape == (dim, dim)


def test_lchs_command(tmp_path):
    cfg = {
        "lchs": {
            "A": [[2.0, 1.0], [1.0, 3.0]],
            "b": [1.0, 0.5],
            "u0": [1.0, -0.5],
            "T": 1.0,
        }
    }
    code, out = run(tmp_path, "lchs", cfg)
    assert code == 0
    cols, rows = data_rows(out / "summary.csv")
    row = dict(zip(cols, rows[0]))
    assert float(row["error"]) < 1e-3
    assert int(row["n_exponentials"]) == 257


def test_lchs_command_on_singular_matrix(tmp_path):
    # A = diag(0, 1) has no inverse; the exact reference does not need one
    lchs = {"A": [[0.0, 0.0], [0.0, 1.0]], "b": [1.0, 0.5], "u0": [1.0, -0.5], "T": 1.0}
    code, out = run(tmp_path, "lchs", {"lchs": {**lchs, "K": 2048.0, "nodes": 8193}}, out="wide")
    assert code == 0
    cols, rows = data_rows(out / "summary.csv")
    row = dict(zip(cols, rows[0]))
    assert float(row["error"]) < 1e-3
    # the zero mode is not damped, so the truncated kernel misses it by its
    # tail mass: error = |u_0(T)| (1 - kernel_mass) with u_0(T) = 1 + T = 2
    code, out = run(tmp_path, "lchs", {"lchs": lchs}, out="default")
    assert code == 0
    cols, rows = data_rows(out / "summary.csv")
    row = dict(zip(cols, rows[0]))
    assert float(row["error"]) == pytest.approx(2.0 * (1.0 - float(row["kernel_mass"])), rel=1e-4)


@pytest.mark.parametrize(
    "field, value",
    [("T", math.nan), ("K", math.nan), ("K", math.inf)],
)
def test_lchs_command_refuses_non_finite_values(tmp_path, field, value):
    lchs = {"A": [[2.0, 1.0], [1.0, 3.0]], "b": [1.0, 0.5], "u0": [1.0, -0.5], "T": 1.0, field: value}
    code, out = run(tmp_path, "lchs", {"lchs": lchs})
    assert code == 3
    assert not (out / "summary.csv").exists()


def test_lchs_command_takes_integral_float_counts(tmp_path):
    # JSON Schema counts 9.0 as an integer, so the config may spell counts so
    lchs = {"A": [[2.0, 1.0], [1.0, 3.0]], "b": [1.0, 0.5], "u0": [1.0, -0.5], "T": 1.0,
            "nodes": 9.0, "substeps": 4.0}
    code, out = run(tmp_path, "lchs", {"lchs": lchs})
    assert code == 0
    cols, rows = data_rows(out / "summary.csv")
    assert int(dict(zip(cols, rows[0]))["n_exponentials"]) == 9


def test_diagnose_command_tracks_decay(tmp_path):
    cfg = {"window": {"benchmark": "dissipative_linear", "M": 12}}
    code, out = run(tmp_path, "diagnose", cfg)
    assert code == 0
    cols, rows = data_rows(out / "ptrace.csv")
    p_idx = cols.index("P")
    a_idx = cols.index("a_0")
    P = np.array([float(r[p_idx]) for r in rows])
    a = np.array([float(r[a_idx]) for r in rows])
    assert np.all(np.diff(P) <= 0)
    assert a.min() > 0 and a.max() == 1.0
    sum_cols, sum_rows = data_rows(out / "summary.csv")
    assert dict(zip(sum_cols, sum_rows[0]))["flagged"] == "false"


def test_readout_command_defaults(tmp_path):
    cfg = {"readout": {"r": 2, "dim": 64, "trials": 5, "amp_shots": 512}}
    code, out = run(tmp_path, "readout", cfg)
    assert code == 0
    cols, rows = data_rows(out / "summary.csv")
    row = dict(zip(cols, rows[0]))
    assert int(row["shots"]) == math.ceil(20 * 2 * math.log(2))
    assert int(row["successes"]) == 5
    assert float(row["l2_err"]) < 0.25


def test_readout_command_uniform_fixture(tmp_path):
    cfg = {"readout": {"r": 2, "dim": 64, "trials": 3, "fixture": "uniform"}}
    code, out = run(tmp_path, "readout", cfg)
    assert code == 0
    cols, rows = data_rows(out / "summary.csv")
    row = dict(zip(cols, rows[0]))
    assert len(rows) == 1 and (row["r"], row["dim"], row["trials"]) == ("2", "64", "3")
    assert int(row["successes"]) == 3


def test_rerun_is_byte_identical(tmp_path):
    _, out1 = run(tmp_path, "simulate", SIM_CFG, out="r1")
    _, out2 = run(tmp_path, "simulate", SIM_CFG, out="r2")
    for name in ("summary.csv", "trajectory.csv", "resolved_config.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


SWEEP_CFG = {
    "window": {"benchmark": "linear", "M": 8},
    "sweep": {
        "command": "simulate",
        "parameter": "window.M",
        "values": [8, 16, 32],
        "slope": True,
    },
}


def test_sweep_merge_order_slope_and_concurrency(tmp_path):
    code1, out1 = run(tmp_path, "sweep", SWEEP_CFG, out="w1")
    # sweep.workers is accepted and changes nothing
    cfg2 = {**SWEEP_CFG, "sweep": {**SWEEP_CFG["sweep"], "workers": 3}}
    code2, out2 = run(tmp_path, "sweep", cfg2, out="w2")
    assert code1 == 0 and code2 == 0
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()
    assert (out1 / "resolved_config.json").read_bytes() == (
        out2 / "resolved_config.json"
    ).read_bytes()
    assert not (out1 / "points").exists()

    cols, rows = data_rows(out1 / "sweep.csv")
    assert cols[:2] == ["parameter", "value"]
    assert [r[1] for r in rows[:3]] == ["8", "16", "32"]
    assert rows[3][1] == "slope"
    slope = float(rows[3][2])
    assert 0.7 < slope < 1.3


def test_workers_flag_is_refused(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, "sweep", SWEEP_CFG, extra=("--workers", "2"))
    assert exc.value.code == 2
    assert "unrecognized arguments: --workers 2" in capsys.readouterr().err


def test_sweep_point_matches_single_run(tmp_path):
    single = {"window": {"benchmark": "weak_quadratic", "M": 16}, "simulate": {"order": 2}}
    _, out_s = run(tmp_path, "simulate", single, out="one")
    sweep = {
        **single,
        "sweep": {"command": "simulate", "parameter": "window.M", "values": [16]},
    }
    _, out_w = run(tmp_path, "sweep", sweep, out="many")
    _, srows = data_rows(out_s / "summary.csv")
    _, wrows = data_rows(out_w / "sweep.csv")
    assert ",".join(wrows[0][2:]) == ",".join(srows[0])


KRON_UNIPC_CFG = {
    "model": {"mode": "kron", "d": 2, "blocks": {"1": [[-0.5, 0.1], [0.05, -0.4]],
                                                 "2": [[0.02, -0.01, 0.0, 0.03], [0.0, 0.01, 0.02, -0.02]]}},
    "window": {"x_T": [0.6, -0.3], "t_start": 0.5, "t_end": 0.1, "M": 8},
    "carleman": {"scheme": "unipc", "order": 2},
}


@pytest.mark.parametrize("workers", [1, 2])
def test_carleman_sweep_point_matches_single_run(tmp_path, workers):
    sweep = {**KRON_UNIPC_CFG, "sweep": {"command": "carleman", "parameter": "carleman.N",
                                         "values": [1, 2, 3], "workers": workers}}
    code, out_w = run(tmp_path, "sweep", sweep, out="many")
    assert code == 0
    _, wrows = data_rows(out_w / "sweep.csv")
    assert len(wrows) == 3
    for N, wrow in zip((1, 2, 3), wrows):
        single = {**KRON_UNIPC_CFG, "carleman": {**KRON_UNIPC_CFG["carleman"], "N": N}}
        code, out_s = run(tmp_path, "carleman", single, out=f"one{N}")
        assert code == 0
        _, srows = data_rows(out_s / "summary.csv")
        assert ",".join(wrow[2:]) == ",".join(srows[0])


@pytest.mark.parametrize("scheme", ["dpm", "unipc"])
def test_carleman_point_solves_its_system_forward_once(tmp_path, monkeypatch, scheme):
    # one lifted walk per point: the forward solve of its trajectory system
    calls = []

    def counted(self, rhs):
        calls.append(self.n_blocks)
        return solve(self, rhs)

    solve = TrajectoryOperator.solve
    monkeypatch.setattr(TrajectoryOperator, "solve", counted)
    cfg = {**KRON_UNIPC_CFG, "carleman": {"scheme": scheme, "order": 2},
           "sweep": {"command": "carleman", "parameter": "carleman.N", "values": [1, 2, 3]}}
    assert run(tmp_path, "sweep", cfg)[0] == 0
    assert calls == [KRON_UNIPC_CFG["window"]["M"] + 1] * 3


@pytest.mark.parametrize("workers", [1, 2])
def test_carleman_sweep_runs_one_oracle_per_distinct_window(tmp_path, monkeypatch, workers):
    # the points run in this process, so the patched oracle sees every call
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs["times"])
        return rk4_oracle(*args, **kwargs)

    rk4_oracle = cli.rk4_oracle
    monkeypatch.setattr(cli, "rk4_oracle", counted)
    n_sweep = {**KRON_UNIPC_CFG, "sweep": {"command": "carleman", "parameter": "carleman.N",
                                           "values": [1, 2, 3, 4, 5], "workers": workers}}
    assert run(tmp_path, "sweep", n_sweep, out="n")[0] == 0
    assert len(calls) == 1
    x_sweep = {**KRON_UNIPC_CFG, "sweep": {"command": "carleman", "parameter": "window.x_T",
                                           "values": [[0.6, -0.3], [0.5, 0.2]], "workers": workers}}
    assert run(tmp_path, "sweep", x_sweep, out="x")[0] == 0
    assert len(calls) == 3
    # nothing outlives a sweep: the same sweep again runs its oracle again
    assert run(tmp_path, "sweep", n_sweep, out="n2")[0] == 0
    assert len(calls) == 4


def test_failing_sweep_point_leaves_only_the_resolved_config(tmp_path, capsys):
    # point 1 takes the default window in one step of log-SNR width about
    # 399, which outruns exp_taylor_tail's term budget
    cfg = {
        "model": {"mode": "separable", "d": 1, "terms": [[0, 0, 0.1], [1, 0, -0.5], [2, 0, 0.1]]},
        "window": {"x_T": 0.8, "M": 1},
        "carleman": {"N": 3},
        "sweep": {"command": "carleman", "parameter": "schedule.beta_max", "values": [20, 1600]},
    }
    code, out = run(tmp_path, "sweep", cfg)
    assert code == 4
    assert sorted(p.name for p in out.iterdir()) == ["resolved_config.json"]
    err = capsys.readouterr().err
    assert err.startswith("did not converge: exponential tail")
    assert err.rstrip().endswith("(sweep point 1: schedule.beta_max = 1600)")


@pytest.mark.parametrize("parameter, values, message", [
    ("carleman.N", [2, "x"], "$.carleman.N: 'x' is not of type 'integer'"),
    ("carleman.scheme", ["dpm", "bogus"], "$.carleman.scheme: 'bogus' is not one of"),
], ids=["N", "scheme"])
def test_bad_swept_values_exit_2_before_any_point_runs(tmp_path, capsys, parameter, values, message):
    cfg = {
        "window": {"benchmark": "weak_quadratic", "M": 4},
        "sweep": {"command": "carleman", "parameter": parameter, "values": values},
    }
    code, out = run(tmp_path, "sweep", cfg)
    assert code == 2
    assert sorted(p.name for p in out.iterdir()) == ["resolved_config.json"]
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {message}")
    assert err.rstrip().endswith(f"(sweep point 1: {parameter} = {json.dumps(values[1])})")


@pytest.mark.parametrize("cfg, message", [
    ({"model": {"mode": "separable", "d": 1, "terms": [[1, 0, 0.5]]},
      "window": {"x_T": 0.8, "t_start": 0.6, "t_end": 0.1, "M": 4},
      "sweep": {"command": "simulate", "parameter": "model.mode", "values": ["separable", "kron"]}},
     "config error: $.model: 'blocks' is a required property"),
    ({"sweep": {"command": "lchs", "parameter": "lchs.T", "values": [1.0, 2.0]}},
     "config error: $.lchs.A: required for the lchs command"),
    ({"model": {"mode": "separable", "d": 1, "terms": [[1, 0, 0.5]]},
      "window": {"x_T": 0.8, "t_start": 0.6, "t_end": 0.1, "M": 4},
      "sweep": {"command": "carleman", "parameter": "model.d", "values": [1, 2]}},
     "config error: $.model.mode: separable models with d > 1 cannot be lifted"),
], ids=["model_rules", "lchs_inputs", "separable_lift"])
def test_sweep_checks_point_inputs_before_any_point_runs(tmp_path, monkeypatch, capsys, cfg, message):
    def refuse(*args, **kwargs):
        raise AssertionError("a sweep point ran")

    monkeypatch.setattr(cli, "run_scheme", refuse)
    monkeypatch.setattr(cli, "lchs_solve", refuse)
    monkeypatch.setattr(cli, "lift_run", refuse, raising=True)
    code, _ = run(tmp_path, "sweep", cfg)
    assert code == 2
    assert capsys.readouterr().err.startswith(message)


@pytest.mark.parametrize("parameter, values, bad", [
    ("simulate.scheme", ["dpm", "unip", "unic"], 0),
    ("simulate.oracle", [True, True], 0),
    ("window.x_T", [1.0, -0.5], 1),
], ids=["strings", "booleans", "negative"])
def test_slope_sweep_of_non_positive_values_exits_2_before_any_point_runs(
        tmp_path, monkeypatch, capsys, parameter, values, bad):
    def refuse(cfg):
        raise AssertionError("a sweep point ran")

    monkeypatch.setitem(cli._POINT_COMMANDS, "simulate", refuse)
    cfg = {
        "window": {"benchmark": "weak_quadratic", "M": 4},
        "sweep": {"command": "simulate", "parameter": parameter, "values": values, "slope": True},
    }
    code, out = run(tmp_path, "sweep", cfg)
    assert code == 2
    assert sorted(p.name for p in out.iterdir()) == ["resolved_config.json"]
    err = capsys.readouterr().err
    assert err.startswith("config error: $.sweep.slope: swept values must be positive numbers")
    assert err.rstrip().endswith(f"(sweep point {bad}: {parameter} = {json.dumps(values[bad])})")


def test_failing_two_worker_sweep_stops_its_slow_points(tmp_path, capsys):
    # point 0 fails at once (t_end below the schedule floor); each other
    # point integrates its oracle for far longer than the bound below
    cfg = {
        "window": {"benchmark": "weak_quadratic", "M": 4},
        "simulate": {"oracle_substeps": 4_000_000},
        "sweep": {"command": "simulate", "parameter": "window.t_end",
                  "values": [1e-7, 0.05, 0.05], "workers": 2},
    }
    t0 = time.perf_counter()
    code, out = run(tmp_path, "sweep", cfg)
    elapsed = time.perf_counter() - t0
    assert code == 3
    assert elapsed < 5.0
    assert sorted(p.name for p in out.iterdir()) == ["resolved_config.json"]
    assert capsys.readouterr().err.rstrip().endswith("(sweep point 0: window.t_end = 1e-07)")


def test_sweep_points_export_no_matrix(tmp_path, monkeypatch):
    cfg = {
        "window": {"benchmark": "weak_quadratic", "M": 4},
        "carleman": {"N": 2, "export_matrix": True},
        "sweep": {"command": "carleman", "parameter": "carleman.N", "values": [1, 2]},
    }
    code, out = run(tmp_path, "sweep", cfg, out="plain")
    assert code == 0

    def refuse(*args):
        raise AssertionError("a sweep point exported its matrix")

    monkeypatch.setattr(cli, "export_matrix", refuse)
    code, out_patched = run(tmp_path, "sweep", cfg, out="patched")
    assert code == 0
    assert sorted(p.name for p in out_patched.iterdir()) == ["resolved_config.json", "sweep.csv"]
    assert (out_patched / "sweep.csv").read_bytes() == (out / "sweep.csv").read_bytes()


def test_sweep_unknown_parameter_path(tmp_path):
    cfg = {
        "window": {"benchmark": "linear"},
        "sweep": {"command": "simulate", "parameter": "window.steps", "values": [4]},
    }
    code, _ = run(tmp_path, "sweep", cfg)
    assert code == 2


def test_seed_flag_overrides_config(tmp_path):
    cfg = {"readout": {"r": 2, "dim": 64, "trials": 3, "amp_shots": 256}}
    code, out = run(tmp_path, "readout", cfg, extra=("--seed", "17"))
    assert code == 0
    canon = json.loads((out / "resolved_config.json").read_text())
    assert canon["seed"] == 17


def declared_defaults(schema, path="$"):
    for key, prop in schema.get("properties", {}).items():
        if "default" in prop:
            yield f"{path}.{key}", prop
        yield from declared_defaults(prop, f"{path}.{key}")


def test_every_default_validates_against_its_property():
    found = list(declared_defaults(cli._SCHEMA))
    assert len(found) == 38
    for path, prop in found:
        assert jsonschema.Draft202012Validator(prop).is_valid(prop["default"]), path
