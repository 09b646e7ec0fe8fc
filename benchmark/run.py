"""carlift benchmark: run one workload at one seed and print its metrics.

Usage, from the root of a checkout:

    python3 benchmark/run.py --workload kron_lift --seed 1 --seconds 20 --trace 0
    python3 benchmark/run.py --selftest --workload scalar_presets --seed 1

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  ``--setup-only`` imports, builds and warms up
one workload and exits; the runner times it in child processes for
``setup_s``.  End-to-end times are scaled to a reference host speed by
a calibration kernel timed in the same run (see ``hostspeed.py``); the
raw seconds are printed beside them.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it name every metric with its unit, the
environment, and every failed item.  A full record (environment,
failures, per-item counts and, when traced, every span) is written to
``benchmark/out/``.  See ``benchmark/README.md``.
"""

import os
import time

T_START = time.perf_counter()

# Single-threaded BLAS in this process and in the sweep's workers, which
# inherit the environment; set before numpy is imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

from hostspeed import HostKernel  # noqa: E402
from spans import AllocPassDone, Tracer, median_over_items  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

SETUP_ROUNDS = 3  # set-ups in child processes; setup_s is their median
SETUP_TIMEOUT_S = 60.0
PASS_CAP = 3.0  # start no pass once the timed phase has run this many times --seconds
MEMORY_SHARE = 0.75  # refuse a workload whose estimated peak exceeds this share of MemAvailable

# Bounded end-to-end metrics, printed in the JSON line.  Their times are
# raw seconds times the run's host-speed scale (hostspeed.py), so that a
# run made while other tenants slow the host compares with one made
# while they do not.
END_TO_END = {"wall_norm_s": "s", "item_p50_norm_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
# Printed for people but not bounded: raw seconds follow the host's drift.
RAW_TIMES = {"wall_s": "s", "item_p50_s": "s", "setup_raw_s": "s",
             "host_scale": "x", "setup_host_scale": "x"}

# per-layer metric -> (unit, how, *names), where "how" is one of
#   self      median over items of the span's summed self time
#   per_call  median over items of probe time (span) per probe call (counter)
#   count     median over traced passes of the counter summed over the pass
#   alloc     median over items of the span's tracemalloc peak
#   frac      sum(numerator) / sum(denominator) over all traced items
PER_LAYER = {
    "model.total_derivative_poly.s_per_call": ("s", "per_call", "model.total_derivative_poly",
                                               "model.total_derivative_poly.probe_calls"),
    "model.total_derivative_poly.calls": ("count", "count", "model.total_derivative_poly.calls"),
    "carleman.run_lifted.s": ("s", "self", "carleman.run_lifted"),
    "carleman.run_lifted.peak_alloc_mb": ("MB", "alloc", "carleman.run_lifted"),
    "carleman.lifted_dim": ("count", "count", "carleman.lifted_dim"),
    "carleman.step_nnz": ("count", "count", "carleman.step_nnz"),
    "system.assemble.s": ("s", "self", "system.assemble"),
    "system.assemble.peak_alloc_mb": ("MB", "alloc", "system.assemble"),
    "system.nnz": ("count", "count", "system.nnz"),
    "system.condition_number.s": ("s", "self", "system.condition_number"),
    "system.condition_number.iterations": ("count", "count", "system.condition_number.iterations"),
    "system.condition_number.converged_frac": ("frac", "frac", "system.condition_number.converged",
                                               "system.condition_number.calls"),
    "solve.forward_substitute.s": ("s", "self", "solve.forward_substitute"),
    "solve.gmres_solve.s": ("s", "self", "solve.gmres_solve"),
    "solve.gmres_solve.iterations": ("count", "count", "solve.gmres_solve.iterations"),
    "solve.gmres_solve.converged_frac": ("frac", "frac", "solve.gmres_solve.converged",
                                         "solve.gmres_solve.calls"),
    "solve.lchs_solve.s": ("s", "self", "solve.lchs_solve"),
    "solve.lchs_solve.n_exponentials": ("count", "count", "solve.lchs_solve.n_exponentials"),
    "reference.rk4_oracle.s": ("s", "self", "reference.rk4_oracle"),
    "reference.rk4_oracle.nfe": ("count", "count", "reference.rk4_oracle.nfe"),
    "reference.sampler.s": ("s", "self", "reference.sampler"),
    "reference.sampler.nfe": ("count", "count", "reference.sampler.nfe"),
    "diagnostics.order_sweep.s": ("s", "self", "diagnostics.order_sweep"),
    "diagnostics.truncation_sweep.s": ("s", "self", "diagnostics.truncation_sweep"),
    "diagnostics.spectrum.s": ("s", "self", "diagnostics.spectrum"),
    "readout.recover_sparse.s": ("s", "self", "readout.recover_sparse"),
    "readout.success_frac": ("frac", "frac", "readout.successes", "readout.trials"),
    "cli.main.s": ("s", "self", "cli.main"),
    "cli.points": ("count", "count", "cli.points"),
}
# counters the self-test requires to repeat exactly at equal seeds
EXACT_COUNTS = (
    "carleman.lifted_dim", "carleman.step_nnz", "system.nnz",
    "system.condition_number.iterations", "solve.gmres_solve.iterations",
    "reference.rk4_oracle.nfe", "reference.sampler.nfe", "solve.lchs_solve.n_exponentials",
    "readout.trials", "cli.points", "cli.sweep_csv_sha256_prefix",
)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", help="kron_lift, kron_sweep_kappa, scalar_presets or cli_sweep")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0,
                   help="target length of the timed phase; sets the number of passes")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true",
                   help="check the exact-count guard and the memory pre-flight")
    p.add_argument("--setup-only", action="store_true",
                   help="import, build and warm up the workload, then exit (times setup_s)")
    args = p.parse_args(argv)
    if not args.selftest and args.workload is None:
        p.error("--workload is required")
    return args


def import_program():
    """Put the checkout's src/ first on sys.path and import the workloads."""
    if not os.path.isfile(os.path.join(SRC, "carlift", "__init__.py")):
        print(f"benchmark: no carlift sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import workloads  # noqa: F401  (imports numpy, scipy and every carlift module)

    return workloads


# --- environment -----------------------------------------------------------


def mem_available_bytes() -> int:
    avail = None
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    avail = int(line.split()[1]) * 1024
    except OSError:
        pass
    try:
        with open("/sys/fs/cgroup/memory.max") as fh:
            limit = fh.read().strip()
        with open("/sys/fs/cgroup/memory.current") as fh:
            used = int(fh.read().strip())
        if limit != "max":
            room = int(limit) - used
            avail = room if avail is None else min(avail, room)
    except (OSError, ValueError):
        pass
    return avail if avail is not None else 0


def environment() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "mem_available_mb": round(mem_available_bytes() / 2**20),
    }


# --- running ------------------------------------------------------------------


@dataclass
class Result:
    workload: str
    seed: int
    trace: bool
    tracer: Tracer
    attempted: int = 0
    failures: list = field(default_factory=list)  # (pass, item, kind, message)
    pass_walls: dict = field(default_factory=lambda: {True: [], False: []})  # by traced
    item_times: dict = field(default_factory=dict)  # item name -> times, untraced passes only
    setup: dict = field(default_factory=dict)
    kernel: HostKernel | None = None  # calibration kernel, end-to-end runs only
    refused: bool = False

    @property
    def correct(self) -> bool:
        return not self.refused and all(f[2] == "not_converged" for f in self.failures)


def run_workload(workloads, name: str, seed: int, seconds: float, trace: bool,
                 import_s: float, passes: int | None = None) -> Result:
    """Pre-flight, set up and run one workload; outputs go under a per-process dir."""
    work_dir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    wl = workloads.WORKLOADS[name](seed, work_dir)
    res = Result(workload=name, seed=seed, trace=trace, tracer=Tracer())
    res.setup["import_s"] = import_s
    try:
        need, avail = wl.estimate_bytes(), mem_available_bytes()
        res.setup["estimated_peak_mb"] = round(need / 2**20)
        if need > MEMORY_SHARE * avail:
            res.refused = True
            res.attempted = len(wl.build())
            res.failures = [(0, "*", "refused", f"estimated peak {need / 2**20:.0f} MB exceeds "
                             f"{MEMORY_SHARE:.0%} of available {avail / 2**20:.0f} MB")]
        else:
            if not trace and passes is None:
                res.kernel = HostKernel()
                res.kernel.burst(at_least=5)
                res.kernel.samples.clear()  # first calls pay for page faults and caches
                time_setups(res, name, seed)
            measure(workloads, wl, res, seconds,
                    passes or max(2 if trace else 1, round(seconds / wl.nominal_pass_s)))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return res


def time_setups(res: Result, name: str, seed: int) -> None:
    """Time SETUP_ROUNDS whole set-ups, each in a fresh child process.

    A set-up runs from process start through the imports, building the
    seeded inputs and one warm-up item.  The children run one at a time
    and each is waited for; setup_s is the median of their wall times.
    """
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", name, "--seed", str(seed)]
    rounds = []
    for _ in range(SETUP_ROUNDS):
        res.kernel.burst(at_least=5)
        t0 = time.perf_counter()
        done = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=SETUP_TIMEOUT_S, check=False)
        rounds.append(time.perf_counter() - t0)
        if done.returncode != 0:
            raise RuntimeError(f"set-up child exited {done.returncode}: "
                               f"{done.stderr.decode(errors='replace')[-500:]}")
    res.kernel.burst(at_least=5)
    res.setup.update(rounds_s=rounds, setup_s=statistics.median(rounds),
                     kernel_samples_in_setup=len(res.kernel.samples))


def setup_only(workloads, name: str, seed: int) -> int:
    """The body of one timed set-up: build the inputs and run the warm-up."""
    work_dir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    wl = workloads.WORKLOADS[name](seed, work_dir)
    try:
        wl.build()
        wl.warmup(Tracer())
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return 0


def measure(workloads, wl, res: Result, seconds: float, passes: int) -> None:
    tracer = res.tracer
    t0 = time.perf_counter()
    items = wl.build()
    wl.warmup(tracer)
    res.setup["in_process_s"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    wl.prepare()
    res.setup["prepare_s"] = time.perf_counter() - t0
    tracer.counts.clear()

    alloc_items = []
    t_timed = time.perf_counter()
    for p in range(passes):
        if p and time.perf_counter() - t_timed > PASS_CAP * seconds:
            res.setup["passes_cut_at"] = p  # a very slow host; keeps the run inside its limit
            break
        traced = res.trace and p % 2 == 0  # traced passes alternate with untraced ones
        tracer.enabled = traced
        restore = workloads.count_total_derivative_calls(tracer) if traced else None
        probe_before = workloads.probe_seconds(tracer)
        t_pass = time.perf_counter()
        for item in items:
            tracer.alloc_seen = False
            res.attempted += 1
            t0 = time.perf_counter()
            run_item(workloads, tracer, item, res.failures, p)
            if not traced:
                took = time.perf_counter() - t0
                res.item_times.setdefault(item.name, []).append(took)
                if res.kernel:
                    res.kernel.burst(share_of=took)
            elif p == 0 and tracer.alloc_seen:
                alloc_items.append(item)
        wall = time.perf_counter() - t_pass
        res.pass_walls[traced].append(wall - (workloads.probe_seconds(tracer) - probe_before))
        tracer.enabled = False
        if restore:
            restore()
    # an untimed last pass takes allocation peaks, see spans.py
    tracer.alloc = True
    for item in alloc_items:
        run_item(workloads, tracer, item, [], passes)
    tracer.alloc = False


def run_item(workloads, tracer: Tracer, item, failures: list, p: int) -> None:
    """Run one item under a fresh item id, recording any failure."""
    tracer.item += 1
    tracer.item_pass[tracer.item] = p
    try:
        item.run(tracer)
    except AllocPassDone:
        pass
    except workloads.ItemFailure as exc:
        failures.append((p, item.name, exc.kind, str(exc)))
    except Exception as exc:  # any other error fails the item, not the run
        failures.append((p, item.name, "raised", f"{type(exc).__name__}: {exc}"))


def peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(res: Result) -> dict:
    """End-to-end metrics; wall_s sums item times, leaving out kernel bursts.

    item_p50_s is the median over the pass's items of each item's median
    time over the passes.  The median of all item times pooled would sit
    in the gap between item kinds of very different length (kron_lift's
    A and B), where it jumps with the slowest A and the fastest B.
    """
    wall = sum(t for times in res.item_times.values() for t in times)
    typical = [statistics.median(times) for times in res.item_times.values()]
    item_p50 = statistics.median(typical) if typical else 0.0
    setup = res.setup.get("setup_s", 0.0)
    scale = setup_scale = 1.0
    if res.kernel:
        n_setup = res.setup["kernel_samples_in_setup"]
        setup_scale, scale = res.kernel.scale(0, n_setup), res.kernel.scale(n_setup)
    return {
        "wall_norm_s": wall * scale,
        "item_p50_norm_s": item_p50 * scale,
        "peak_rss_mb": peak_rss_mb(resource.RUSAGE_SELF),
        "setup_s": setup * setup_scale,
        "wall_s": wall,
        "item_p50_s": item_p50,
        "setup_raw_s": setup,
        "host_scale": scale,
        "setup_host_scale": setup_scale,
    }


def per_layer(res: Result) -> dict:
    tr = res.tracer
    traced_items = {sp.item for sp in tr.spans}
    counts = {i: c for i, c in tr.counts.items() if i in traced_items}
    self_times = tr.self_times()
    out = {}
    for metric, (unit, how, *names) in PER_LAYER.items():
        if how == "self":
            value = median_over_items(self_times, names[0])
        elif how == "alloc":
            value = median_over_items(tr.allocs, names[0])
        elif how == "count":
            per_pass = {}
            for i, c in counts.items():
                per_pass[tr.item_pass[i]] = per_pass.get(tr.item_pass[i], 0) + c.get(names[0], 0)
            value = statistics.median(per_pass.values()) if per_pass else 0.0
        elif how == "per_call":
            per_call = {i: {"x": t[names[0]] / counts[i][names[1]]} for i, t in self_times.items()
                        if names[0] in t and counts.get(i, {}).get(names[1])}
            value = median_over_items(per_call, "x")
        else:
            num = sum(c.get(names[0], 0) for c in counts.values())
            den = sum(c.get(names[1], 0) for c in counts.values())
            value = num / den if den else 0.0
        out[metric] = (float(value), unit)
    out["cli.children_peak_rss_mb"] = (peak_rss_mb(resource.RUSAGE_CHILDREN), "MB")
    traced, untraced = res.pass_walls[True], res.pass_walls[False]
    overhead = statistics.median(traced) - statistics.median(untraced) if traced and untraced else 0.0
    out["trace.overhead_s"] = (overhead, "s")
    return out


def write_record(res: Result, env: dict, metrics: dict) -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{res.workload}-seed{res.seed}-trace{int(res.trace)}.json")
    record = {
        "workload": res.workload, "seed": res.seed, "trace": res.trace, "env": env,
        "setup": res.setup, "pass_walls_untraced": res.pass_walls[False],
        "pass_walls_traced": res.pass_walls[True], "item_times": res.item_times,
        "failures": res.failures, "metrics": metrics,
        "kernel_s": res.kernel.samples if res.kernel else [],
        "counts": {str(i): c for i, c in res.tracer.counts.items()},
    }
    if res.trace:
        record["spans"] = res.tracer.span_records()
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    return path


def selftest(workloads, names, seed: int, import_s: float) -> int:
    """Exact-count guard and memory pre-flight, without timing anything."""
    bad = 0
    huge = workloads.lift_bytes(4, 8, 1)
    refused = huge > MEMORY_SHARE * mem_available_bytes()
    print(f"pre-flight: d=4 N=8 estimated {huge / 2**30:.1f} GiB, refused={refused}")
    bad += not refused
    for name in names:
        runs = [run_workload(workloads, name, seed, 0.0, True, import_s, passes=1) for _ in range(2)]
        sigs = [{(i, k): v for i, c in r.tracer.counts.items() for k, v in c.items() if k in EXACT_COUNTS}
                for r in runs]
        diff = sorted(k for k in set(sigs[0]) | set(sigs[1]) if sigs[0].get(k) != sigs[1].get(k))
        status = "ok" if not diff and sigs[0] else "FAILED"
        bad += status != "ok"
        print(f"exact counts {name} seed {seed}: {len(sigs[0])} values, {status}"
              + (f", differ at {diff[:5]}" if diff else ""))
    return 1 if bad else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads = import_program()
    import_s = time.perf_counter() - T_START
    if args.setup_only:
        return setup_only(workloads, args.workload, args.seed)
    if args.selftest:
        names = [args.workload] if args.workload else list(workloads.WORKLOADS)
        return selftest(workloads, names, args.seed, import_s)
    if args.workload not in workloads.WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    env = environment()
    res = run_workload(workloads, args.workload, args.seed, args.seconds, bool(args.trace), import_s)
    e2e = end_to_end(res)
    fail_frac = len(res.failures) / res.attempted if res.attempted else 1.0
    print("env: " + json.dumps(env, sort_keys=True))
    print(f"workload {res.workload} seed {res.seed} trace {int(res.trace)}: {res.attempted} items, "
          f"{len(res.pass_walls[False]) + len(res.pass_walls[True])} passes")
    for fail in res.failures:
        print("failed: pass {} item {}: {}: {}".format(*fail))
    if args.trace:
        layer = per_layer(res)
        for name, (value, unit) in layer.items():
            print(f"{name} {value:.6g} {unit}")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
    else:
        for name, unit in {**END_TO_END, **RAW_TIMES}.items():
            print(f"{name} {e2e[name]:.6g} {unit}")
        print(f"fail_frac {fail_frac:.6g} frac ({len(res.failures)}/{res.attempted})")
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}
    path = write_record(res, env, metrics)
    print(f"record: {os.path.relpath(path, ROOT)}")
    print(json.dumps({"correct": res.correct, "attempted": res.attempted,
                      "failed": len(res.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
