"""fsskit benchmark: closed-loop CLI workloads with per-module traced timing.

Usage, from the repository root:

    python3 bench/run.py --workload oblique_io --seed 1 --seconds 20 --trace 0

One client thread issues `fsskit.cli.main([...])` calls in-process, each
when the previous one returns (a closed loop, as in a designer's scripted
session).  Inputs are generated from --seed under .bench_work/ before timing
starts.  A run measures whole rounds (see workloads.py) until --seconds
have passed and at least 100 primary operations have completed, so the
p90 latency has ten samples beyond it; the rounds are sized so that 100
primary operations take about 15-60 s on a 2-CPU machine.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, untraced.
--trace 1 alternates untraced and traced rounds and reports the per-layer
metrics, per primary operation, from the traced rounds; the untraced
rounds give the tracing overhead.

The last line of stdout is the result: {"correct", "attempted", "failed",
"metrics"}.  The line before it is the full run record (fail_ratio, counts,
absent metrics with reasons, machine and version notes), which is also
written to .bench_work/records/.  The program is imported from src/ of the
same checkout; without it the benchmark exits with a non-zero code and
prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

T_START = time.perf_counter()  # before numpy and fsskit are imported

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
SETUP_ROUNDS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_ms.p50": "ms",
    "run_ms.p90": "ms",
    "ops_per_s": "1/s",
    "aux_ms.p50": "ms",
    "aux_ms.p90": "ms",
    "peak_rss_mb": "MB",
}


def import_program():
    """Import numpy and fsskit from this checkout's src/; exit non-zero if that fails."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import numpy  # noqa: F401
        import fsskit.cli as cli
    except ImportError as exc:
        sys.exit(f"bench: cannot import fsskit from {src}: {exc}")
    if Path(cli.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"bench: fsskit was imported from {cli.__file__}, not from {src}")
    return cli


def make_call(cli):
    def call(config: Path):
        """One closed-loop operation: main() on a config, stdout captured."""
        argv = ["--config", str(config), "--out-dir", str(config.parent / "out")]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            t0 = time.perf_counter()
            rc = cli.main(argv)
            elapsed = time.perf_counter() - t0
        return rc, elapsed, buf.getvalue()

    return call


def percentile(xs, q):
    import numpy as np

    return float(np.percentile(xs, q)) if xs else 0.0


class SpeedGauge:
    """Machine-speed calibration with a fixed kernel that calls nothing from fsskit.

    On a shared machine the median of one and the same operation moved by up
    to +-30 % between processes minutes apart, and its CPU time moved with
    it, so the machine itself ran faster or slower.  The kernel (complex
    numpy math on large and small arrays, float formatting and a Python
    loop, like the workloads) is timed, best of CAL_REPEAT, before each
    primary operation and once after the last round.  A slot is a primary
    operation with the aux operations after it; its operations are reported
    at the speed where the kernel takes CAL_REF_MS, using the slower of the
    two kernel timings that bracket the slot:
    scaled = wall * CAL_REF_MS / max(kernel before, kernel after).
    A burst of load during a slot shows in at least one of them far more
    often than not.  Raw wall-clock figures stay in the run record.
    """

    CAL_REF_MS = 5.0
    CAL_REPEAT = 3

    def __init__(self):
        import numpy as np

        self._np = np
        self._x = np.linspace(1.0, 2.0, 4001)
        self.samples: list[float] = []
        self._kernel()  # the first call pays one-time costs

    def sample(self) -> int:
        """Time the kernel; returns the index of the sample."""
        self.samples.append(min(self._kernel() for _ in range(self.CAL_REPEAT)))
        return len(self.samples) - 1

    def scale(self, before: int, after: int) -> float:
        """Scale factor for work done between two samples."""
        return self.CAL_REF_MS / (1e3 * max(self.samples[before], self.samples[after]))

    def _kernel(self) -> float:
        np, x = self._np, self._x
        t0 = time.perf_counter()
        for _ in range(5):
            np.abs(np.cosh(x * (0.01 + 1j)) * np.sinh(x) / (x + 1j))
        small = x[:401]
        for _ in range(60):
            np.abs(np.cosh(small * (0.01 + 1j)) * np.sinh(small) / (small + 1j))
        ",".join(f"{v:.12g}" for v in x[:1500])
        acc = 0
        for i in range(20000):
            acc += i * i
        return time.perf_counter() - t0


def measure(wl, call, seconds, min_ops, tracer, gauge):
    """Run whole rounds; returns scaled and raw latencies by (traced, primary) and counts."""
    from workloads import parse_summary

    lat = {(t, p): [] for t in (False, True) for p in (False, True)}
    raw = {key: [] for key in lat}
    series = []  # (kernel sample before the slot, primary, traced, seconds)
    st = {"attempted": 0, "failed": 0, "problems": [], "fit_iterations": 0,
          "artifact_bytes": 0, "rounds": 0, "series": series}
    t0 = time.perf_counter()
    op_id = 0
    while True:
        traced = tracer is not None and st["rounds"] % 2 == 1
        for op in wl.ops():
            if op.primary:
                slot = gauge.sample()
            ctx = tracer.op(op_id) if traced else contextlib.nullcontext()
            with ctx:
                rc, elapsed, stdout = call(op.config)
            op_id += 1
            st["attempted"] += 1
            raw[traced, op.primary].append(elapsed)
            series.append((slot, op.primary, traced, elapsed))
            summary, problems = parse_summary(rc, stdout)
            if summary is not None:
                problems = op.check(summary)
                if traced:
                    st["fit_iterations"] += summary.get("iterations", 0)
                    st["artifact_bytes"] += sum(os.path.getsize(p) for p in summary["artifacts"])
            if problems:
                st["failed"] += 1
                st["problems"] += problems[: 3]
        st["rounds"] += 1
        if (time.perf_counter() - t0 >= seconds
                and len(raw[False, True]) + len(raw[True, True]) >= min_ops
                and (tracer is None or st["rounds"] % 2 == 0)):
            break
    st["wall_s"] = time.perf_counter() - t0
    gauge.sample()  # closes the last slot
    for slot, primary, traced, elapsed in series:
        lat[traced, primary].append(elapsed * gauge.scale(slot, slot + 1))
    return lat, raw, st


def end_to_end(lat, setup_s):
    run_ms = [1e3 * x for x in lat[False, True]]
    aux_ms = [1e3 * x for x in lat[False, False]]
    busy_s = sum(lat[False, True]) + sum(lat[False, False])
    return {
        "setup_s": setup_s,
        "run_ms.p50": percentile(run_ms, 50),
        "run_ms.p90": percentile(run_ms, 90),
        "ops_per_s": len(run_ms) / busy_s,
        "aux_ms.p50": percentile(aux_ms, 50),
        "aux_ms.p90": percentile(aux_ms, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer, lat, st, import_s, free_params):
    """Per primary op metrics from the traced rounds: {name: (value|None, unit, reason)}."""
    agg = tracer.aggregate()
    cnt = tracer.counters
    n = len(lat[True, True])
    out = {}

    def add(name, unit, value, deps=(), reason=""):
        missing = [tracer.absent[d] for d in deps if d in tracer.absent]
        out[name] = (None, unit, "; ".join(missing)) if missing else (
            (value, unit, "") if value is not None else (None, unit, reason))

    def span(prefix, stat, unit):
        add(f"{prefix}.{stat}", unit, agg[prefix][stat] / n, [prefix])

    for prefix, stats in (
        ("twoport.abcd_tline", ("calls", "self_ms")),
        ("twoport.admittance", ("self_ms",)),
        ("twoport.abcd_shunt", ("self_ms",)),
        ("twoport.matmul", ("calls", "self_ms")),
        ("twoport.abcd_to_s", ("self_ms",)),
    ):
        for stat in stats:
            span(prefix, stat, "count" if stat == "calls" else "ms")
    add("twoport.points", "count", cnt["points"] / n, ["twoport.abcd_to_s"])

    span("builder.build_network", "calls", "count")
    span("builder.build_network", "self_ms", "ms")
    span("builder.network_abcd", "self_ms", "ms")
    elements = agg["builder.element_abcd"]["calls"]
    add("builder.element_evals", "count", elements / n, ["builder.element_abcd"])
    add("builder.distinct_element_ratio", "ratio",
        cnt["distinct_elements"] / elements if elements else None,
        ["builder.element_abcd", "builder.network_abcd"], "no element evaluations")

    for prefix, stats in (
        ("analysis.sweep_response", ("calls", "self_ms")),
        ("analysis.network_smatrix", ("calls", "self_ms")),
        ("analysis.response_curve", ("self_ms",)),
        ("analysis.extract_metrics", ("calls", "self_ms")),
    ):
        for stat in stats:
            span(prefix, stat, "count" if stat == "calls" else "ms")

    fit_deps = ["synthesis.fit_circuit", "analysis.network_smatrix"]
    span("synthesis.fit_circuit", "self_ms", "ms")
    add("synthesis.fit.model_evals", "count", cnt["fit_evals"] / n, fit_deps)
    add("synthesis.fit.iterations", "count", st["fit_iterations"] / n)
    # evals = 1 initial + 2k per Jacobian + the trial steps; accepted steps = iterations
    trials = cnt["fit_evals"] - agg["synthesis.fit_circuit"]["calls"] \
        - 2 * free_params * st["fit_iterations"]
    add("synthesis.fit.step_accept_ratio", "ratio",
        st["fit_iterations"] / trials if trials > 0 else None, fit_deps,
        "no fit steps in this workload")
    span("synthesis.width_for_bandwidth", "self_ms", "ms")
    add("synthesis.width.model_evals", "count", cnt["width_evals"] / n,
        ["synthesis.width_for_bandwidth", "analysis.sweep_response"])

    for kind, counter in (("write", "write_bytes"), ("read", "read_bytes")):
        prefix = f"touchstone.{kind}"
        span(prefix, "calls", "count")
        span(prefix, "self_ms", "ms")
        add(f"{prefix}.bytes", "B", cnt[counter] / n, [prefix])
        total_s = agg[prefix]["total_ms"] / 1e3
        add(f"{prefix}.mb_per_s", "MB/s", cnt[counter] / 1e6 / total_s if total_s else None,
            [prefix], f"no Touchstone {kind}s in this workload")

    for prefix in ("cli.main", "cli.parse_config", "cli.run"):
        span(prefix, "self_ms", "ms")
    add("cli.artifact_bytes", "B", st["artifact_bytes"] / n)
    add("cli.import_ms", "ms", 1e3 * import_s)

    untraced = percentile(lat[False, True], 50)
    add("trace.overhead_ratio", "ratio", percentile(lat[True, True], 50) / untraced)
    return out


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + name):
            return line.split()[0]
    return f"unknown ({name})"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs and one primary op minimum, for the self-test")
    args = parser.parse_args(argv)

    cli = import_program()
    import_s = time.perf_counter() - T_START
    import numpy as np

    from tracer import Tracer
    from workloads import FULL, TINY, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    sizes = TINY if args.tiny else FULL
    call = make_call(cli)
    work = WORKLOADS[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir = WORK / f"{tag}-{os.getpid()}"
    gauge = SpeedGauge()
    try:
        setup_times, setup_scaled, setup_problems = [], [], []
        before = gauge.sample()
        import_scaled = import_s * gauge.scale(before, before)
        for k in range(SETUP_ROUNDS):
            t0 = time.perf_counter()
            wl = work(run_dir / f"setup{k}", args.seed, sizes, call)
            setup_problems += wl.prepare()
            setup_times.append(time.perf_counter() - t0)
            after = gauge.sample()
            setup_scaled.append(setup_times[-1] * gauge.scale(before, after))
            before = after
        setup_raw_s = import_s + float(np.median(setup_times))
        setup_s = import_scaled + float(np.median(setup_scaled))

        tracer = Tracer() if args.trace else None
        if tracer is not None:
            tracer.install()
        try:
            lat, raw, st = measure(wl, call, args.seconds, sizes.min_primary_ops, tracer, gauge)
        finally:
            if tracer is not None:
                tracer.restore()
        final_problems = wl.final_check()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    # the set-up and final reference checks count as two checked operations
    st["attempted"] += 2
    st["failed"] += bool(setup_problems) + bool(final_problems)
    problems = list(dict.fromkeys(setup_problems + final_problems + st["problems"]))
    if args.trace:
        layer = per_layer(tracer, lat, st, import_s, len(getattr(wl, "FREE", ())))
        metrics = {k: {"value": v if v is not None else 0.0, "unit": u}
                   for k, (v, u, _) in layer.items()}
        absent = {k: why for k, (v, _, why) in layer.items() if v is None}
        (WORK / "spans").mkdir(parents=True, exist_ok=True)
        tracer.save(WORK / "spans" / f"{args.workload}.npz")
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in end_to_end(lat, setup_s).items()}
        absent = {}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "load": "closed loop, one client thread, in-process fsskit.cli.main() calls",
        "input_sizes": wl.input_sizes(),
        "rounds": st["rounds"],
        "wall_s": st["wall_s"],
        "primary_ops": {"untraced": len(lat[False, True]), "traced": len(lat[True, True])},
        "aux_ops": {"untraced": len(lat[False, False]), "traced": len(lat[True, False])},
        "fail_ratio": st["failed"] / st["attempted"],
        "problems": problems[:20],
        "setup_rounds_s": setup_times,
        "import_s": import_s,
        "raw_wall_clock": end_to_end(raw, setup_raw_s),
        "speed_kernel_ms": {"ref": SpeedGauge.CAL_REF_MS,
                            "p50": 1e3 * percentile(gauge.samples, 50),
                            "min": 1e3 * min(gauge.samples), "max": 1e3 * max(gauge.samples)},
        "metrics": metrics,
        "absent": absent,
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine_note": "shared machine; CPU pinning and frequency control are off-limits, "
                        "so run-to-run spread includes other tenants' load",
    }
    (WORK / "records").mkdir(parents=True, exist_ok=True)
    (WORK / "records" / f"{tag}.json").write_text(json.dumps(
        record | {"series": st["series"], "kernel_s": gauge.samples}, indent=1))
    print(json.dumps(record))
    print(json.dumps({
        "correct": not problems,
        "attempted": st["attempted"],
        "failed": st["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
