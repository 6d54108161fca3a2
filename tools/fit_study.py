"""How fit_circuit fares over many starts and boxes, as JSON on stdout.

Usage, from the repository root:

    python3 tools/fit_study.py starts [--seed 7]
    python3 tools/fit_study.py boxes [--seed 11] [--count 200] [--holding]

The program is imported from src/ of the same checkout.

starts: the fit_solve benchmark's fits (bench/workloads.py, FULL sizes) run
in process through fsskit.cli.main: per fit the model calls, iterations
and the largest relative error of L, L1 and C1 against the truth, and the
histogram of model calls.

boxes: fits of L, L1 and C1 to the criterion-8 curve (401 points, 1-5 GHz)
in random boxes, each with a start drawn uniformly inside.  Per value, lo is
the truth times U(0.25, 1.6) and hi is lo times U(1.05, 5), so most boxes
exclude the truth; with --holding, lo is the truth times U(0.25, 1) and hi
the truth times U(1, 4).  Counts the fits that reach MAX_ITERATIONS, that
stall at a bound, and that converge, split by whether the box holds the
truth.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import io
import json
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from fsskit import cli, synthesis  # noqa: E402
from fsskit.analysis import FrequencyGrid, sweep_response  # noqa: E402
from fsskit.builder import CircuitParams, build_second_order  # noqa: E402
from fsskit.twoport import NORMAL  # noqa: E402

NAMES = ("L", "L1", "C1")
TRUTH = CircuitParams(L=2.85e-9, L1=1.61e-9, C1=0.6e-12, R=0.1, R1=0.1, h=0.254e-3, eps_r=2.2, order=2, h1=10e-3)


def starts(seed: int) -> dict:
    import workloads

    results = []
    fit_circuit = cli.fit_circuit

    def recording(problem):
        result = fit_circuit(problem)
        results.append(result)
        return result

    def call(config: Path):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            t0 = time.perf_counter()
            rc = cli.main(["--config", str(config), "--out-dir", str(config.parent / "out")])
        return rc, time.perf_counter() - t0, out.getvalue()

    with tempfile.TemporaryDirectory() as tmp:
        workload = workloads.FitSolve(Path(tmp), seed, workloads.FULL, call)
        problems = workload.prepare()
        results.clear()  # the warm-up fit
        errors = []
        cli.fit_circuit = recording
        try:
            for op in workload.ops():
                if op.primary:
                    rc, _, stdout = call(op.config)
                    summary, found = workloads.parse_summary(rc, stdout)
                    problems += found or op.check(summary)
                    fitted, truth = summary["fitted"], workload.truth
                    errors.append(max(abs(fitted[n] / truth[n] - 1.0) for n in workload.FREE))
        finally:
            cli.fit_circuit = fit_circuit
    calls = [r.model_calls for r in results]
    return {
        "study": "starts", "seed": seed, "fits": len(results), "problems": problems,
        "model_calls_mean": float(np.mean(calls)),
        "model_calls_histogram": dict(sorted(collections.Counter(calls).items())),
        "iterations_mean": float(np.mean([r.iterations for r in results])),
        "rejected_steps_mean": float(np.mean([r.rejected_steps for r in results])),
        "worst_relative_error": max(errors),
    }


def boxes(seed: int, count: int, holding: bool) -> dict:
    rng = np.random.default_rng(seed)
    observed = sweep_response(build_second_order(TRUTH), FrequencyGrid(1e9, 5e9, 401), NORMAL)
    tally = collections.Counter()
    for _ in range(count):
        bounds, start = {}, {}
        for name in NAMES:
            truth = getattr(TRUTH, name)
            if holding:
                lo, hi = truth * rng.uniform(0.25, 1.0), truth * rng.uniform(1.0, 4.0)
            else:
                lo = truth * rng.uniform(0.25, 1.6)
                hi = lo * rng.uniform(1.05, 5.0)
            bounds[name], start[name] = (lo, hi), lo + rng.uniform() * (hi - lo)
        holds = all(lo <= getattr(TRUTH, n) <= hi for n, (lo, hi) in bounds.items())
        problem = synthesis.FitProblem(observed=observed, base=TRUTH, free=NAMES, initial=start, bounds=bounds)
        result = synthesis.fit_circuit(problem)
        if result.iterations == synthesis.MAX_ITERATIONS:
            end = "cap"
        elif result.message.startswith("stalled at bound"):
            end = "stalled"
        else:
            end = "converged" if result.converged else "other"
        tally["holding" if holds else "excluding", end] += 1
    return {
        "study": "boxes", "seed": seed, "count": count, "holding": holding,
        "cap": sum(v for (_, end), v in tally.items() if end == "cap"),
        "stalled": sum(v for (_, end), v in tally.items() if end == "stalled"),
        "by_box": {f"{box} truth, {end}": v for (box, end), v in sorted(tally.items())},
    }


def main(argv: list[str]) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("study", choices=("starts", "boxes"))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--count", type=int, default=200)
    parser.add_argument("--holding", action="store_true")
    args = parser.parse_args(argv)
    if args.study == "starts":
        print(json.dumps(starts(7 if args.seed is None else args.seed)))
    else:
        print(json.dumps(boxes(11 if args.seed is None else args.seed, args.count, args.holding)))


if __name__ == "__main__":
    main(sys.argv[1:])
