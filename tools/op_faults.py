"""Minor page faults and wall time per operation of one benchmark workload, as JSON on stdout.

Usage, from the repository root:

    python3 tools/op_faults.py --workload width_design [--seed 1] [--rounds 3] [--tiny]

The program is imported from src/ of the same checkout, and the workload
from bench/workloads.py, which builds its inputs under a temporary
directory exactly as the benchmark does.  After the workload's own set-up
and warm-up, each operation of --rounds rounds is one fsskit.cli.main()
call in this process, with stdout captured; around each call the process's
minor faults (getrusage ru_minflt) and the wall time are read.  Operations
are grouped by role (primary or aux) and mode, and each group reports its
count, the median and max of the faults and the median and max of the
milliseconds.  A minor fault is a page that the process touches for the
first time since it was mapped, so an operation that frees memory which
the C allocator hands back to the system and then allocates it again
faults it in again.  Every operation's output is checked as the benchmark
checks it; a failed check is reported, not raised.  After the rounds, the
report gives the bytes that the process still holds for the next operation:
the values held per grid (twoport.held_bytes: line phases, jw, .s2p
frequency words and width loop heads, with their grid copies) and the
scratch arrays handed on in twoport._SPARES.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from fsskit import cli, twoport  # noqa: E402


def call(config: Path) -> tuple[int, float, str]:
    """One operation, as the benchmark makes it: main() on a config, stdout captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        t0 = time.perf_counter()
        rc = cli.main(["--config", str(config), "--out-dir", str(config.parent / "out")])
        elapsed = time.perf_counter() - t0
    return rc, elapsed, buf.getvalue()


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def measure(workload: str, seed: int, rounds: int, tiny: bool) -> dict:
    import workloads

    sizes = workloads.TINY if tiny else workloads.FULL
    groups: dict[str, dict[str, list]] = {}
    problems: list[str] = []
    with tempfile.TemporaryDirectory(prefix="op_faults_") as tmp:
        wl = workloads.WORKLOADS[workload](Path(tmp), seed, sizes, call)
        problems += wl.prepare()
        for _ in range(rounds):
            for op in wl.ops():
                mode = json.loads(op.config.read_text(encoding="utf-8"))["mode"]
                before = minor_faults()
                rc, elapsed, stdout = call(op.config)
                faults = minor_faults() - before
                group = groups.setdefault(f"{'primary' if op.primary else 'aux'} {mode}",
                                          {"faults": [], "ms": []})
                group["faults"].append(faults)
                group["ms"].append(1e3 * elapsed)
                summary, found = workloads.parse_summary(rc, stdout)
                problems += found if summary is None else op.check(summary)
    return {
        "workload": workload, "seed": seed, "rounds": rounds, "sizes": "tiny" if tiny else "full",
        "ops": {name: {"count": len(g["faults"]),
                       "faults_p50": statistics.median(g["faults"]), "faults_max": max(g["faults"]),
                       "ms_p50": round(statistics.median(g["ms"]), 3), "ms_max": round(max(g["ms"]), 3)}
                for name, g in groups.items()},
        "held_bytes": {"held": twoport.held_bytes(),
                       "spares": sum(x.nbytes for spares in twoport._SPARES.values() for x in spares)},
        "problems": list(dict.fromkeys(problems))[:20],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("oblique_io", "fit_solve", "width_design"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--tiny", action="store_true", help="the benchmark's tiny inputs, for a smoke test")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    print(json.dumps(measure(args.workload, args.seed, args.rounds, args.tiny), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
