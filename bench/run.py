"""odowin benchmark: one command, two workloads, exact output checks.

    python3 bench/run.py --workload carry-oracle --seed 1 --seconds 52 --trace 0

Run from the root of a source checkout; the package is imported from ``src/``.
A run sets up the workload from its seed, repeats whole passes for about
``--seconds`` (a pass starts while it would end, on a mean pass, at most half a
pass past it), checks every pass's outputs, and prints one JSON
object as its last line: ``correct``, ``attempted``, ``failed`` and the
metrics.  With ``--trace 0`` the metrics are the end-to-end ones (mean pass
time ``run_s``, median set-up time ``setup_s``, ``peak_rss_mb``); with
``--trace 1`` an untraced, a traced and another untraced pass run and the
metrics are the per-layer self times and counts of the traced pass plus the
tracing overhead.  ``--workload all`` runs every workload in its own process,
one after another.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# One thread per workload process: no BLAS or OpenMP worker pools.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("carry-oracle", "window-pipeline")
# Fresh-process set-ups per run, spread over the run so that they sample more
# than one phase of the host; setup_s is the median with the run's own set-up.
SETUP_PROBES = 12
PROBES_FIRST = 2


def _import_program():
    src = ROOT / "src"
    if not (src / "odowin" / "__init__.py").is_file():
        sys.exit(f"bench: no odowin sources under {src}; run from a source checkout")
    sys.path[:0] = [str(src), str(BENCH)]
    import numpy  # noqa: F401
    import odowin

    if Path(odowin.__file__).resolve().parent != (src / "odowin").resolve():
        sys.exit(f"bench: imported odowin from {odowin.__file__}, not from {src}")


def _setup(workload: str, seed: int):
    """Import numpy and odowin and generate the workload's inputs; return (workload, seconds)."""
    _import_program()
    import workloads

    wl = workloads.WORKLOADS[workload](seed)
    return wl, time.perf_counter() - _T0


def _probe_setups(workload: str, seed: int, count: int) -> list[float]:
    """Set-up time of fresh processes running only the set-up, one at a time."""
    out = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed_pass(wl, workdir: Path):
    gc.collect()
    start = time.perf_counter()
    ops, output = wl.run_pass(workdir)
    return time.perf_counter() - start, ops, output


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    wl, own_setup = _setup(workload, seed)
    import reference
    from tracing import TIME_METRICS, Tracer

    problems = [f"reference self-test: {msg}" for msg in reference.self_test()]
    setups = [own_setup] + _probe_setups(workload, seed, PROBES_FIRST)

    rundir = OUT / f"{workload}-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    times, ops, outputs = [], [], []
    started = time.perf_counter()
    # Whole passes only: another starts while it would end, on a mean pass, at
    # most half a pass past the time budget, so that long passes do not leave
    # most of a pass of the budget unmeasured.
    while not times or (
        not trace and time.perf_counter() - started + statistics.mean(times) / 2 <= seconds
    ):
        t, pass_ops, output = _timed_pass(wl, rundir / f"pass-{len(times)}")
        if not times:
            # A second pass in the same process peaks higher (freed arrays leave
            # a grown heap behind), so the peak is read after the first pass.
            peak = _peak_rss_mb()
        times.append(t)
        ops += pass_ops
        outputs.append(output)
        if len(setups) <= SETUP_PROBES:
            setups += _probe_setups(workload, seed, 1)
    setups += _probe_setups(workload, seed, SETUP_PROBES + 1 - len(setups))

    if trace:
        # Traced pass, then an untraced one to compare it with: both run after
        # the first pass, which pays one-off costs such as fresh heap pages.
        tracer = Tracer()
        workdir = rundir / "traced"
        with tracer:
            t_traced, pass_ops, output = _timed_pass(wl, workdir)
        t_after, after_ops, after_output = _timed_pass(wl, rundir / "after-trace")
        ops += pass_ops + after_ops
        outputs += [output, after_output]
        tracer.write(OUT / f"spans-{workload}-seed{seed}.json")

    problems += wl.check(outputs)
    failed = [op for op in ops if not op.ok]
    problems += [f"{op.label}: {op.detail}" for op in failed if not op.known_fault]

    if trace:
        metrics = tracer.metrics()
        # Artifacts the CLI wrote: everything but the inputs the benchmark wrote.
        metrics["cli.bytes_written"] = sum(
            f.stat().st_size for f in workdir.glob("*/*")
            if f.suffix != ".cfg" and f.parent.name != "malformed"
        )
        metrics["trace.overhead_s"] = t_traced - t_after
        units = {name: "s" for name in TIME_METRICS}
        units["trace.overhead_s"] = "s"
        units["expansion.carries_per_state"] = "ratio"
        shown = {
            name: {"value": value, "unit": units.get(name, "count")}
            for name, value in metrics.items()
        }
    else:
        shown = {
            # The mean, not the median: pass times gather around a fast and a
            # slow speed of the host, and a median flips between the two.
            "run_s": {"value": statistics.mean(times), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": peak, "unit": "MB"},
        }
    shutil.rmtree(rundir, ignore_errors=True)
    for msg in problems:
        print(f"CHECK FAILED: {msg}")
    for label, detail in dict.fromkeys((op.label, op.detail) for op in failed):
        print(f"op failed: {label}: {detail}")
    print(f"{workload}: {len(times)} untraced passes, pass times "
          + ", ".join(f"{x:.3f}" for x in times) + " s; set-ups "
          + ", ".join(f"{x:.3f}" for x in setups) + " s")
    if trace:
        print(f"{workload}: traced pass {t_traced:.3f} s, untraced pass after it {t_after:.3f} s")
    print(f"{workload}: attempted {len(ops)}, failed {len(failed)}, correct {not problems}")
    for name, mv in shown.items():
        print(f"  {name:32s} {mv['value']:>16.6g} {mv['unit']}")
    return {
        "correct": not problems,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": shown,
    }


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Each workload in its own process; metrics are prefixed with the workload name."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            sys.exit(f"bench: workload {name} exited {proc.returncode}\n{proc.stderr}")
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        for metric, mv in res["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = mv
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
    return total


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=52)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.setup_only:
        _wl, seconds = _setup(args.workload, args.seed)
        print(repr(seconds))
        return 0
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
