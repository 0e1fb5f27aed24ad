"""cuspeig benchmark: time to a checked eigenvalue on fixed workloads.

Usage, from the repository root:

    python3 perfbench/run.py --workload cusp2d_iterate --seed 1 --seconds 30 --trace 0

Each repetition builds a fresh mesh and its assembly (set-up), then solves
and checks one eigenvalue (solve), so every solve pays its own lazy
factorizations.  Repetitions fill ``--seconds``.  With
``--trace 0`` the last stdout line reports the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` repetitions alternate untraced and
traced, the last line reports the per-layer metrics, and the spans are
written to ``perfbench/out/``.  The line before the result is an
environment header.
"""

import os

# Fixed before numpy loads BLAS, so that runs compare.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
if not (ROOT / "src" / "cuspeig").is_dir():
    sys.exit(f"cuspeig sources not found under {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import cuspeig as ce  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, start_field  # noqa: E402

# Extra set-ups, so that setup_s is a median of enough samples even when a
# run fits only two or three solves.
SETUP_WARM_REPS = 6


def _no_span(_name):
    return nullcontext()


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
    }


def setup(workload, span=_no_span):
    """Mesh, assembly and its cached stiffness and mass: (mesh, seconds)."""
    t0 = time.perf_counter()
    mesh = workload.build_mesh()
    with span("discretization.assembly"):
        asm = ce.assembly(mesh)
        asm.stiffness, asm.mass
    return mesh, time.perf_counter() - t0


def repetition(workload, seed: int, index: int, span=_no_span):
    """One set-up and one checked solve: (setup s, solve s, failures, info)."""
    mesh, setup_s = setup(workload, span)
    start = start_field(mesh, seed, index)
    t0 = time.perf_counter()
    failures, info = workload.checked_solve(mesh, start)
    return setup_s, time.perf_counter() - t0, failures, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    env = environment(args)

    tracer = Tracer() if args.trace else None
    setup_times: list[float] = []
    solve_times = {False: [], True: []}
    failed_times = {False: [], True: []}
    traced_runs: list[int] = []
    infos = []
    failed = 0

    def run_repetition(index: int) -> None:
        nonlocal failed
        traced = bool(args.trace) and index % 2 == 1
        if traced:
            tracer.run_id = index
            traced_runs.append(index)
            with tracer.installed():
                setup_s, solve_s, failures, info = repetition(workload, args.seed, index, tracer.span)
        else:
            setup_s, solve_s, failures, info = repetition(workload, args.seed, index)
        setup_times.append(setup_s)
        infos.append(info)
        if failures:
            failed += 1
            failed_times[traced].append(solve_s)
            print(f"repetition {index} failed: {'; '.join(failures)}", file=sys.stderr)
        else:
            solve_times[traced].append(solve_s)

    deadline = time.perf_counter() + args.seconds
    t0 = time.perf_counter()
    run_repetition(0)
    first_s = time.perf_counter() - t0
    # Read after one repetition: the assembly cache keeps every mesh it has
    # seen alive, so later repetitions only add retained meshes.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_times += [setup(workload)[1] for _ in range(SETUP_WARM_REPS)]
    attempted = 1
    # Start a repetition only if one of median length still ends before the
    # deadline, so that a run takes about --seconds whatever the workload.
    durations = [first_s]
    while attempted < 1 + args.trace or (
        time.perf_counter() + statistics.median(durations) < deadline
    ):
        t0 = time.perf_counter()
        run_repetition(attempted)
        durations.append(time.perf_counter() - t0)
        attempted += 1

    def solve_median(traced: bool) -> float:
        # A failed solve's time counts only when no solve succeeded, and
        # then the run is reported incorrect.
        return statistics.median(solve_times[traced] or failed_times[traced])

    if args.trace:
        values = tracer.layer_metrics(traced_runs)
        values["trace.solve_s"] = solve_median(True)
        values["trace.overhead"] = solve_median(True) / solve_median(False)
        _write_spans(args, env, tracer)
        declared = spec["per_layer"]
    else:
        values = {
            "solve_s": solve_median(False),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb,
        }
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({
        "env": env,
        "solve_times": solve_times[False] + solve_times[True],
        "setup_times": setup_times,
        "results": infos,
    }))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def _write_spans(args, env, tracer) -> None:
    out = BENCH_DIR / "out"
    out.mkdir(exist_ok=True)
    path = out / f"spans-{args.workload}-seed{args.seed}.jsonl"
    with path.open("w") as fh:
        fh.write(json.dumps({"env": env}) + "\n")
        for record in tracer.records():
            fh.write(json.dumps(record) + "\n")


if __name__ == "__main__":
    sys.exit(main())
