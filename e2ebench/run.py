"""End-to-end benchmark of the `dle` CLI, with a traced per-layer split.

Run from the repository root:

    python3 e2ebench/run.py --workload enum_frontier --seed 0 --seconds 30 --trace 0

Inputs are generated from --seed into a temporary directory inside the
checkout, and the package is imported from ./src. One run:

1. runs one pass in a fresh interpreter and reads its peak RSS
   (`peak_rss_mib`); that pass's output digests are the reference the
   other passes must reproduce, and for the default seed they must equal
   the pinned ones in digests.json;
2. repeats passes for --seconds, with a fixed yardstick
   (workloads.yardstick_seconds) timed before the first pass and after
   each. `wall_rel` is the median pass time over the median yardstick
   time; the raw median pass time is printed next to it. Outputs are
   checked after every pass, outside the timed section: exit code,
   SHA-256 of the primary output, invariants;
3. after each of the first SETUP_REPEATS passes, times `import dle` plus
   every model build of the workload in a fresh interpreter (`setup_s`,
   the median).

With --trace 1 the run splits --seconds between untraced passes and passes
with every layer wrapped (tracer.py), and prints the per-layer metrics
instead, `wall_s` (the raw median pass time) among them. The last stdout
line is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402

DEFAULT_SEED = 0
SETUP_REPEATS = 7
DIGESTS = BENCH_DIR / "digests.json"

SETUP_SNIPPET = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import dle
from dle.model import parse_model_spec
for spec in sys.argv[2:]:
    parse_model_spec(spec)
print(time.perf_counter() - t0)
"""


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def import_dle(root: Path):
    """Import the package from the checkout's src/, never from elsewhere."""
    src = root / "src"
    if not (src / "dle" / "__init__.py").is_file():
        fail(f"no dle package under {src}; run from the repository root")
    sys.path.insert(0, str(src))
    import dle

    if Path(dle.__file__).resolve().parent != (src / "dle").resolve():
        fail(f"dle imported from {dle.__file__}, not from {src}")
    return dle


def measure_setup(root: Path, specs: list[str]) -> float:
    out = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, str(root / "src"), *specs],
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def probe(args, root: Path, tmp: Path) -> dict:
    """One pass in a fresh interpreter: its peak RSS, digests and failures."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--probe", str(tmp)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=root)
    if out.returncode != 0:
        raise RuntimeError(f"probe pass failed:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def probe_main(args, root: Path) -> None:
    import_dle(root)
    tmp = Path(args.probe)
    wl = workloads.build(args.workload, args.seed, args.size, tmp, tmp / "probe-out",
                         generate=False)
    _, codes = workloads.run_pass(wl)
    digests, problems = workloads.judge(wl, codes, None)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"peak_rss_mib": rss_kib / 1024.0, "digests": digests,
                      "problems": problems}))


def pinned_digests(args) -> dict[str, str] | None:
    if args.seed != DEFAULT_SEED or args.size != "full" or not DIGESTS.is_file():
        return None
    return json.loads(DIGESTS.read_text(encoding="utf-8")).get(args.workload)


def env_record(dle) -> dict:
    import numpy

    from dle import _kernels

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "backend": _kernels.BACKEND, "dle": dle.__version__}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs for the benchmark's self-tests")
    parser.add_argument("--probe", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args()
    root = Path.cwd()
    if hasattr(os, "sched_setaffinity"):
        # One CPU for the run and the interpreters it starts: the yardstick
        # then times the same CPU as the passes, thread pools included.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.probe is not None:
        probe_main(args, root)
        return

    dle = import_dle(root)
    scratch = root / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        result, record = measure(args, root, tmp, dle)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    for problem in record["problems"][:20]:
        print(f"FAILED {problem}")
    print(json.dumps(result))


def measure(args, root: Path, tmp: Path, dle) -> tuple[dict, dict]:
    wl = workloads.build(args.workload, args.seed, args.size, tmp, tmp / "out")
    first = probe(args, root, tmp)
    pinned = pinned_digests(args)
    tally = {"attempted": len(wl.steps), "failed": 0, "problems": list(first["problems"])}
    if pinned is not None:
        bad = [n for n, d in first["digests"].items() if pinned.get(n) != d]
        tally["problems"].extend(f"{n}: output digest differs from the pinned one" for n in bad)
        reference = pinned
    else:
        reference = first["digests"]
    tally["failed"] = len({p.split(":")[0] for p in tally["problems"]})

    env = env_record(dle)
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "size": args.size, "env": env, "probe": first}
    if args.trace:
        import layers

        metrics = layers.traced_run(wl, reference, args, tally, record)
    else:
        # One fresh start after each pass, so the set-up samples spread over
        # the run like the passes do.
        setup: list[float] = []

        def sample_setup() -> None:
            if len(setup) < SETUP_REPEATS:
                setup.append(measure_setup(root, wl.model_specs))

        passes, yardsticks = workloads.timed_passes(wl, reference, args.seconds, tally,
                                                    on_pass=sample_setup)
        while len(setup) < SETUP_REPEATS:
            sample_setup()
        record["setup_samples_s"] = setup
        record["yardstick_samples_s"] = yardsticks
        walls = [w for w, _ in passes]
        wall_rel = statistics.median(walls) / statistics.median(yardsticks)
        record["wall_samples_s"] = walls
        record["step_median_s"] = {name: statistics.median(c[i][2] for _, c in passes)
                                   for i, (name, _, _) in enumerate(passes[0][1])}
        print(f"wall_rel: {wall_rel:.4f}, wall_s: median {statistics.median(walls):.4f} s "
              f"over {len(walls)} passes, yardstick: median "
              f"{statistics.median(yardsticks):.4f} s over {len(yardsticks)}, "
              f"setup_s: median {statistics.median(setup):.4f} s over {len(setup)} starts")
        metrics = {
            "wall_rel": {"value": wall_rel, "unit": "ratio"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mib": {"value": first["peak_rss_mib"], "unit": "MiB"},
        }
    record["problems"] = tally["problems"]
    record["metrics"] = metrics
    result = {"correct": tally["failed"] == 0, "attempted": tally["attempted"],
              "failed": tally["failed"], "metrics": metrics}
    return result, record


if __name__ == "__main__":
    main()
