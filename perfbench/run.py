"""The peierls benchmark.

One run of one workload (the form a harness calls):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

prints the metrics by name with their units, an environment stamp, and as
its last line a JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones, the warm times scaled to a reference host speed sampled
during each repetition (see speed.py); with ``--trace 1`` the per-layer
ones, unscaled.

    python3 perfbench/run.py                      # every workload, once
    python3 perfbench/run.py --steadiness 10      # 10 seeds each, plus 2 traced runs

The second form prints each end-to-end metric with its failed fraction; the
third prints the median and quartiles of every end-to-end metric over the
runs, their spread against the bounds in BENCHMARK.json, and whether the
traced counts repeat exactly.  See README.md next to this file.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
from spans import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("work_per_s", "1/s"),
)
SETUP_PROBES = 9
RUN_LIMIT_S = 170.0

# Set-up time as a user pays it: a fresh interpreter imports the CLI and
# checks the workload's model, with every cache cold.
PROBE = """\
import contextlib, io, sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
from peierls.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["model-check", "--builtin", sys.argv[2], "--out", sys.argv[3]])
print(time.perf_counter() - t0, code)
"""


def environment(seed: int) -> dict:
    """Where and on what a run was measured."""
    def git(*args):
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        try:
            out = subprocess.run(["git", *args], cwd=ROOT, env=env, timeout=20,
                                 capture_output=True, text=True)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    dirty = git("status", "--porcelain", "--untracked-files=no")
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "git_sha": sha or "unknown",
        "git_dirty": None if sha is None else bool(dirty),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "loadavg": list(os.getloadavg()),
        "seed": seed,
    }


def setup_times(model: str, work: Path) -> tuple:
    """Seconds of each successful set-up probe, and the failure count."""
    times, failed = [], 0
    for i in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, "-c", PROBE, str(SRC), model, str(work / f"setup{i}")],
            capture_output=True, text=True, timeout=60)
        fields = proc.stdout.split()
        if proc.returncode == 0 and len(fields) == 2 and fields[1] == "0":
            times.append(float(fields[0]))
        else:
            failed += 1
            print(f"setup probe failed: {proc.stderr.strip()[-500:]}", file=sys.stderr)
    return times, failed


def one_run(name: str, seed: int, seconds: float, trace: int) -> int:
    began = time.monotonic()
    if not (SRC / "peierls" / "cli.py").is_file():
        print(f"no peierls sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[name]
    stamp = environment(seed)
    work = HERE / ".work" / str(os.getpid())
    try:
        setups, setup_failed = ([], 0) if trace else setup_times(workload.model, work)
        if not trace and not setups:
            print("every set-up probe failed", file=sys.stderr)
            return 1
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace), "--work", str(work / "out")],
            stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, RUN_LIMIT_S - (time.monotonic() - began)))
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"worker exited {proc.returncode}", file=sys.stderr)
            return 1
        raw = json.loads(lines[-1])
    except subprocess.TimeoutExpired:
        print(f"run exceeded {RUN_LIMIT_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only once no other run is using it

    attempted = raw["attempted"] + len(setups) + setup_failed
    failed = raw["failed"] + setup_failed
    for problem in raw["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    if trace:
        units = dict(PER_LAYER)
        metrics = raw["layers"]
        traced_wall = statistics.median(raw["traced_walls"])
        for missing in raw["missing"]:
            print(f"warning: {missing} not found; its metrics read 0", file=sys.stderr)
        if not raw["counts_repeat"]:
            print("warning: counts differ between traced repetitions", file=sys.stderr)
    else:
        units = dict(END_TO_END)
        wall = statistics.median(raw["scaled_walls"])
        metrics = {"wall_s": wall, "setup_s": statistics.median(setups),
                   "peak_rss_mb": raw["peak_rss_mb"],
                   "work_per_s": workload.work / wall}
        stamp["speed_probe_s"] = raw["probe_s"]
        stamp["unscaled_wall_s"] = statistics.median(raw["walls"])
    print(f"workload {name}: {len(raw['walls'])} timed repetitions, "
          f"failed_frac = {failed / attempted:.4g} ({failed} of {attempted})")
    if not trace:
        print(f"  wall_s is scaled to a {speed.REFERENCE_PROBE_S} s speed probe; "
              f"the probe took {stamp['speed_probe_s']:.4g} s (median), the "
              f"repetitions {stamp['unscaled_wall_s']:.4g} s unscaled")
    for key, value in metrics.items():
        note = ""
        if key == "work_per_s":
            note = f"  ({workload.work_unit}_per_s, {workload.work} per repetition)"
        elif trace and units[key] == "s" and key != "trace.overhead_s":
            note = f"  ({100 * value / traced_wall:.1f}% of the traced wall)"
        print(f"  {key} = {value:.6g} {units[key]}{note}")
    print(json.dumps({"environment": stamp}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def child_run(name: str, seed: int, seconds: float, trace: int):
    """Run one benchmark run in its own process; return its result or None."""
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=RUN_LIMIT_S + 10)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return None
    result = json.loads(lines[-1])
    result["environment"] = json.loads(lines[-2])["environment"]
    return result


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def steadiness(names: list, runs: int, seed: int, seconds: float) -> int:
    bounds = {m["name"]: m["bound"] for m in
              json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    steady = True
    for name in names:
        results = [child_run(name, seed + i, seconds, 0) for i in range(runs)]
        ok = [r for r in results if r is not None]
        failed = sum(r["failed"] for r in ok) + (runs - len(ok))
        attempted = sum(r["attempted"] for r in ok) + (runs - len(ok))
        print(f"{name}: {len(ok)} of {runs} runs, failed_frac = "
              f"{failed / max(attempted, 1):.4g}")
        for metric, unit in END_TO_END:
            values = [r["metrics"][metric]["value"] for r in ok]
            if not values:
                continue
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med
            limit = bounds.get(metric, 0.0) / 3
            flag = "ok" if metric == "setup_s" or spread < limit else "WIDE"
            steady &= flag == "ok"
            print(f"  {metric:<12} median {med:.6g} {unit}  quartiles "
                  f"{q1:.6g}..{q3:.6g}  spread {spread:.3%} (< {limit:.3%}) {flag}")
            print("    runs: " + " ".join(f"{v:.4g}" for v in values))
        unscaled = [r["environment"]["unscaled_wall_s"] for r in ok]
        if len(unscaled) > 1:
            q1, med, q3 = quartiles(unscaled)
            print(f"  unscaled wall_s median {med:.6g} s  spread {(q3 - q1) / med:.3%}")
        traced = [child_run(name, seed, seconds, 1) for _ in range(2)]
        if all(traced):
            counts = [n for n, u in PER_LAYER if u != "s"]
            a, b = (t["metrics"] for t in traced)
            same = all(a[n]["value"] == b[n]["value"] for n in counts)
            steady &= same
            print(f"  traced counts repeat exactly: {'yes' if same else 'NO'}; "
                  f"tracing overhead {a['trace.overhead_s']['value']:.3g} s, "
                  f"{b['trace.overhead_s']['value']:.3g} s")
        else:
            steady = False
            print("  a traced run failed")
    return 0 if steady else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                    help="workload to run (repeatable; default: all)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per run (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steadiness", type=int, default=0, metavar="RUNS",
                    help="repeat each workload RUNS times and report the spread")
    args = ap.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    names = args.workload or list(WORKLOADS)
    if args.steadiness:
        return steadiness(names, args.steadiness, args.seed, seconds)
    if len(names) == 1:
        return one_run(names[0], args.seed, seconds, args.trace)
    code = 0
    for name in names:
        result = child_run(name, args.seed, seconds, args.trace)
        if result is None:
            print(f"{name}: run failed")
            code = 1
            continue
        print(f"{name}: failed_frac = {result['failed'] / result['attempted']:.4g}")
        for key, m in result["metrics"].items():
            print(f"  {key} = {m['value']:.6g} {m['unit']}")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
