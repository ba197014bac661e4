"""One benchmark run of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --work DIR

Drives the CLI in process through ``peierls.cli.main``.  The first
repetition runs with cold caches; it warms them and is not timed.  The run,
this repetition included, lasts about S seconds:

* ``--trace 0``: warm repetitions are timed until the next one would end
  after S seconds; at least one runs.  A timer probes the host's speed
  inside each (see speed.py), and the probes scale its time.  Peak RSS is
  read after the cold repetition, before any output check has allocated
  memory.
* ``--trace 1``: the cold repetition is traced (it alone pays for building
  the pattern tables and box grids); then untraced and traced warm
  repetitions alternate, so their difference is the tracing overhead.

Every repetition's outputs are checked.  The last line of standard output
is a JSON object with the raw measurements.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

import spans  # noqa: E402
import speed  # noqa: E402
from workloads import WORKLOADS, Checker, Workload  # noqa: E402


class Runner:
    """Runs the commands of one workload and checks their outputs."""

    def __init__(self, workload: Workload, seed: int, work: Path):
        from peierls import cli

        self.main = cli.main
        self.workload = workload
        self.commands = workload.commands(seed)
        self.outputs = {c.label: work / c.label for c in self.commands}
        self.checker = Checker()
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self._pending: list = []

    def rep(self, trace: spans.Trace | None = None,
            sampler: speed.Sampler | None = None) -> float:
        """Run every command once; return the seconds spent inside main().
        ``sampler``, if given, probes the host's speed inside main()."""
        wall = 0.0
        errors = []
        gc.collect()  # start every repetition from the same heap state
        for cmd in self.commands:
            argv = list(cmd.argv) + ["--out", str(self.outputs[cmd.label])]
            if trace is not None:
                trace.set_scope(cmd.label)
            sink = io.StringIO()
            sampling = (contextlib.nullcontext() if sampler is None
                        else sampler.sampling())
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(sink), sampling:
                    if trace is None:
                        code = self.main(argv)
                    else:
                        with trace.span("cli.main"):
                            code = self.main(argv)
            except Exception as exc:  # a crash is a failed repetition
                code = f"{type(exc).__name__}: {exc}"
            wall += time.perf_counter() - t0
            if code != 0:
                errors.append(f"{cmd.label}: exit {code}")
        self._pending = errors
        return wall

    def check(self) -> None:
        """Check the outputs of the last repetition; count it."""
        problems = self._pending
        if not problems:
            try:
                problems = self.workload.check(self.outputs, self.checker)
            except Exception as exc:  # unreadable output fails the check
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[:5])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_run(runner: Runner, seconds: float) -> dict:
    begin = time.perf_counter()
    runner.rep()
    rss = peak_rss_mb()
    runner.check()
    walls, scaled, probes = [], [], []
    while not walls or (time.perf_counter() - begin
                        + statistics.median(walls) <= seconds):
        sampler = speed.Sampler()
        wall = runner.rep(sampler=sampler)
        runner.check()
        walls.append(wall)
        scaled.append(sampler.scale(wall))
        probes += sampler.samples
    return {"walls": walls, "scaled_walls": scaled,
            "probe_s": statistics.median(probes) if probes else None,
            "peak_rss_mb": rss}


def traced_run(runner: Runner, seconds: float) -> dict:
    begin = time.perf_counter()
    cold = spans.Trace()
    with cold.installed():
        runner.rep(cold)
    runner.check()
    cold_metrics = spans.layer_metrics(cold)
    plain, traced, layers = [], [], []
    while not traced or (time.perf_counter() - begin + statistics.median(plain)
                         + statistics.median(traced) <= seconds):
        plain.append(runner.rep())
        runner.check()
        tr = spans.Trace()
        with tr.installed():
            traced.append(runner.rep(tr))
        runner.check()
        layers.append(spans.layer_metrics(tr))
    metrics = {}
    counts = [name for name, unit in spans.PER_LAYER if unit != "s"]
    for name, unit in spans.PER_LAYER:
        if name in spans.COLD_ONLY:
            metrics[name] = cold_metrics[name]
        elif name == "trace.overhead_s":
            metrics[name] = statistics.median(traced) - statistics.median(plain)
        elif unit == "s":
            metrics[name] = statistics.median(m[name] for m in layers)
        else:
            metrics[name] = layers[0][name]
    repeat = all(m[k] == layers[0][k] for m in layers for k in counts)
    return {"layers": metrics, "counts_repeat": repeat, "missing": cold.missing,
            "walls": plain, "traced_walls": traced}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", type=Path, required=True)
    args = ap.parse_args(argv)
    runner = Runner(WORKLOADS[args.workload], args.seed, args.work)
    result = (traced_run if args.trace else timed_run)(runner, args.seconds)
    result.update(attempted=runner.attempted, failed=runner.failed,
                  problems=runner.problems)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
