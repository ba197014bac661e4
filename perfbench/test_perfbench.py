"""Tests of the benchmark's own code.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import spans
import speed
import worker  # puts the package sources on sys.path
from run import END_TO_END
from workloads import (CENSUS_CONTOURS, CENSUS_SUBGRAPHS, WORKLOADS, Checker,
                       Command, Workload, check_census_csvs, check_coexist,
                       check_verify_csv, decode_probabilities,
                       verify_reference_entry, verify_rows)

from peierls.cli import main as cli_main

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_cli(*argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli_main(list(argv))


def rewrite_csv(path: Path, edit) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


# -- output checks -------------------------------------------------------------

@pytest.fixture(scope="module")
def verify_3x3(tmp_path_factory):
    out = tmp_path_factory.mktemp("verify")
    assert run_cli("verify", "--builtin", "ising", "--box", "3x3",
                   "--betas", "0.5,2", "--out", str(out)) == 0
    by_beta, _ = verify_rows(out / "peierls_bounds.csv")
    reference = {format(b, "g"): verify_reference_entry(rows)
                 for b, rows in by_beta.items()}
    return out / "peierls_bounds.csv", reference


@pytest.mark.parametrize("delta, passes", [(0.0, True), (1e-14, True), (1e-9, False)])
def test_verify_check_tolerates_rounding_and_rejects_a_shifted_probability(
        tmp_path, verify_3x3, delta, passes):
    source, reference = verify_3x3
    path = tmp_path / "peierls_bounds.csv"
    shutil.copy(source, path)

    def shift(rows):
        rows[5][3] = repr(float(rows[5][3]) + delta)

    rewrite_csv(path, shift)
    problems = check_verify_csv(path, reference)
    assert (problems == []) is passes, problems


def test_verify_check_rejects_a_changed_size_and_a_violation(tmp_path, verify_3x3):
    source, reference = verify_3x3
    path = tmp_path / "peierls_bounds.csv"
    shutil.copy(source, path)
    rewrite_csv(path, lambda rows: rows[2].__setitem__(2, str(int(rows[2][2]) + 1)))
    assert any("sizes differ" in p for p in check_verify_csv(path, reference))
    shutil.copy(source, path)
    rewrite_csv(path, lambda rows: rows[2].__setitem__(5, "-1e-9"))
    assert any("violation" in p for p in check_verify_csv(path, reference))


def test_committed_verify_reference_has_every_record():
    reference = Checker().reference()["verify-4x4"]
    assert sorted(reference) == ["0.5", "1", "2"]
    for entry in reference.values():
        assert entry["rows"] == 37196
        assert len(decode_probabilities(entry["probabilities"])) == 37196


def write_census(out: Path, subgraphs, contours) -> tuple:
    paths = out / "census_subgraphs.csv", out / "census_contours.csv"
    for path, counts in zip(paths, (subgraphs, contours)):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["n", "count", "bound", "ratio"])
            w.writerows((n, c, 1e9, c / 1e9) for n, c in enumerate(counts, 1))
    return paths


def test_census_check_rejects_a_count_off_by_one(tmp_path):
    assert check_census_csvs(*write_census(tmp_path, CENSUS_SUBGRAPHS,
                                           CENSUS_CONTOURS)) == []
    off = list(CENSUS_SUBGRAPHS)
    off[7] += 1
    assert check_census_csvs(*write_census(tmp_path, off, CENSUS_CONTOURS))
    off = list(CENSUS_CONTOURS)
    off[3] -= 1
    assert check_census_csvs(*write_census(tmp_path, CENSUS_SUBGRAPHS, off))


@pytest.mark.parametrize("delta, passes", [(0.0, True), (1e-9, False)])
def test_coexist_check_rejects_a_shifted_gap(tmp_path, delta, passes):
    rows = Checker().reference()["coexist-4x5"]
    (tmp_path / "coexist").mkdir()
    with open(tmp_path / "coexist" / "coexistence.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["box", "beta", "gap", "permutation_residual"])
        for i, (box, beta, gap) in enumerate(rows):
            w.writerow([box, beta, repr(gap + (delta if i == 2 else 0.0)), "1e-16"])
    problems = check_coexist({"coexist": tmp_path / "coexist"}, Checker())
    assert (problems == []) is passes, problems


# -- tracing ----------------------------------------------------------------

def small_workload() -> Workload:
    """Every traced layer, on inputs that take well under a second."""
    def commands(seed):
        return [
            Command("verify", ("verify", "--builtin", "ising", "--box", "3x3",
                               "--betas", "1")),
            Command("3x3", ("sample", "--builtin", "ising", "--box", "3x3",
                            "--beta", "0.5", "--sweeps", "50", "--seed", str(seed))),
            Command("census", ("census", "--n-max", "4", "--builtin", "potts:q=3")),
            Command("coexist", ("coexist", "--builtin", "ising", "--boxes", "2x2",
                                "--betas", "1")),
        ]
    return Workload(name="small", model="ising", commands=commands, work=1,
                    work_unit="repetitions", check=lambda outputs, checker: [])


def probe_attributes() -> dict:
    modules = spans.peierls_modules()
    return {(id(owner), attr): vars(owner)[attr]
            for probe in spans.PROBES for owner, attr in probe.targets(modules)}


def test_every_probe_finds_its_attribute():
    modules = spans.peierls_modules()
    assert [p.path for p in spans.PROBES if not p.targets(modules)] == []


def test_traced_run_restores_every_wrapped_attribute(tmp_path):
    before = probe_attributes()
    # callers look these up in other modules, so those aliases are wrapped too
    assert len(before) > len(spans.PROBES)
    trace = spans.Trace()
    with trace.installed():
        during = probe_attributes()
        assert all(during[k] is not v for k, v in before.items())
    assert all(probe_attributes()[k] is v for k, v in before.items())

    with pytest.raises(RuntimeError):
        with spans.Trace().installed():
            raise RuntimeError("a failing repetition")
    assert all(probe_attributes()[k] is v for k, v in before.items())

    runner = worker.Runner(small_workload(), 3, tmp_path)
    result = worker.traced_run(runner, 0.0)
    assert all(probe_attributes()[k] is v for k, v in before.items())
    assert runner.failed == 0 and result["counts_repeat"]


def test_traced_counts_are_exact(tmp_path):
    runner = worker.Runner(small_workload(), 3, tmp_path)
    runner.rep()
    trace = spans.Trace()
    with trace.installed():
        runner.rep(trace)
    m = spans.layer_metrics(trace)
    assert m["contours.label_calls"] == 2 ** 9
    assert m["exact.kernel_configs"] == 2 ** 9 + 2 * 2 ** 4
    assert m["mcmc.3x3.site_updates"] == 9 * (100 + 50)
    assert m["mcmc.3x3.rng_streams"] == 2 * (100 + 50)
    assert m["mcmc.16x16.site_updates"] == 0
    # connected cube sets of sizes 1..4, and the root as the only interior
    assert m["census.sets_visited"] == sum(CENSUS_SUBGRAPHS[:4]) + 1
    with open(tmp_path / "verify" / "peierls_bounds.csv", "rb") as fh:
        verify_lines = fh.read().count(b"\n")
    assert m["io.rows_written"] >= verify_lines - 1


def test_self_time_on_a_synthetic_span_tree():
    trace = spans.Trace()
    root = trace.record("root", 0.0, 10.0, -1)
    trace.record("a", 1.0, 4.0, root)
    b = trace.record("b", 5.0, 9.0, root)
    trace.record("a", 6.0, 7.0, b)
    trace.set_scope("other")
    trace.record("a", 20.0, 22.0, -1)
    totals = trace.totals()
    assert totals[("", "root")] == [1, 10.0, 3.0]
    assert totals[("", "b")] == [1, 4.0, 3.0]
    assert totals[("", "a")] == [2, 4.0, 4.0]
    assert totals[("other", "a")] == [1, 2.0, 2.0]


def test_scaling_divides_out_the_host_speed():
    ref = speed.REFERENCE_PROBE_S
    assert speed.scale(3.0, ref) == pytest.approx(3.0)
    # a host half as fast: the probe and the repetition both take twice as long
    assert speed.scale(6.0, 2 * ref) == pytest.approx(3.0)
    sampler = speed.Sampler()
    sampler.samples = [0.1 * ref, 2 * ref, 2 * ref, 9 * ref]
    sampler.spent = 0.5
    # the ticks come off; the middle half of the samples sets the speed
    assert sampler.scale(6.5) == pytest.approx(3.0)
    assert speed.interquartile_mean([5, 1, 2, 3, 100, 4, 6, 7]) == 4.5


def test_the_sampler_probes_inside_its_block_only():
    sampler = speed.Sampler()
    with sampler.sampling():
        deadline = time.perf_counter() + 20 * speed.PERIOD_S
        while time.perf_counter() < deadline:
            pass
    taken = len(sampler.samples)
    assert taken >= 5 and all(0 < s < 1 for s in sampler.samples)
    assert sampler.spent > sum(sampler.samples)
    time.sleep(3 * speed.PERIOD_S)
    assert len(sampler.samples) == taken
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL


# -- the benchmark's contract ---------------------------------------------------

def test_benchmark_json_lists_what_the_code_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(spans.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_run_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "census-8",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
