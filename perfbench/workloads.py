"""The benchmark's workloads: the CLI commands each one runs, the work one
repetition does, and the check every repetition's output must pass.

Why each workload is here is written in README.md next to this file.
"""

from __future__ import annotations

import base64
import csv
import hashlib
import json
import lzma
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

REFERENCE = Path(__file__).with_name("reference.json")

PROB_TOL = 1e-12
GAP_TOL = 1e-12
RESIDUAL_TOL = 1e-12
SAMPLE_SIGMAS = 4.0

CENSUS_SUBGRAPHS = [1, 8, 60, 440, 3190, 22992, 165144, 1183528]
CENSUS_CONTOURS = [0, 0, 0, 2, 0, 16, 16, 152]
COEXIST_PINNED = ("0..3,0..3", 2.0, 0.9999997749188096)


@dataclass(frozen=True)
class Command:
    label: str       # output subdirectory; for sample chains, the trace scope
    argv: tuple


@dataclass(frozen=True)
class Workload:
    name: str
    model: str                          # builtin spec used by the setup probe
    commands: Callable[[int], list]     # seed -> [Command]
    work: int                           # units of work in one repetition
    work_unit: str                      # what ``work`` counts
    check: Callable                     # (outputs, Checker) -> [problem]


# ---------------------------------------------------------------------------
# Output checks.  Each returns a list of problems; an empty list passes.
# ---------------------------------------------------------------------------

def read_csv(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def verify_digest(rows: list) -> str:
    """Digest of the (contour id, size) rows of one beta, sorted by id."""
    h = hashlib.sha256()
    for cid, size, _ in rows:
        h.update(f"{cid},{size}\n".encode())
    return h.hexdigest()


def verify_rows(path: Path) -> tuple:
    """beta -> [(contour id, size, probability)] sorted by id, plus slacks."""
    by_beta: dict = {}
    slacks = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != ["beta", "contour_id", "size", "probability", "bound", "slack"]:
            raise ValueError(f"unexpected header {header}")
        for beta, cid, size, prob, _bound, slack in reader:
            by_beta.setdefault(float(beta), []).append((cid, int(size), float(prob)))
            slacks.append(float(slack))
    for rows in by_beta.values():
        rows.sort()
    return by_beta, slacks


def encode_probabilities(values) -> str:
    data = np.asarray(values, dtype="<f8").tobytes()
    return base64.b64encode(lzma.compress(data)).decode()


def decode_probabilities(text: str) -> np.ndarray:
    return np.frombuffer(lzma.decompress(base64.b64decode(text)), dtype="<f8")


def verify_reference_entry(rows: list) -> dict:
    return {"rows": len(rows), "digest": verify_digest(rows),
            "probabilities": encode_probabilities([r[2] for r in rows])}


def check_verify_csv(path: Path, reference: dict) -> list:
    """Compare a peierls_bounds.csv with a reference keyed by beta."""
    by_beta, slacks = verify_rows(path)
    problems = []
    if sorted(by_beta) != sorted(float(b) for b in reference):
        problems.append(f"betas {sorted(by_beta)} != {sorted(reference)}")
    for beta_text, ref in reference.items():
        rows = by_beta.get(float(beta_text), [])
        if len(rows) != ref["rows"]:
            problems.append(f"beta {beta_text}: {len(rows)} records, want {ref['rows']}")
            continue
        if verify_digest(rows) != ref["digest"]:
            problems.append(f"beta {beta_text}: contour ids or sizes differ")
            continue
        want = decode_probabilities(ref["probabilities"])
        got = np.array([r[2] for r in rows])
        worst = float(np.max(np.abs(got - want))) if len(rows) else 0.0
        if not worst <= PROB_TOL:
            problems.append(f"beta {beta_text}: a probability is off by {worst:.3g}")
    if slacks and min(slacks) < -PROB_TOL:
        problems.append(f"{sum(s < -PROB_TOL for s in slacks)} bound violations")
    return problems


def check_verify(outputs: dict, checker: "Checker") -> list:
    return check_verify_csv(outputs["verify"] / "peierls_bounds.csv",
                            checker.reference()["verify-4x4"])


def check_coexist(outputs: dict, checker: "Checker") -> list:
    rows = read_csv(outputs["coexist"] / "coexistence.csv")
    problems = []
    gaps = {(r["box"], float(r["beta"])): float(r["gap"]) for r in rows}
    want = {(box, float(beta)): gap
            for box, beta, gap in checker.reference()["coexist-4x5"]}
    if sorted(gaps) != sorted(want):
        problems.append(f"rows {sorted(gaps)} != {sorted(want)}")
    box, beta, gap = COEXIST_PINNED
    for key, value in list(want.items()) + [((box, beta), gap)]:
        if not abs(gaps.get(key, math.nan) - value) <= GAP_TOL:
            problems.append(f"gap {key}: {gaps.get(key)!r} != {value!r}")
    for r in rows:
        if not float(r["permutation_residual"]) <= RESIDUAL_TOL:
            problems.append(f"residual {r['permutation_residual']} at {r['box']}")
    return problems


def check_census_csvs(subgraphs: Path, contours: Path) -> list:
    problems = []
    for path, want in ((subgraphs, CENSUS_SUBGRAPHS), (contours, CENSUS_CONTOURS)):
        got = [int(r["count"]) for r in read_csv(path)]
        if got != want:
            problems.append(f"{path.name}: counts {got} != {want}")
    return problems


def check_census(outputs: dict, checker: "Checker") -> list:
    out = outputs["census"]
    return check_census_csvs(out / "census_subgraphs.csv",
                             out / "census_contours.csv")


def check_sample(outputs: dict, checker: "Checker") -> list:
    problems = []
    for label in ("16x16", "3x3"):
        path = outputs[label] / "samples.csv"
        data = path.read_bytes()
        first = checker.first_bytes.setdefault(label, data)
        if data != first:
            problems.append(f"{label}: samples.csv differs from the same-seed run")
        rows = read_csv(path)
        means = [float(r["estimate"]) for r in rows]
        if not (len(rows) == 2 and abs(sum(means) - 1.0) <= 1e-12
                and all(0.0 <= m <= 1.0 for m in means)):
            problems.append(f"{label}: estimates {means} are not a distribution")
    exact = checker.exact_3x3()
    for r in read_csv(outputs["3x3"] / "samples.csv"):
        spin = int(r["observable"].rsplit("=", 1)[1])
        est, err = float(r["estimate"]), float(r["stderr"])
        if not abs(est - exact[spin]) <= SAMPLE_SIGMAS * err:
            problems.append(f"3x3 {r['observable']}: {est} +- {err} vs exact "
                            f"{exact[spin]:.6g}")
    return problems


class Checker:
    """State the checks share across the repetitions of one run."""

    def __init__(self):
        self.first_bytes: dict = {}
        self._reference = None
        self._exact = None

    def reference(self) -> dict:
        if self._reference is None:
            self._reference = json.loads(REFERENCE.read_text())
        return self._reference

    def exact_3x3(self) -> dict:
        """Exact marginal of the 3x3 chain's observed site, by enumeration."""
        if self._exact is None:
            from peierls.exact import FiniteVolumeEnsemble, enumerate_distribution
            from peierls.lattice import Box
            from peierls.model import builtin_model

            box = Box.from_shape((3, 3))
            ens = FiniteVolumeEnsemble(box=box, exterior=1, beta=0.5,
                                       model=builtin_model("ising"))
            marg = enumerate_distribution(ens).marginals
            self._exact = {v: marg[(box.center, v)] for v in (1, 2)}
        return self._exact


# ---------------------------------------------------------------------------
# The workloads
# ---------------------------------------------------------------------------

def _fixed(*commands):
    return lambda seed: list(commands)


def _sample_mix(seed: int) -> list:
    common = ("sample", "--builtin", "ising", "--beta", "0.5", "--seed", str(seed))
    return [Command("16x16", common + ("--box", "16x16", "--sweeps", "2000")),
            Command("3x3", common + ("--box", "3x3", "--sweeps", "20000"))]


WORKLOADS = {w.name: w for w in (
    Workload(
        name="verify-4x4", model="ising",
        commands=_fixed(Command("verify", (
            "verify", "--builtin", "ising", "--box", "4x4",
            "--betas", "0.5,1,2", "--workers", "1"))),
        work=2 ** 16, work_unit="configs", check=check_verify),
    Workload(
        name="coexist-4x5", model="ising",
        commands=_fixed(Command("coexist", (
            "coexist", "--builtin", "ising", "--boxes", "4x4;4x5",
            "--betas", "0.5,1,2", "--workers", "1"))),
        work=2 * (2 ** 16 + 2 ** 20), work_unit="configs", check=check_coexist),
    Workload(
        name="sample-mix", model="ising", commands=_sample_mix,
        # (burn-in 100 + sweeps) * sites, for both chains
        work=(100 + 2000) * 256 + (100 + 20000) * 9,
        work_unit="site_updates", check=check_sample),
    Workload(
        name="census-8", model="potts:q=3",
        commands=_fixed(Command("census", (
            "census", "--n-max", "8", "--builtin", "potts:q=3",
            "--max-interior", "5"))),
        # connected cube sets of sizes 1..8, plus connected interiors of
        # sizes 1..5, which grow on the same Moore-neighbour graph
        work=sum(CENSUS_SUBGRAPHS) + sum(CENSUS_SUBGRAPHS[:5]),
        work_unit="sets", check=check_census),
)}
