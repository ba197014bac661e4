"""Command-line front door.

Subcommands: model-check, contours, verify, census, sample, coexist, rerun.
Every run writes its outputs plus a ``manifest.json`` into the output
directory; ``rerun MANIFEST`` re-executes a manifest, and with the same
worker count the CSV outputs are byte-identical.

Exit codes: 0 all checks pass, 1 a verified bound failed or a model is not
certifiable, 2 bad input, 3 an enumeration exceeded its budget.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .census import rooted_contour_counts, subgraph_census
from .contours import boundary, contours as extract_contours
from .errors import CapacityError, InputError, VerificationError
from .exact import (DEFAULT_BUDGET, FiniteVolumeEnsemble, coexistence_gap,
                    contour_statistics)
from .io import (load_configuration, load_manifest, load_model, sha256_file,
                 write_csv, write_manifest)
from .lattice import Box
from .mcmc import ChainSpec, run_chain, site_indicator
from .model import (ModelSpec, builtin_model, check_symmetry,
                    potential_spectrum, verify_ground_states)

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INPUT = 2
EXIT_CAPACITY = 3


# ---------------------------------------------------------------------------
# Parameter parsing and normalization
# ---------------------------------------------------------------------------

def parse_box(text: str) -> Box:
    """Accept '4x4' (shape anchored at the origin) or '0..3,0..3' (extents)."""
    text = text.strip()
    if ".." in text:
        lower, upper = [], []
        for part in text.split(","):
            lo, sep, hi = part.strip().partition("..")
            if not sep:
                raise InputError(f"bad box range {part!r}")
            try:
                lower.append(int(lo))
                upper.append(int(hi))
            except ValueError as exc:
                raise InputError(f"bad box range {part!r}") from exc
        return Box(tuple(lower), tuple(upper))
    try:
        shape = [int(p) for p in text.split("x")]
    except ValueError as exc:
        raise InputError(f"bad box spec {text!r}") from exc
    if len(shape) < 2:
        raise InputError(f"bad box spec {text!r}")
    return Box.from_shape(shape)


def box_spec(box: Box) -> str:
    return ",".join(f"{l}..{u}" for l, u in zip(box.lower, box.upper))


def parse_site(text: str) -> tuple:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise InputError(f"bad site spec {text!r}") from exc


def parse_betas(text: str) -> list:
    try:
        return [float(p) for p in text.split(",")]
    except ValueError as exc:
        raise InputError(f"bad beta list {text!r}") from exc


def _model_param(args) -> dict:
    if getattr(args, "builtin", None):
        return {"builtin": args.builtin}
    if getattr(args, "model", None):
        return {"path": str(args.model), "sha256": sha256_file(args.model)}
    raise InputError("a model is required: pass --model PATH or --builtin SPEC")


def _resolve_model(param: dict) -> ModelSpec:
    if "builtin" in param:
        return builtin_model(param["builtin"])
    path = param["path"]
    if "sha256" in param:
        digest = sha256_file(path)
        if digest != param["sha256"]:
            raise InputError(
                f"model file {path} changed since the manifest was written "
                f"(sha256 {digest} != {param['sha256']})")
    return load_model(path)


def _contour_id(serial) -> str:
    return "+".join(f"{mark}@({','.join(str(c) for c in site)})"
                    for site, mark in serial)


def _write_run_manifest(out_dir: Path, command: str, params: dict,
                        outputs: list) -> None:
    write_manifest(out_dir / "manifest.json", {
        "artifact": "peierls",
        "version": __version__,
        "command": command,
        "params": params,
        "outputs": outputs,
    })


# ---------------------------------------------------------------------------
# Command implementations (callable from manifests)
# ---------------------------------------------------------------------------

def _run_model_check(params: dict, out_dir: Path) -> int:
    model = _resolve_model(params["model"])
    spectrum = potential_spectrum(model, budget=params.get("budget"))
    report = verify_ground_states(model)
    symmetric = check_symmetry(model)
    ok = report.certified and symmetric and spectrum.gap > 0
    payload = {
        "model": params["model"],
        "dims": {"d": model.d, "r": model.r, "q": model.q, "s": model.s},
        "min_energy": spectrum.min_energy,
        "gap": spectrum.gap,
        "value_count": spectrum.value_count,
        "degenerate": spectrum.degenerate,
        "minimizer_count": spectrum.minimizer_count,
        "certified": report.certified,
        "ground_spins": list(report.ground_spins),
        "constant_minimizers": list(report.constant_minimizers),
        "offender_examples": [list(p) for p in report.offenders[:8]],
        "symmetric": symmetric,
        "status": "certified" if ok else "not-certified",
    }
    write_manifest(out_dir / "model_check.json", payload)
    _write_run_manifest(out_dir, "model-check", params, ["model_check.json"])
    print(f"min cube energy : {spectrum.min_energy:.12g}")
    print(f"gap             : {spectrum.gap:.12g}")
    print(f"distinct values : {spectrum.value_count}"
          + (" (degenerate)" if spectrum.degenerate else ""))
    print(f"ground states   : "
          + (f"certified, constants {list(report.ground_spins)}"
             if report.certified else "NOT certified"))
    if not report.certified and report.offenders:
        print(f"  offending minimizing patterns (examples): {report.offenders[:3]}")
    print(f"sector symmetry : {'yes' if symmetric else 'NO'}")
    return EXIT_OK if ok else EXIT_VERIFICATION


def _run_contours(params: dict, out_dir: Path) -> int:
    model = _resolve_model(params["model"])
    config, header = load_configuration(params["config"])
    for field, got, want in (("d", header.d, model.d), ("r", header.r, model.r),
                             ("q", header.q, model.q), ("s", header.s, model.s)):
        if got != want:
            raise InputError(
                f"configuration header {field}={got} does not match model {field}={want}")
    found = extract_contours(config, model)
    b = boundary(config, model)
    total = sum(g.size for g in found)
    records = []
    for g in found:
        records.append({
            "interior": [list(site) for site in sorted(g.interior)],
            "marks": [[list(site), mark] for site, mark in g.serial()],
            "improper_anchors": [list(c.anchor) for c in sorted(
                g.improper_cubes, key=lambda c: c.anchor)],
            "size": g.size,
            "subcontours": len(g.subcontours),
        })
    payload = {
        "boundary_size": len(b),
        "contour_size_sum": total,
        "decomposition_ok": len(b) == total,
        "contours": records,
    }
    write_manifest(out_dir / "contours.json", payload)
    _write_run_manifest(out_dir, "contours", params, ["contours.json"])
    for i, g in enumerate(found):
        marks = sorted({sub.mark for sub in g.subcontours})
        print(f"contour {i}: marks {marks}, interior {len(g.interior)} sites, "
              f"size {g.size}")
    print(f"boundary size {len(b)}, sum of contour sizes {total}, "
          f"decomposition {'ok' if payload['decomposition_ok'] else 'BROKEN'}")
    if not payload["decomposition_ok"]:
        return EXIT_VERIFICATION
    return EXIT_OK


def _run_verify(params: dict, out_dir: Path) -> int:
    model = _resolve_model(params["model"])
    box = parse_box(params["box"])
    betas = params["betas"]
    stats = contour_statistics(model, box, params["exterior"], betas,
                               budget=params.get("budget"),
                               workers=params.get("workers", 1))
    rows = []
    violated = 0
    for st in stats:
        for rec in st.records:
            rows.append((st.beta, _contour_id(rec.contour), rec.size,
                         rec.probability, rec.bound, rec.slack))
        violated += len(st.violations)
    write_csv(out_dir / "peierls_bounds.csv",
              ["beta", "contour_id", "size", "probability", "bound", "slack"],
              rows)
    _write_run_manifest(out_dir, "verify", params, ["peierls_bounds.csv"])
    for st in stats:
        worst = st.records[0].slack if st.records else float("inf")
        print(f"beta {st.beta:g}: {len(st.records)} realizable contours, "
              f"min slack {worst:.6g}, violations {len(st.violations)}")
    if violated:
        print(f"FAILED: {violated} contour(s) above the probability bound")
        return EXIT_VERIFICATION
    return EXIT_OK


def _run_census(params: dict, out_dir: Path) -> int:
    outputs = []
    report = subgraph_census(params["d"], params["r"], params["n_max"],
                             budget=params.get("budget") or 10_000_000)
    write_csv(out_dir / "census_subgraphs.csv", ["n", "count", "bound", "ratio"],
              [(rec.n, rec.count, rec.bound, rec.ratio) for rec in report.records])
    outputs.append("census_subgraphs.csv")
    print(f"cube graph degree k = {report.k}")
    for rec in report.records:
        print(f"  connected sets n={rec.n}: {rec.count} <= {rec.bound:.6g}")
    if params.get("model") is not None:
        model = _resolve_model(params["model"])
        site = tuple(params["site"])
        creport = rooted_contour_counts(
            model, site, params["n_max"], exterior=params.get("exterior", 1),
            max_interior=params.get("max_interior"))
        write_csv(out_dir / "census_contours.csv", ["n", "count", "bound", "ratio"],
                  [(rec.n, rec.count, rec.bound, rec.ratio) for rec in creport.records])
        outputs.append("census_contours.csv")
        for rec in creport.records:
            if rec.count:
                print(f"  contours n={rec.n}: {rec.count} <= {rec.bound:.6g}")
    _write_run_manifest(out_dir, "census", params, outputs)
    return EXIT_OK


def _run_sample(params: dict, out_dir: Path) -> int:
    model = _resolve_model(params["model"])
    box = parse_box(params["box"])
    site = tuple(params["site"]) if params.get("site") else box.center
    ens = FiniteVolumeEnsemble(box=box, exterior=params.get("exterior", 1),
                               beta=params["beta"], model=model)
    spec = ChainSpec(ensemble=ens, seed=params["seed"],
                     burn_in=params["burn_in"], samples=params["samples"],
                     thinning=params.get("thinning", 1),
                     kernel=params.get("kernel", "heat-bath"))
    observables = {
        f"sigma{site}={v}".replace(" ", ""): site_indicator(box, site, v)
        for v in range(1, model.q + 1)
    }
    result = run_chain(spec, observables)
    rows = [
        (params["beta"], params["box"], name, result.means[name],
         result.stderrs[name], params["seed"])
        for name in sorted(result.means)
    ]
    write_csv(out_dir / "samples.csv",
              ["beta", "box", "observable", "estimate", "stderr", "seed"], rows)
    _write_run_manifest(out_dir, "sample", params, ["samples.csv"])
    for name in sorted(result.means):
        print(f"{name}: {result.means[name]:.6g} +- {result.stderrs[name]:.2g}")
    return EXIT_OK


def _run_coexist(params: dict, out_dir: Path) -> int:
    model = _resolve_model(params["model"])
    if not check_symmetry(model):
        raise InputError("coexistence check refused: the model is not symmetric "
                         "under the sector permutations")
    rows = []
    marginal_rows = []
    for spec_text in params["boxes"]:
        box = parse_box(spec_text)
        site = tuple(params["site"]) if params.get("site") else box.center
        records = coexistence_gap(model, box, site, params["betas"],
                                  budget=params.get("budget"),
                                  workers=params.get("workers", 1))
        for rec in records:
            rows.append((spec_text, rec.beta, rec.gap, rec.permutation_residual))
            for exterior, dist in ((1, rec.first_marginals),
                                   (2, rec.second_marginals)):
                for spin, value in enumerate(dist, start=1):
                    marginal_rows.append(
                        (spec_text, exterior, rec.beta, site, spin, value))
            print(f"box {spec_text} beta {rec.beta:g}: gap {rec.gap:.6g}, "
                  f"permutation residual {rec.permutation_residual:.3g}")
    write_csv(out_dir / "coexistence.csv",
              ["box", "beta", "gap", "permutation_residual"], rows)
    write_csv(out_dir / "marginals.csv",
              ["box", "exterior", "beta", "site", "spin", "marginal"],
              marginal_rows)
    _write_run_manifest(out_dir, "coexist", params,
                        ["coexistence.csv", "marginals.csv"])
    return EXIT_OK


_RUNNERS = {
    "model-check": _run_model_check,
    "contours": _run_contours,
    "verify": _run_verify,
    "census": _run_census,
    "sample": _run_sample,
    "coexist": _run_coexist,
}


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x) -> bool:
    return _is_int(x) or isinstance(x, float)


def _is_str(x) -> bool:
    return isinstance(x, str)


def _is_model(x) -> bool:
    """A model parameter as ``_model_param`` writes it."""
    return isinstance(x, dict) and (
        _is_str(x.get("builtin"))
        or (_is_str(x.get("path")) and _is_str(x.get("sha256", ""))))


def _list_of(check):
    return lambda x: isinstance(x, list) and all(map(check, x))


# Manifest parameters each command reads, as (required, optional) maps from
# name to value check.  Optional parameters may be missing or null.
_PARAMS = {
    "model-check": ({"model": _is_model}, {"budget": _is_int}),
    "contours": ({"model": _is_model, "config": _is_str}, {}),
    "verify": ({"model": _is_model, "box": _is_str,
                "betas": _list_of(_is_number), "exterior": _is_int},
               {"budget": _is_int, "workers": _is_int}),
    "census": ({"d": _is_int, "r": _is_int, "n_max": _is_int},
               {"budget": _is_int, "model": _is_model,
                "site": _list_of(_is_int), "exterior": _is_int,
                "max_interior": _is_int}),
    "sample": ({"model": _is_model, "box": _is_str, "beta": _is_number,
                "seed": _is_int, "samples": _is_int, "burn_in": _is_int},
               {"thinning": _is_int, "kernel": _is_str, "exterior": _is_int,
                "site": _list_of(_is_int)}),
    "coexist": ({"model": _is_model, "boxes": _list_of(_is_str),
                 "betas": _list_of(_is_number)},
                {"site": _list_of(_is_int), "budget": _is_int,
                 "workers": _is_int}),
}


def _check_params(command: str, params) -> None:
    """Refuse manifest parameters that ``command`` cannot run with."""
    if not isinstance(params, dict):
        raise InputError(f"manifest params must be an object, got {params!r}")
    required, optional = _PARAMS[command]
    for name in required:
        if name not in params:
            raise InputError(f"{command} manifest lacks parameter {name!r}")
    for name, check in {**optional, **required}.items():
        value = params.get(name)
        if (name in required or value is not None) and not check(value):
            raise InputError(
                f"{command} manifest parameter {name!r} has a bad value {value!r}")
    if (command == "census" and params.get("model") is not None
            and params.get("site") is None):
        raise InputError("census manifest with a model lacks parameter 'site'")


def _run_rerun(manifest_path: str, out_dir: Path, workers: int | None) -> int:
    manifest = load_manifest(manifest_path)
    if not isinstance(manifest, dict):
        raise InputError(f"{manifest_path}: a manifest must be a JSON object")
    command = manifest.get("command")
    if command not in _RUNNERS:
        raise InputError(f"manifest has unknown command {command!r}")
    params = manifest.get("params", {})
    _check_params(command, params)
    params = dict(params)
    if workers is not None:
        params["workers"] = workers
    return _RUNNERS[command](params, out_dir)


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _add_model_args(sub):
    sub.add_argument("--model", help="path to a model file")
    sub.add_argument("--builtin",
                     help="builtin model spec, e.g. potts:q=3,J=1 or ising:J=1 "
                          "or potts-excited:q=3,s=2,penalty=1")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="peierls",
        description="Exact desk-scale checks of contour machinery for "
                    "symmetric lattice spin models.")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("model-check", help="spectrum, certificate, symmetry")
    _add_model_args(p)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--out", default="peierls-out")

    p = subs.add_parser("contours", help="contour decomposition of a configuration")
    _add_model_args(p)
    p.add_argument("config", help="path to a configuration file")
    p.add_argument("--out", default="peierls-out")

    p = subs.add_parser("verify", help="exact contour probability bounds")
    _add_model_args(p)
    p.add_argument("--box", required=True, help="box spec: 4x4 or 0..3,0..3")
    p.add_argument("--betas", required=True, help="comma list, e.g. 0.5,1,2")
    p.add_argument("--exterior", type=int, default=1)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", default="peierls-out")

    p = subs.add_parser("census", help="counting bounds for cube sets and contours")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--n-max", type=int, required=True, dest="n_max")
    p.add_argument("--budget", type=int, default=None)
    _add_model_args(p)
    p.add_argument("--site", default="0,0", help="root site for contour counts")
    p.add_argument("--exterior", type=int, default=1)
    p.add_argument("--max-interior", type=int, default=None, dest="max_interior")
    p.add_argument("--out", default="peierls-out")

    p = subs.add_parser("sample", help="seeded single-site Monte Carlo")
    _add_model_args(p)
    p.add_argument("--box", required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--sweeps", type=int, required=True,
                   help="number of recorded sweeps after burn-in")
    p.add_argument("--burn-in", type=int, default=100, dest="burn_in")
    p.add_argument("--thin", type=int, default=1)
    p.add_argument("--kernel", choices=["heat-bath", "metropolis"],
                   default="heat-bath")
    p.add_argument("--exterior", type=int, default=1)
    p.add_argument("--site", default=None, help="observable site (default: center)")
    p.add_argument("--out", default="peierls-out")

    p = subs.add_parser("coexist", help="boundary-condition gap across boxes")
    _add_model_args(p)
    p.add_argument("--boxes", required=True,
                   help="semicolon list of box specs, e.g. 3x3;4x4")
    p.add_argument("--betas", required=True)
    p.add_argument("--site", default=None)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", default="peierls-out")

    p = subs.add_parser("rerun", help="re-execute a run manifest")
    p.add_argument("manifest")
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--out", default="peierls-out")

    return parser


def _params_from_args(args) -> dict:
    cmd = args.command
    if cmd == "model-check":
        return {"model": _model_param(args), "budget": args.budget}
    if cmd == "contours":
        return {"model": _model_param(args), "config": str(args.config)}
    if cmd == "verify":
        return {"model": _model_param(args), "box": box_spec(parse_box(args.box)),
                "betas": parse_betas(args.betas), "exterior": args.exterior,
                "budget": args.budget, "workers": args.workers}
    if cmd == "census":
        params = {"d": args.d, "r": args.r, "n_max": args.n_max,
                  "budget": args.budget}
        if args.model or args.builtin:
            params.update({"model": _model_param(args),
                           "site": list(parse_site(args.site)),
                           "exterior": args.exterior,
                           "max_interior": args.max_interior})
        else:
            params["model"] = None
        return params
    if cmd == "sample":
        return {"model": _model_param(args), "box": box_spec(parse_box(args.box)),
                "beta": args.beta, "seed": args.seed, "samples": args.sweeps,
                "burn_in": args.burn_in, "thinning": args.thin,
                "kernel": args.kernel, "exterior": args.exterior,
                "site": list(parse_site(args.site)) if args.site else None}
    if cmd == "coexist":
        boxes = [box_spec(parse_box(b)) for b in args.boxes.split(";") if b.strip()]
        if not boxes:
            raise InputError("empty box list")
        return {"model": _model_param(args), "boxes": boxes,
                "betas": parse_betas(args.betas),
                "site": list(parse_site(args.site)) if args.site else None,
                "budget": args.budget, "workers": args.workers}
    raise InputError(f"unknown command {cmd!r}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out_dir = Path(args.out)
    try:
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise InputError(f"cannot create output directory {out_dir}: "
                             f"{exc.strerror or exc}") from exc
        if args.command == "rerun":
            return _run_rerun(args.manifest, out_dir, args.workers)
        params = _params_from_args(args)
        return _RUNNERS[args.command](params, out_dir)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except VerificationError as exc:
        print(f"verification FAILED: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except FileNotFoundError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
