"""Command-line front door.

Subcommands: model-check, contours, verify, census, sample, coexist, rerun.
Every run writes its outputs plus a ``manifest.json`` into the output
directory; ``rerun MANIFEST`` re-executes a manifest, and with the same
worker count the CSV outputs are byte-identical.

Exit codes: 0 all checks pass, 1 a verified bound failed or a model is not
certifiable, 2 bad input, 3 an enumeration exceeded its budget, 4 an internal
error (any other exception; a defect, never a verdict on the model).

Each command is one row of ``_COMMANDS``: its runner, its help and its
parameters, from which the parser, the manifest params and rerun's checks
are all built.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from pathlib import Path
from typing import Callable, NamedTuple

from . import __version__
from .census import DEFAULT_SET_BUDGET, rooted_contour_counts, subgraph_census
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
EXIT_INTERNAL = 4


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


def _model_param(args, required: bool) -> dict | None:
    if args.builtin:
        return {"builtin": args.builtin}
    if args.model:
        return {"path": str(args.model), "sha256": sha256_file(args.model)}
    if required:
        raise InputError("a model is required: pass --model PATH or --builtin SPEC")
    return None


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


# ---------------------------------------------------------------------------
# Command implementations (callable from manifests); each returns its exit
# code and the names of the files it wrote.
# ---------------------------------------------------------------------------

def _run_model_check(params: dict, out_dir: Path) -> tuple:
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
    return (EXIT_OK if ok else EXIT_VERIFICATION), ["model_check.json"]


def _run_contours(params: dict, out_dir: Path) -> tuple:
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
    for i, g in enumerate(found):
        marks = sorted({sub.mark for sub in g.subcontours})
        print(f"contour {i}: marks {marks}, interior {len(g.interior)} sites, "
              f"size {g.size}")
    print(f"boundary size {len(b)}, sum of contour sizes {total}, "
          f"decomposition {'ok' if payload['decomposition_ok'] else 'BROKEN'}")
    return (EXIT_OK if payload["decomposition_ok"] else EXIT_VERIFICATION,
            ["contours.json"])


def _run_verify(params: dict, out_dir: Path) -> tuple:
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
    for st in stats:
        worst = st.records[0].slack if st.records else float("inf")
        print(f"beta {st.beta:g}: {len(st.records)} realizable contours, "
              f"min slack {worst:.6g}, violations {len(st.violations)}")
    if violated:
        print(f"FAILED: {violated} contour(s) above the probability bound")
    return (EXIT_VERIFICATION if violated else EXIT_OK), ["peierls_bounds.csv"]


def _run_census(params: dict, out_dir: Path) -> tuple:
    outputs = []
    budget = params.get("budget")
    if budget is None:
        budget = DEFAULT_SET_BUDGET
    report = subgraph_census(params["d"], params["r"], params["n_max"], budget=budget)
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
            max_interior=params.get("max_interior"), budget=budget)
        write_csv(out_dir / "census_contours.csv", ["n", "count", "bound", "ratio"],
                  [(rec.n, rec.count, rec.bound, rec.ratio) for rec in creport.records])
        outputs.append("census_contours.csv")
        for rec in creport.records:
            if rec.count:
                print(f"  contours n={rec.n}: {rec.count} <= {rec.bound:.6g}")
    return EXIT_OK, outputs


def _run_sample(params: dict, out_dir: Path) -> tuple:
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
    for name in sorted(result.means):
        print(f"{name}: {result.means[name]:.6g} +- {result.stderrs[name]:.2g}")
    return EXIT_OK, ["samples.csv"]


def _run_coexist(params: dict, out_dir: Path) -> tuple:
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
    return EXIT_OK, ["coexistence.csv", "marginals.csv"]


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


def _parse_boxes(text: str) -> list:
    boxes = [box_spec(parse_box(b)) for b in text.split(";") if b.strip()]
    if not boxes:
        raise InputError("empty box list")
    return boxes


class _Param(NamedTuple):
    """One command parameter, as the parser, the manifest and rerun see it.

    ``name`` is the manifest key and ``check`` its value check.  The flag is
    ``--name`` with dashes unless ``flag`` is given (a flag without dashes is
    positional).  Argparse converts the value with ``type``; ``parse`` turns
    text into the manifest value after parsing.  A manifest must carry a
    ``required`` parameter with a valid value, and the command line must give
    it unless it has a default.  A parameter that ``needs`` another is
    written, and required in a manifest, only when that one is not null.
    """

    name: str
    check: Callable
    flag: str = ""
    type: Callable | None = None
    parse: Callable | None = None
    default: object = None
    required: bool = False
    needs: str = ""
    help: str | None = None
    choices: tuple | None = None


class _Command(NamedTuple):
    run: Callable
    help: str
    params: tuple


_MODEL = _Param("model", _is_model, required=True)
_BOX = _Param("box", _is_str, parse=lambda text: box_spec(parse_box(text)),
              required=True, help="box spec: 4x4 or 0..3,0..3")
_BETAS = _Param("betas", _list_of(_is_number), parse=parse_betas, required=True,
                help="comma list, e.g. 0.5,1,2")
_SITE = _Param("site", _list_of(_is_int), parse=lambda text: list(parse_site(text)))
_WORKERS = _Param("workers", _is_int, type=int, default=1)


def _int_param(name, default=None, **kwargs) -> _Param:
    return _Param(name, _is_int, type=int, default=default, **kwargs)


_COMMANDS = {
    "model-check": _Command(_run_model_check, "spectrum, certificate, symmetry", (
        _MODEL, _int_param("budget"))),
    "contours": _Command(_run_contours, "contour decomposition of a configuration", (
        _MODEL,
        _Param("config", _is_str, flag="config", required=True,
               help="path to a configuration file"))),
    "verify": _Command(_run_verify, "exact contour probability bounds", (
        _MODEL, _BOX, _BETAS, _int_param("exterior", 1, required=True),
        _int_param("budget", DEFAULT_BUDGET), _WORKERS)),
    "census": _Command(_run_census, "counting bounds for cube sets and contours", (
        _int_param("d", 2, required=True),
        _int_param("r", 1, required=True),
        _int_param("n_max", required=True),
        _int_param("budget"),
        _MODEL._replace(required=False),
        _SITE._replace(default="0,0", required=True, needs="model",
                       help="root site for contour counts"),
        _int_param("exterior", 1, required=True, needs="model"),
        _int_param("max_interior", needs="model"))),
    "sample": _Command(_run_sample, "seeded single-site Monte Carlo", (
        _MODEL, _BOX,
        _Param("beta", _is_number, type=float, required=True),
        _int_param("seed", 1, required=True),
        _int_param("samples", flag="--sweeps", required=True,
                   help="number of recorded sweeps after burn-in"),
        _int_param("burn_in", 100, required=True),
        _int_param("thinning", 1, flag="--thin"),
        _Param("kernel", _is_str, default="heat-bath",
               choices=("heat-bath", "metropolis")),
        _int_param("exterior", 1),
        _SITE._replace(help="observable site (default: center)"))),
    "coexist": _Command(_run_coexist, "boundary-condition gap across boxes", (
        _MODEL,
        _Param("boxes", _list_of(_is_str), parse=_parse_boxes, required=True,
               help="semicolon list of box specs, e.g. 3x3;4x4"),
        _BETAS, _SITE,
        _int_param("budget", DEFAULT_BUDGET), _WORKERS)),
}


def _check_params(command: str, params) -> None:
    """Refuse parameters that ``command`` cannot run with."""
    if not isinstance(params, dict):
        raise InputError(f"manifest params must be an object, got {params!r}")
    for p in _COMMANDS[command].params:
        if p.needs and params.get(p.needs) is None:
            continue
        if (p.required or p.needs) and p.name not in params:
            raise InputError(f"{command} lacks parameter {p.name!r}")
        value = params.get(p.name)
        if (p.required or value is not None) and not p.check(value):
            raise InputError(
                f"{command} parameter {p.name!r} has a bad value {value!r}")


def _params_from_args(args) -> dict:
    """The manifest params of a parsed command line, text parsers applied."""
    params = {}
    for p in _COMMANDS[args.command].params:
        if p.needs and params.get(p.needs) is None:
            continue
        value = getattr(args, p.name, None)
        if p.name == "model":
            value = _model_param(args, p.required)
        elif p.parse is not None:
            value = p.parse(value) if value else None
        params[p.name] = value
    _check_params(args.command, params)
    return params


def _run_rerun(manifest_path: str, out_dir: Path, workers: int | None) -> int:
    manifest = load_manifest(manifest_path)
    if not isinstance(manifest, dict):
        raise InputError(f"{manifest_path}: a manifest must be a JSON object")
    command = manifest.get("command")
    if command not in _COMMANDS:
        raise InputError(f"manifest has unknown command {command!r}")
    params = manifest.get("params", {})
    _check_params(command, params)
    params = dict(params)
    if workers is not None:
        params["workers"] = workers
    return _run(command, params, out_dir)


def _run(command: str, params: dict, out_dir: Path) -> int:
    """Run a command and write its manifest beside its outputs."""
    code, outputs = _COMMANDS[command].run(params, out_dir)
    write_manifest(out_dir / "manifest.json", {
        "artifact": "peierls",
        "version": __version__,
        "command": command,
        "params": params,
        "outputs": outputs,
    })
    return code


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="peierls",
        description="Exact desk-scale checks of contour machinery for "
                    "symmetric lattice spin models.")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        sub = subs.add_parser(name, help=command.help)
        for p in command.params:
            flag = p.flag or "--" + p.name.replace("_", "-")
            if p.name == "model":
                sub.add_argument("--model", help="path to a model file")
                sub.add_argument("--builtin",
                                 help="builtin model spec, e.g. potts:q=3,J=1 or "
                                      "ising:J=1 or potts-excited:q=3,s=2,penalty=1")
            elif not flag.startswith("-"):
                sub.add_argument(flag, help=p.help)
            else:
                sub.add_argument(flag, dest=p.name, type=p.type, default=p.default,
                                 required=p.required and p.default is None,
                                 choices=p.choices, help=p.help)
        sub.add_argument("--out", default="peierls-out")

    sub = subs.add_parser("rerun", help="re-execute a run manifest")
    sub.add_argument("manifest")
    sub.add_argument("--workers", type=int, default=None)
    sub.add_argument("--out", default="peierls-out")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out_dir = Path(args.out)
    try:
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise InputError(f"cannot create output directory {out_dir}: "
                             f"{exc.strerror or exc}") from exc
        if args.command == "rerun":
            return _run_rerun(args.manifest, out_dir, args.workers)
        return _run(args.command, _params_from_args(args), out_dir)
    except (InputError, FileNotFoundError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except VerificationError as exc:
        print(f"verification FAILED: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except Exception as exc:
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
