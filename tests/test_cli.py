import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from peierls import (Box, Configuration, FiniteVolumeEnsemble, VerificationError,
                     potts_model, verify_peierls_bound)
from peierls import census, cli, exact
from peierls.cli import main, parse_box, parse_site
from peierls.io import load_manifest, save_configuration, save_model


def run(tmp_path, *argv):
    return main([str(a) for a in argv])


def test_parse_box_forms():
    assert parse_box("4x4") == Box((0, 0), (3, 3))
    assert parse_box("-1..2,-1..1") == Box((-1, -1), (2, 1))
    assert parse_site("3,-2") == (3, -2)
    from peierls import InputError
    with pytest.raises(InputError):
        parse_box("4")
    with pytest.raises(InputError):
        parse_box("a..b,c..d")


def test_model_check_builtin(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["model-check", "--builtin", "potts:q=2,J=1", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "certified" in text
    payload = json.loads((out / "model_check.json").read_text())
    assert payload["min_energy"] == -4.0
    assert payload["gap"] == 2.0
    assert payload["certified"] and payload["symmetric"]
    manifest = load_manifest(out / "manifest.json")
    assert manifest["command"] == "model-check"


def test_model_check_uncertifiable_model_exits_one(tmp_path):
    bad = tmp_path / "empty.txt"
    bad.write_text("dims 2 1 2 2\n")
    assert main(["model-check", "--model", str(bad),
                 "--out", str(tmp_path / "o")]) == 1


def test_model_check_parse_error_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("dims 2 1\n")
    assert main(["model-check", "--model", str(bad),
                 "--out", str(tmp_path / "o")]) == 2
    assert "bad.txt:1" in capsys.readouterr().err


def test_budget_exceeded_exits_three(tmp_path, capsys):
    assert main(["verify", "--builtin", "ising", "--box", "4x4",
                 "--betas", "1", "--budget", "100",
                 "--out", str(tmp_path / "o")]) == 3
    assert "65536" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    # 509 subgraph sets fit, the 3,699 marked-interior sets do not
    ["census", "--n-max", "4", "--builtin", "potts:q=3", "--max-interior", "5",
     "--budget", "600"],
    ["census", "--n-max", "1", "--budget", "0"],
])
def test_census_budget_bounds_every_stage(tmp_path, capsys, argv):
    assert main(argv + ["--out", str(tmp_path / "o")]) == 3
    assert "capacity error" in capsys.readouterr().err
    assert not (tmp_path / "o" / "census_subgraphs.csv").exists()


@pytest.mark.parametrize("argv", [
    ["census", "--n-max", "4", "--builtin", "ising", "--exterior", "3"],
    ["census", "--n-max", "4", "--builtin", "ising", "--site", "0"],
    ["census", "--n-max", "4", "--builtin", "ising", "--max-interior", "0"],
    ["census", "--n-max", "4", "--builtin", "potts:q=2,r=2"],  # no default cap
])
def test_census_refuses_bad_contour_input_before_the_subgraph_census(
        tmp_path, capsys, argv):
    assert main(argv + ["--out", str(tmp_path / "o")]) == 2
    assert "connected sets" not in capsys.readouterr().out
    assert not (tmp_path / "o" / "census_subgraphs.csv").exists()


def test_contours_command(tmp_path, capsys):
    model = potts_model(q=2)
    mpath = tmp_path / "model.txt"
    save_model(model, mpath)
    box = Box((0, 0), (3, 3))
    config = Configuration.constant(box, 1).replace({(1, 1): 2, (3, 3): 2})
    cpath = tmp_path / "config.txt"
    save_configuration(config, model, cpath)
    out = tmp_path / "run"
    assert main(["contours", "--model", str(mpath), str(cpath),
                 "--out", str(out)]) == 0
    payload = json.loads((out / "contours.json").read_text())
    assert payload["decomposition_ok"]
    assert len(payload["contours"]) == 2
    assert payload["boundary_size"] == payload["contour_size_sum"]
    text = capsys.readouterr().out
    assert "decomposition ok" in text


def test_contours_command_dimension_mismatch(tmp_path):
    model = potts_model(q=2)
    other = potts_model(q=3)
    mpath = tmp_path / "model.txt"
    save_model(model, mpath)
    cpath = tmp_path / "config.txt"
    box = Box((0, 0), (1, 1))
    save_configuration(Configuration.constant(box, 1), other, cpath)
    assert main(["contours", "--model", str(mpath), str(cpath),
                 "--out", str(tmp_path / "o")]) == 2


def test_verify_census_sample_coexist_and_rerun_byte_identical(tmp_path):
    checks = [
        (["verify", "--builtin", "ising", "--box", "3x3", "--betas", "0.5,1"],
         "peierls_bounds.csv"),
        (["census", "--n-max", "4", "--builtin", "ising", "--site", "0,0"],
         "census_subgraphs.csv"),
        (["census", "--n-max", "4", "--builtin", "ising", "--site", "0,0"],
         "census_contours.csv"),
        (["sample", "--builtin", "ising", "--box", "3x3", "--beta", "1",
          "--seed", "9", "--sweeps", "200"], "samples.csv"),
        (["coexist", "--builtin", "ising", "--boxes", "2x2;3x3",
          "--betas", "0.5,2"], "coexistence.csv"),
        (["coexist", "--builtin", "ising", "--boxes", "2x2",
          "--betas", "1"], "marginals.csv"),
    ]
    for i, (argv, artifact) in enumerate(checks):
        first = tmp_path / f"first{i}"
        second = tmp_path / f"second{i}"
        assert main(argv + ["--out", str(first)]) == 0
        assert main(["rerun", str(first / "manifest.json"), "--workers", "1",
                     "--out", str(second)]) == 0
        original = (first / artifact).read_bytes()
        rerun_bytes = (second / artifact).read_bytes()
        assert original == rerun_bytes
        assert original.startswith(b"beta") or original.startswith(b"n,") or \
            original.startswith(b"box")


# Options whose value starts with a minus sign, once as two arguments and once
# as --opt=value; both forms must run and write the same manifest and CSVs.
DASH_VALUE_CASES = [
    (["verify", "--builtin", "ising", "--box", "-1..1,-1..1", "--betas", "1"],
     ["verify", "--builtin", "ising", "--box=-1..1,-1..1", "--betas", "1"]),
    (["coexist", "--builtin", "ising", "--boxes", "-1..1,-1..1", "--betas", "1"],
     ["coexist", "--builtin", "ising", "--boxes=-1..1,-1..1", "--betas", "1"]),
    (["census", "--n-max", "3", "--builtin", "ising", "--site", "-1,0"],
     ["census", "--n-max", "3", "--builtin", "ising", "--site=-1,0"]),
    (["sample", "--builtin", "ising", "--box", "-1..1,-1..1", "--beta", "0.5",
      "--sweeps", "10", "--site", "-1,0"],
     ["sample", "--builtin", "ising", "--box=-1..1,-1..1", "--beta", "0.5",
      "--sweeps", "10", "--site=-1,0"]),
]


@pytest.mark.parametrize("separate,glued", DASH_VALUE_CASES,
                         ids=[case[0][0] for case in DASH_VALUE_CASES])
def test_negative_coordinates_as_separate_arguments(tmp_path, separate, glued):
    outputs = []
    for form, argv in (("separate", separate), ("glued", glued)):
        out = tmp_path / form
        assert main(argv + ["--out", str(out)]) == 0
        outputs.append({path.name: path.read_bytes() for path in sorted(out.iterdir())})
    assert "manifest.json" in outputs[0]
    assert outputs[0] == outputs[1]


def test_rerun_detects_model_file_change(tmp_path):
    model = potts_model(q=2)
    mpath = tmp_path / "model.txt"
    save_model(model, mpath)
    out = tmp_path / "run"
    assert main(["verify", "--model", str(mpath), "--box", "2x2",
                 "--betas", "1", "--out", str(out)]) == 0
    mpath.write_text(mpath.read_text() + "# changed\n")
    assert main(["rerun", str(out / "manifest.json"),
                 "--out", str(tmp_path / "o2")]) == 2


def test_coexist_refuses_asymmetric_model(tmp_path):
    from peierls import InteractionTerm, ModelSpec
    from peierls.io import save_model as save
    field = InteractionTerm.from_table([(0, 0)], {(1,): -0.5})
    biased = ModelSpec(d=2, r=1, q=2, s=2,
                       terms=potts_model(q=2).terms + (field,))
    mpath = tmp_path / "biased.txt"
    save(biased, mpath)
    assert main(["coexist", "--model", str(mpath), "--boxes", "2x2",
                 "--betas", "1", "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("edit", [
    {"command": "verify"},  # model-check params lack "box"
    {"params": {"model": "ising", "budget": None}},  # a bare model string
    {"params": [1, 2]},
])
def test_rerun_of_a_bad_manifest_exits_two(tmp_path, capsys, edit):
    out = tmp_path / "run"
    assert main(["model-check", "--builtin", "ising", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    manifest.update(edit)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(manifest))
    assert main(["rerun", str(bad), "--out", str(tmp_path / "o2")]) == 2
    assert "input error" in capsys.readouterr().err


def test_unwritable_out_directory_exits_two(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["model-check", "--builtin", "ising",
                 "--out", str(blocker / "run")]) == 2
    assert "output directory" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["census", "--n-max", "0"],
    ["census", "--n-max", "3", "--r", "0"],
    ["census", "--n-max", "3", "--d", "0"],
    ["verify", "--builtin", "ising", "--box", "2x2", "--betas", "1",
     "--exterior", "5"],
    ["verify", "--builtin", "ising", "--box", "2y2", "--betas", "1"],
    ["verify", "--builtin", "ising", "--box", "2x2x2", "--betas", "1"],
    ["coexist", "--builtin", "ising", "--boxes", "2x2x2", "--betas", "1"],
    ["verify", "--builtin", "ising", "--box", "2x2", "--betas", "1",
     "--budget", str((1 << 62) + 1)],
    ["census", "--n-max", "4", "--builtin", "ising", "--site", "0"],
    ["census", "--n-max", "4", "--builtin", "ising", "--site", "0,0,0"],
    ["verify", "--builtin", "ising", "--box", "2x2", "--betas", "nan"],
    ["verify", "--builtin", "ising", "--box", "2x2", "--betas", "1,inf"],
    ["verify", "--builtin", "ising", "--box", "2x2", "--betas", "-1000"],
    ["coexist", "--builtin", "ising", "--boxes", "2x2", "--betas", "nan"],
    ["coexist", "--builtin", "ising", "--boxes", "2x2", "--betas", "inf"],
    ["coexist", "--builtin", "ising", "--boxes", "2x2", "--betas", "-1"],
    ["sample", "--builtin", "ising", "--box", "2x2", "--beta", "nan",
     "--sweeps", "10"],
    ["sample", "--builtin", "ising", "--box", "4x4", "--beta", "1",
     "--sweeps", "10", "--site", "1"],
    ["coexist", "--builtin", "ising", "--boxes", "2x2", "--betas", "1",
     "--site", "1,1,1"],
    ["census", "--n-max", "4", "--builtin", "ising", "--max-interior", "0"],
    ["census", "--n-max", "4", "--builtin", "ising", "--max-interior", "-3"],
    ["verify", "--builtin", "ising", "--box", "2x2", "--betas", "1",
     "--budget", "-1"],
    ["coexist", "--builtin", "ising", "--boxes", "2x2", "--betas", "1",
     "--budget", "-1"],
    ["model-check", "--builtin", "ising", "--budget", "-1"],
    ["census", "--n-max", "2", "--budget", "-1"],
    ["verify", "--builtin", "ising", "--box", "2x2", "--betas", "1",
     "--workers", "-3"],
    ["coexist", "--builtin", "ising", "--boxes", "2x2", "--betas", "1",
     "--workers", "0"],
    ["rerun", str(Path(__file__).parent / "manifests" / "verify.json"),
     "--workers", "0"],
    # set sizes above census.MAX_SET_SIZE, in either stage
    ["census", "--n-max", "1200"],
    ["census", "--n-max", "1200", "--d", "1"],
    ["census", "--n-max", "2", "--builtin", "ising", "--max-interior", "1000000"],
    # cube energies that are not finite
    ["model-check", "--builtin", "potts:J=nan"],
    ["model-check", "--builtin", "ising:J=inf"],
    ["model-check", "--builtin", "potts:J=1e308"],
    ["model-check", "--model", str(Path(__file__).parent / "models" / "nan_entry.txt")],
])
def test_bad_input_exits_two(tmp_path, capsys, argv):
    assert main(argv + ["--out", str(tmp_path / "o")]) == 2
    assert "input error" in capsys.readouterr().err


def test_stray_exception_exits_four(tmp_path, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise IndexError("list index out of range")

    monkeypatch.setattr(cli, "potential_spectrum", broken)
    assert main(["model-check", "--builtin", "ising",
                 "--out", str(tmp_path / "o")]) == 4
    err = capsys.readouterr().err
    assert "internal error" in err and "IndexError" in err


# Negative controls: each check fails, with exit 1, when its claim is false at
# its input.  None changes a check, a tolerance or a pinned output.

def test_census_fails_below_the_counts(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(census, "max_degree", lambda d, r: 1)  # (e*1)^2 < 8
    assert main(["census", "--n-max", "4", "--out", str(tmp_path / "o")]) == 1
    assert "verification FAILED" in capsys.readouterr().err


def test_verify_fails_with_three_times_the_gap(tmp_path, capsys, monkeypatch):
    # on ising 3x3 at beta 0.5 the bound for size 4 becomes e^-12, about
    # 6.1e-6, far below the probability of a single flipped site
    check_sweep = exact._check_sweep

    def tripled(*args):
        report = check_sweep(*args)
        return dataclasses.replace(report, gap=3 * report.gap)

    monkeypatch.setattr(exact, "_check_sweep", tripled)
    assert main(["verify", "--builtin", "ising", "--box", "3x3", "--betas", "0.5",
                 "--out", str(tmp_path / "o")]) == 1
    assert "FAILED" in capsys.readouterr().out
    ens = FiniteVolumeEnsemble(box=Box((0, 0), (2, 2)), exterior=1, beta=0.5,
                               model=potts_model(q=2))
    with pytest.raises(VerificationError) as caught:
        verify_peierls_bound(ens)
    witness = caught.value.witness
    assert witness.bound < witness.probability


def test_contours_reports_a_broken_decomposition(tmp_path, capsys, monkeypatch):
    boundary = cli.boundary

    def one_cube_short(config, model):
        found = boundary(config, model)
        first = min(found.improper_cubes, key=lambda cube: cube.anchor)
        return dataclasses.replace(found, improper_cubes=found.improper_cubes - {first})

    monkeypatch.setattr(cli, "boundary", one_cube_short)
    model = potts_model(q=2)
    save_model(model, tmp_path / "model.txt")
    config = Configuration.constant(Box((0, 0), (3, 3)), 1).replace({(1, 1): 2})
    save_configuration(config, model, tmp_path / "config.txt")
    out = tmp_path / "run"
    assert main(["contours", "--model", str(tmp_path / "model.txt"),
                 str(tmp_path / "config.txt"), "--out", str(out)]) == 1
    assert "decomposition BROKEN" in capsys.readouterr().out
    payload = json.loads((out / "contours.json").read_text())
    assert (payload["boundary_size"], payload["contour_size_sum"]) == (3, 4)
    assert payload["decomposition_ok"] is False


# Command lines whose manifest.json bytes are pinned in tests/manifests/, once
# with defaults only and once with every option set; {tmp} stands for the
# test's tmp_path, where model.txt and config.txt are written.
MANIFEST_CASES = {
    "model-check": ["model-check", "--builtin", "ising"],
    "model-check-all": ["model-check", "--model", "{tmp}/model.txt",
                        "--budget", "64"],
    "contours": ["contours", "--builtin", "potts:q=2", "{tmp}/config.txt"],
    "contours-all": ["contours", "--model", "{tmp}/model.txt",
                     "{tmp}/config.txt"],
    "verify": ["verify", "--builtin", "ising", "--box", "2x2", "--betas", "1"],
    "verify-all": ["verify", "--model", "{tmp}/model.txt", "--box",
                   "1..2,0..1", "--betas", "0.5,2", "--exterior", "2",
                   "--budget", "4096", "--workers", "2"],
    "census": ["census", "--n-max", "3"],
    "census-all": ["census", "--n-max", "2", "--d", "3", "--r", "1",
                   "--budget", "100000"],
    "census-model": ["census", "--n-max", "4", "--builtin", "ising"],
    "census-model-all": ["census", "--n-max", "4", "--d", "2", "--r", "1",
                         "--budget", "100000", "--model", "{tmp}/model.txt",
                         "--site", "1,-1", "--exterior", "2",
                         "--max-interior", "2"],
    "sample": ["sample", "--builtin", "ising", "--box", "2x2", "--beta", "1",
               "--sweeps", "10"],
    "sample-all": ["sample", "--model", "{tmp}/model.txt", "--box", "0..1,1..2",
                   "--beta", "0.5", "--seed", "3", "--sweeps", "10",
                   "--burn-in", "5", "--thin", "2", "--kernel", "metropolis",
                   "--exterior", "2", "--site", "1,1"],
    "coexist": ["coexist", "--builtin", "ising", "--boxes", "2x2", "--betas", "1"],
    "coexist-all": ["coexist", "--model", "{tmp}/model.txt", "--boxes",
                    "2x2;0..1,0..2", "--betas", "0.5,1", "--site", "0,1",
                    "--budget", "4096", "--workers", "2"],
}


@pytest.mark.parametrize("via", ["command-line", "rerun"])
@pytest.mark.parametrize("case", sorted(MANIFEST_CASES))
def test_manifests_are_pinned(tmp_path, case, via):
    model = potts_model(q=2)
    save_model(model, tmp_path / "model.txt")
    config = Configuration.constant(Box((0, 0), (2, 2)), 1).replace({(1, 1): 2})
    save_configuration(config, model, tmp_path / "config.txt")
    argv = [a.replace("{tmp}", str(tmp_path)) for a in MANIFEST_CASES[case]]
    out = tmp_path / "first"
    assert main(argv + ["--out", str(out)]) == 0
    if via == "rerun":
        assert main(["rerun", str(out / "manifest.json"),
                     "--out", str(tmp_path / "second")]) == 0
        out = tmp_path / "second"
    text = (out / "manifest.json").read_text().replace(str(tmp_path), "{tmp}")
    pinned = Path(__file__).parent / "manifests" / f"{case}.json"
    assert text == pinned.read_text()


# sha256 of every CSV two command lines write, recorded in
# tests/csv_digests.json.  A change to the order of summation changes the last
# bits of these numbers: it re-records the digests and says so.
CSV_DIGESTS = Path(__file__).parent / "csv_digests.json"


@pytest.mark.parametrize("case", sorted(json.loads(CSV_DIGESTS.read_text())))
def test_csv_bytes_are_pinned(tmp_path, case):
    pinned = json.loads(CSV_DIGESTS.read_text())[case]
    out = tmp_path / case
    assert main(pinned["argv"] + ["--out", str(out)]) == 0
    got = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
           for path in sorted(out.glob("*.csv"))}
    assert got == pinned["sha256"]
