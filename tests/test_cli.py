"""End-to-end runs of the batch CLI: exit codes, files, digests, schemas."""

import argparse
import csv
import hashlib
import io
import json
import time
from pathlib import Path

import jsonschema
import numpy as np
import numpy.testing as npt
import pytest

from nbodylab import cli, models, reporting
from nbodylab.cli import _sweep_csv_chunks, build_parser, main
from nbodylab.fourbody import TraceSweepResult, trace_sweep
from nbodylab.reporting import RunReport, validate_payload


def run_ok(argv, capsys):
    """Run the CLI, assert success, return the created run directory."""
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    run_dir = Path(out.strip().splitlines()[-1])
    assert run_dir.is_dir()
    return run_dir


def only_run_dir(base: Path) -> Path:
    dirs = [p for p in Path(base).iterdir() if p.is_dir()]
    assert len(dirs) == 1
    return dirs[0]


def check_manifest(run_dir: Path) -> dict:
    manifest = json.loads((run_dir / "manifest.json").read_text())
    validate_payload(manifest, "manifest")
    assert manifest["outputs"]
    for name, digest in manifest["outputs"].items():
        assert hashlib.sha256((run_dir / name).read_bytes()).hexdigest() == digest
    return manifest


def test_solve_cc_equal_masses_reports_obstructed_spectrum(tmp_path, capsys):
    run_dir = run_ok(["solve-cc", "--masses", "1,1,1", "--out", str(tmp_path)],
                     capsys)
    payload = json.loads((run_dir / "solve_cc.json").read_text())
    validate_payload(payload, "solve_cc")
    npt.assert_allclose(payload["spectrum"]["eigenvalues"], [0.0, 2.0, 4.8],
                        atol=1e-9)
    assert payload["spectrum"]["matches"] == [1, 2, None]
    assert payload["spectrum"]["obstructed"] is True
    npt.assert_allclose(payload["multiplier"], -1.0, rtol=1e-12)
    header = (run_dir / "eigenvalues.csv").read_text().splitlines()[0]
    assert header == "index,eigenvalue,admissible_match"
    check_manifest(run_dir)


def test_ek_writes_exact_masses_at_unit_rho(tmp_path, capsys):
    run_dir = run_ok(["ek", "--k", "5", "--rho", "1", "--out", str(tmp_path)],
                     capsys)
    payload = json.loads((run_dir / "ek.json").read_text())
    validate_payload(payload, "ek")
    assert [m["numerator"] for m in payload["masses"]] == [12, 11, 12]
    assert [m["denominator"] for m in payload["masses"]] == [35, 35, 35]
    assert payload["positive"] is True
    assert payload["spectrum_error"] <= 1e-12
    lines = (run_dir / "masses.csv").read_text().splitlines()
    assert lines[0] == "body,numerator,denominator,value"
    assert len(lines) == 4
    check_manifest(run_dir)


def test_ek_invalid_k_exits_2_with_error_json(tmp_path, capsys):
    code = main(["ek", "--k", "7", "--rho", "1", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "InvalidKError" in err
    run_dir = only_run_dir(tmp_path)
    payload = json.loads((run_dir / "error.json").read_text())
    validate_payload(payload, "error")
    assert payload["error"]["type"] == "InvalidKError"
    assert not (run_dir / "manifest.json").exists()


@pytest.mark.parametrize("argv,error", [
    (["ek", "--k", "5", "--rho", "1e40"], "FloatRangeError"),
    (["ek", "--k", "14", "--rho", "3.3e38"], "FloatRangeError"),
    (["check-subspace", "--builtin", "n3", "--n", "80", "--samples", "1"],
     "SamplingStalledError"),
], ids=["ek-rho-1e40", "ek-rho-nan-mass", "check-subspace-n3-80"])
def test_float_range_and_stalled_sampling_exit_2_with_error_json(tmp_path, capsys, argv,
                                                                 error):
    code = main([*argv, "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"nbodylab {argv[0]}: {error}: ")
    payload = json.loads((only_run_dir(tmp_path) / "error.json").read_text())
    validate_payload(payload, "error")
    assert payload["error"]["type"] == error


def test_planar_equal_masses_is_obstructed(tmp_path, capsys):
    run_dir = run_ok(["planar", "--masses", "1,1,1", "--out", str(tmp_path)],
                     capsys)
    payload = json.loads((run_dir / "planar.json").read_text())
    validate_payload(payload, "planar")
    npt.assert_allclose(payload["eigenvalues"],
                        [-2.4, -1.0, 0.0, 0.0, 2.0, 4.8], atol=1e-9)
    assert payload["verdict"] == "obstructed"
    assert payload["block_error"] <= 1e-10
    check_manifest(run_dir)


def test_sweep_small_grid_writes_rows_and_digests(tmp_path, capsys):
    run_dir = run_ok(["sweep", "--rho-max", "4", "--cells", "25",
                      "--no-refine", "--out", str(tmp_path)], capsys)
    payload = json.loads((run_dir / "sweep.json").read_text())
    validate_payload(payload, "sweep")
    assert payload["violations"] == 0
    assert payload["global_max"] < 70.0
    assert "numerical evidence" in payload["caveat"]
    lines = (run_dir / "sweep.csv").read_text().splitlines()
    assert lines[0] == "rho1,rho2,which_Mi,m3_at_max,trace_max"
    assert len(lines) == payload["row_count"] + 1
    check_manifest(run_dir)


_FROZEN_SWEEP = ["sweep", "--rho-max", "6", "--cells", "60", "--no-refine"]


def test_sweep_output_bytes_are_frozen(tmp_path, capsys):
    run_dir = run_ok([*_FROZEN_SWEEP, "--out", str(tmp_path)], capsys)
    digests = {name: hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
               for name in ("sweep.csv", "sweep.json")}
    assert digests == {
        "sweep.csv": "cf6a46bff8bfd5a5bd03824b126aabce22e9662cb043b1fbd30f0a204bfee467",
        "sweep.json": "fc350e715e9777bf361bf388d14d731ffa1d1775d8686558feb4a1843d67ff0d",
    }


@pytest.mark.parametrize("jobs,json_digest", [
    ("1", "d6ceaf53fb1e0289cdd49df5e7a4041ffb2c8c9a524e72d94c9aabe70ad58c27"),
    ("2", "3a5d5f27c3238a0730448da9881f2569a011e7ddd1f4f0cf6e987ab1b5850045"),
])
def test_refined_sweep_output_bytes_are_frozen(tmp_path, capsys, jobs, json_digest):
    run_dir = run_ok(["sweep", "--rho-max", "20", "--cells", "150", "--jobs", jobs,
                      "--out", str(tmp_path)], capsys)
    digests = {name: hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
               for name in ("sweep.csv", "sweep.json")}
    assert digests == {
        "sweep.csv": "459adf5f78d2ba5a802336eb24b1e4dcec7e483c4fa258b477aa7a69fb79b445",
        "sweep.json": json_digest,
    }
    check_manifest(run_dir)


def _columns(*values, dtype=float):
    return np.array(values, dtype=dtype)


def test_sweep_csv_chunks_are_the_csv_writer_text():
    axis = _columns(1.1, 1.0000000000000002, 1.2345678901234568e+17)
    odd = TraceSweepResult(
        rho_max=2.0, cells=3, global_max=1.0, argmax=(), axis=axis, chunks=[
            (_columns(0, 2, dtype=int), _columns(0, 1, dtype=int), _columns(1, 4, dtype=int),
             _columns(-0.0, np.nan), _columns(1e-17, np.inf)),
            (_columns(dtype=int), _columns(dtype=int), _columns(dtype=int), _columns(),
             _columns()),
            (_columns(1, dtype=int), _columns(1, dtype=int), _columns(0, dtype=int),
             _columns(0.1), _columns(-1.5e300)),
        ], violations=[], empty_cells=0, refined=False)
    for result in (odd, trace_sweep(rho_max=4.0, cells=210)):
        text = io.StringIO()
        writer = csv.writer(text, lineterminator="\n")
        writer.writerow(("rho1", "rho2", "which_Mi", "m3_at_max", "trace_max"))
        writer.writerows(result.rows)
        assert "".join(_sweep_csv_chunks(result)) == text.getvalue()


def test_write_csv_writes_floats_as_shortest_repr(tmp_path):
    report = RunReport(tmp_path, "sweep", {})
    path = report.write_csv("t.csv", ("a", "b", "c", "d", "e", "f"), [
        (np.float64(0.1), 1e-17, 1.2345678901234568e+17, -0.0, np.int64(3), ""),
    ])
    assert path.read_text() == "a,b,c,d,e,f\n0.1,1e-17,1.2345678901234568e+17,-0.0,3,\n"


def test_same_second_runs_get_their_own_directories(tmp_path, capsys, monkeypatch):
    stamp = time.gmtime()
    monkeypatch.setattr(reporting.time, "gmtime", lambda: stamp)
    argv = ["ek", "--k", "5", "--rho", "1", "--out", str(tmp_path)]
    first, second = run_ok(argv, capsys), run_ok(argv, capsys)
    assert second == first.with_name(f"{first.name}-2")
    assert sorted(p.name for p in tmp_path.iterdir()) == [first.name, second.name]
    for run_dir in (first, second):
        manifest = check_manifest(run_dir)
        assert sorted(manifest["outputs"]) == ["ek.json", "masses.csv"]


def test_sweep_runs_are_byte_identical(tmp_path, capsys):
    outs = []
    for sub in ("a", "b"):
        run_dir = run_ok(["sweep", "--rho-max", "3", "--cells", "20",
                          "--no-refine", "--out", str(tmp_path / sub)], capsys)
        outs.append(run_dir)
    for name in ("sweep.json", "sweep.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_sweep_without_feasible_cell_exits_2_with_error_json(tmp_path, capsys):
    code = main(["sweep", "--rho-max", "1.001", "--cells", "2",
                 "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "EmptyFeasibleSetError" in err
    run_dir = only_run_dir(tmp_path)
    payload = json.loads((run_dir / "error.json").read_text())
    validate_payload(payload, "error")
    assert payload["error"]["type"] == "EmptyFeasibleSetError"
    assert not (run_dir / "sweep.json").exists()


def test_invalid_payload_still_raises_after_a_valid_write(tmp_path):
    # the schema's validator is built once and reused for every payload
    report = RunReport(tmp_path, "ek", {})
    valid = {"subcommand": "ek", "parameters": {},
             "error": {"type": "InvalidKError", "message": "bad k"}}
    report.write_json("error.json", valid, "error")
    with pytest.raises(jsonschema.ValidationError):
        report.write_json("error.json", {**valid, "error": {"type": 3}}, "error")
    with pytest.raises(jsonschema.ValidationError):
        validate_payload({"subcommand": "ek"}, "error")


def test_pairs_symmetric_mode_finds_the_four_feasible(tmp_path, capsys):
    run_dir = run_ok(["pairs", "--mode", "symmetric", "--out", str(tmp_path)],
                     capsys)
    payload = json.loads((run_dir / "pairs.json").read_text())
    validate_payload(payload, "pairs")
    assert payload["counts"] == {"enumerated": 26, "feasible": 4,
                                 "excluded-by-Z0": 22}
    feasible = {tuple(p["pair"]) for p in payload["pairs"]
                if p["status"] == "feasible"}
    assert feasible == {(5, 9), (5, 14), (9, 27), (14, 44)}
    lines = (run_dir / "pairs.csv").read_text().splitlines()
    assert lines[0] == "lambda1,lambda2,status,min_abs_z0,order2_conditions"
    assert len(lines) == 27
    check_manifest(run_dir)


def test_pairs_runs_are_byte_identical(tmp_path, capsys):
    outs = []
    for sub in ("a", "b"):
        outs.append(run_ok(["pairs", "--cells", "40", "--out", str(tmp_path / sub)],
                           capsys))
    for name in ("pairs.json", "pairs.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_simulate_five_body_trajectory_columns(tmp_path, capsys):
    run_dir = run_ok(["simulate", "--model", "five-body", "--t-end", "5",
                      "--samples", "101", "--out", str(tmp_path)], capsys)
    payload = json.loads((run_dir / "simulate.json").read_text())
    validate_payload(payload, "simulate")
    assert payload["model"] == "five-body"
    assert payload["dof"] == 4
    assert max(payload["drift"].values()) <= 1e-9
    lines = (run_dir / "trajectory.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header[:9] == ["t", "q0", "q1", "q2", "q3", "p0", "p1", "p2", "p3"]
    assert header[9:] == ["pair_energy_1", "pair_energy_2",
                          "pair_angular_momentum_1", "pair_angular_momentum_2",
                          "energy"]
    assert len(lines) == 102
    check_manifest(run_dir)


_FULL_STATE = ["--q0", "1,0,-0.5,0.8,-0.4,-0.9", "--p0", "0,0.5,-0.45,-0.2,0.4,-0.3"]
# four bodies in space, and six on the plane: a 15-term pair sum, which numpy
# adds in its unrolled order rather than one term after another
_FULL_D3 = ["--d", "3", "--masses", "1,2,0.5,1.5",
            "--q0", "1,0,0.2,-0.6,0.9,-0.1,-0.5,-0.8,0.3,0.2,0.1,-1.1",
            "--p0", "0,0.4,0.1,-0.3,-0.1,0.05,0.5,-0.2,-0.1,-0.2,0.1,0.2"]
_FULL_N6 = ["--masses", "1,2,0.5,1.5,1,0.8",
            "--q0", "1.2,0,0.6,1.0,-0.6,1.1,-1.3,0.1,-0.5,-1.0,0.7,-0.9",
            "--p0", "0,0.5,-0.4,0.2,-0.3,-0.3,0.1,-0.5,0.4,-0.2,0.3,0.4"]


@pytest.mark.parametrize("argv,expected", [
    (["simulate", "--model", "five-body", "--t-end", "5", "--samples", "51"], {
        "trajectory.csv": "71a76b3bbc0e8ee39ac407c259084fe35fb95b1462bece602f0772c671e14c07",
        "simulate.json": "c1b3c584e46788ff6053dc6c4336fcf080fe7c13a9204ae50faf14bfc875038c",
    }),
    (["simulate", "--model", "full", "--masses", "1,1,1", *_FULL_STATE,
      "--t-end", "2", "--samples", "51"], {
        "trajectory.csv": "32b4bde437efd35e4ac7ccfb43cf11d8f3b577e3a18c3caa8e0b9f7f000bde41",
        "simulate.json": "c3b4c67e457fa985489affcd008ae8e1d492598297522606ffa7cd4146024bfd",
    }),
    (["simulate", "--model", "n3", "--samples", "51"], {
        "trajectory.csv": "206e2374b0553c081e32320829243211cfb5d4a023c17ad5119b64e9de2ed2ee",
        "simulate.json": "673cdc8a9b4f85480c2e0f50053edbfb0fe93423db3e2639f9b321409bfceec4",
    }),
    (["simulate", "--model", "kepler", "--dof", "2", "--kappa", "1.5", "--samples", "51"], {
        "trajectory.csv": "7827dea9028f37a17677a84b17e21e38fc769c2ba8069cfab5cf46426aeae27d",
        "simulate.json": "f34616f2f61b7c98bcf6e42afa0c5733cda125b7448375880d264f3258610298",
    }),
    (["simulate", "--model", "kepler", "--dof", "3", "--samples", "51"], {
        "trajectory.csv": "5f5f90c6baf50ac60d432db046fa17ba4a3be3ed001e2fc1d84fc6a003bc74da",
        "simulate.json": "272d0f86e5df14af6a56de2f8cf5f78fab6078f032a0d37afc94bd659926f419",
    }),
    (["simulate", "--model", "full", *_FULL_D3, "--t-end", "2", "--samples", "51"], {
        "trajectory.csv": "ccb9fd4ee0e8be5985674b7fb5f72dd3c507eab587dca37b9d1a968392085b91",
        "simulate.json": "b8a99940c615f74f38e3080c2d0775bd19a656c784e887fc045553edca37de02",
    }),
    (["simulate", "--model", "full", *_FULL_N6, "--t-end", "1", "--samples", "51"], {
        "trajectory.csv": "2d1b628e39e8b7622ea0b37302e3d13fc7edef358ba2509954323d7c9d0cd88f",
        "simulate.json": "1f43c153afcd6dffcde756882de6ee318e0dbcedc6162ec88a6dc5c7809b2f0f",
    }),
    (["pairs", "--cells", "40"], {
        "pairs.json": "2cb4eb36e6045c1b2b8f0f89016b93eebe9d9e24db341543bdae518bd447bbeb",
        "pairs.csv": "437fcabee10ac890a402652219170148f54574cd82ece8f6bdaec7bf3ddfc577",
    }),
    (["pairs", "--cells", "120"], {
        "pairs.json": "a2e3a0253eb3601a678fd57e7d485419650bba69c91d37494cc8589eb980aca3",
        "pairs.csv": "3a8b1588a2579a1af85ffe9aa3e1731b3c897106c98a17a22e02013e8b21abc3",
    }),
    (["pairs", "--mode", "nonsymmetric", "--cells", "40"], {
        "pairs.json": "60d8af00fd097bf68f2dfa0a1b465ece08dbf01fdcff162f3249ae35673a4552",
        "pairs.csv": "fc04c568452500d5a65d3313011e76fc20355a0d6ccd4af746e3e18c608858d0",
    }),
    (["pairs", "--mode", "symmetric"], {
        "pairs.json": "bbc2bf1c1c6e3dcb3bb666c6fcb47928dc145deffd214269f34225714cddfc2d",
        "pairs.csv": "ed4ac1dda6161440da2d95d95dcb93255a67229c157460fa1029f573d6a504ba",
    }),
    (["solve-cc", "--masses", "1,2,0.5,1.5,1,0.8,1.2"], {
        "solve_cc.json": "9ca15f47f52defbdc13995cdfba4bbfec4af8ed4ec0bfec2df2d67502a550d52",
        "eigenvalues.csv": "65112a6fdc56b2328d68c9391754ad80051959306500adc8b6ebf8faaea437a7",
    }),
    # six bodies on the plane: the d = 2 W matrix of the planar spectrum
    (["planar", "--masses", "1,2,0.5,1.5,1,0.8"], {
        "planar.json": "305216107a4943e5fba13f7b9d2917dd7e006bf68f726a8d9e3c7468904aa5df",
        "eigenvalues.csv": "e459bfdeaec2d3d7782129e2cfa42ba2de654164b5a6e368854c873fdca12575",
    }),
    (["ek", "--k", "9", "--rho", "3/2"], {
        "ek.json": "2f54d00b4e8fdbec4741c82f550e24cde8a305321f370684c8926dcfd19c42aa",
        "masses.csv": "f265756020bea1b930910961982e999080dd1eaac48302e7f84adda9e6198815",
    }),
    (["check-subspace", "--builtin", "five-body"], {
        "check_subspace.json": "fa5f44e6454bada86204aa4a317e6e5f7eae8ef6248c5d689e6b95c90a1f074b",
        "leakage.csv": "5d1e07394c160e15531b8f2e9cfc1a4f7c2927353132db9bbfb54ffa06fc7a45",
    }),
    (["check-subspace", "--builtin", "n3"], {
        "check_subspace.json": "0bc425ded0e1f61f08632f09b0519c328e5692acf3c62224b8c70df4cd0388ae",
        "leakage.csv": "d407d33d1fbd5cfd61b615fa65e29baa85433ba76bc6b9d63db024a1f9f94908",
    }),
], ids=["simulate-five-body", "simulate-full", "simulate-n3", "simulate-kepler-dof2",
        "simulate-kepler-dof3", "simulate-full-d3", "simulate-full-d2-n6",
        "pairs-40", "pairs-120",
        "pairs-nonsymmetric-40", "pairs-symmetric",
        "solve-cc-n7", "planar-n6", "ek-9-rho-3_2", "check-subspace-five-body",
        "check-subspace-n3"])
def test_output_bytes_are_frozen(tmp_path, capsys, argv, expected):
    run_dir = run_ok([*argv, "--out", str(tmp_path)], capsys)
    digests = {name: hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
               for name in expected}
    assert digests == expected


def test_simulate_init_json_defines_the_model(tmp_path, capsys):
    init = tmp_path / "orbit.json"
    init.write_text(json.dumps({"model": "kepler", "kappa": 2.0, "dof": 2,
                                "t_end": 3.0}))
    run_dir = run_ok(["simulate", "--init-json", str(init), "--samples", "51",
                      "--out", str(tmp_path / "runs")], capsys)
    payload = json.loads((run_dir / "simulate.json").read_text())
    assert payload["model"] == "kepler"
    assert payload["dof"] == 2
    assert payload["t_end"] == 3.0
    assert payload["samples"] == 51


@pytest.mark.parametrize("fields,flags", [
    ({"model": "kepler", "kappa": 2, "dof": 2, "t_end": 3},
     ["--model", "kepler", "--kappa", "2", "--dof", "2", "--t-end", "3"]),
    ({"model": "full", "masses": [1, 2, 1], "d": 2, "q0": [1, 0, -1, 1, 0, -1],
      "p0": [0, 1, -1, 0, 0, -1], "t_end": 1},
     ["--model", "full", "--masses", "1,2,1", "--d", "2", "--q0", "1,0,-1,1,0,-1",
      "--p0", "0,1,-1,0,0,-1", "--t-end", "1"]),
], ids=["kepler", "full"])
def test_init_json_integers_write_the_bytes_of_the_same_flags(tmp_path, capsys, fields,
                                                              flags):
    init = tmp_path / "orbit.json"
    init.write_text(json.dumps(fields))
    from_json = run_ok(["simulate", "--init-json", str(init), "--samples", "11",
                        "--out", str(tmp_path / "json")], capsys)
    from_flags = run_ok(["simulate", *flags, "--samples", "11",
                         "--out", str(tmp_path / "flags")], capsys)
    for name in ("simulate.json", "trajectory.csv"):
        assert (from_json / name).read_bytes() == (from_flags / name).read_bytes()


def test_simulate_typed_flag_wins_over_init_json(tmp_path, capsys):
    init = tmp_path / "orbit.json"
    init.write_text(json.dumps({"model": "n3", "n": 3}))
    run_dir = run_ok(["simulate", "--init-json", str(init), "--n", "5",
                      "--t-end", "1", "--samples", "11",
                      "--out", str(tmp_path / "runs")], capsys)
    payload = json.loads((run_dir / "simulate.json").read_text())
    assert payload["chart"] == "5+3 chart"
    manifest = check_manifest(run_dir)
    assert manifest["parameters"]["n"] == 5
    assert manifest["parameters"]["model"] == "n3"


def test_simulate_records_only_the_fields_its_model_reads(tmp_path, capsys):
    # full model: the bodies collide at t = 0, so the parameters land in error.json
    code = main(["simulate", "--model", "full", "--masses", "1,1", "--q0", "0,0,0,0",
                 "--p0", "0,0,0,0", "--t-end", "1", "--out", str(tmp_path / "full")])
    assert code == 2
    error = json.loads((only_run_dir(tmp_path / "full") / "error.json").read_text())
    assert error["parameters"] == {
        "model": "full", "masses": [1.0, 1.0], "d": 2, "q0": [0.0] * 4, "p0": [0.0] * 4,
        "t_end": 1.0, "samples": 2001, "rtol": 1e-12,
    }
    # n3 model: an --init-json kepler field only fills, so it is not recorded
    init = tmp_path / "n3.json"
    init.write_text(json.dumps({"model": "n3", "kappa": 3.0}))
    run_dir = run_ok(["simulate", "--init-json", str(init), "--t-end", "1",
                      "--samples", "11", "--out", str(tmp_path / "n3")], capsys)
    assert check_manifest(run_dir)["parameters"] == {
        "model": "n3", "init_json": str(init), "n": 4, "t_end": 1.0, "samples": 11,
        "rtol": 1e-12,
    }


@pytest.mark.parametrize("argv,flags", [
    (["--model", "n3", "--kappa", "3"], "--kappa"),
    (["--model", "five-body", "--n", "5", "--d", "3"], "--n, --d"),
    (["--model", "kepler", "--masses", "1,1"], "--masses"),
    (["--model", "full", "--masses", "1,1", "--dof", "2"], "--dof"),
], ids=["n3-kappa", "five-body-n-d", "kepler-masses", "full-dof"])
def test_simulate_rejects_typed_flags_its_model_does_not_read(tmp_path, capsys, argv,
                                                              flags):
    model = argv[1]
    code = main(["simulate", *argv, "--t-end", "1", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.splitlines() == [
        f"nbodylab simulate: error: --model {model} does not read {flags}"]
    assert not any(tmp_path.iterdir())


def test_simulate_init_json_model_with_a_stray_typed_flag_is_rejected(tmp_path, capsys):
    init = tmp_path / "orbit.json"
    init.write_text(json.dumps({"model": "kepler"}))
    code = main(["simulate", "--init-json", str(init), "--n", "5", "--t-end", "1",
                 "--out", str(tmp_path / "runs")])
    assert code == 1
    assert "--model kepler does not read --n" in capsys.readouterr().err
    assert not any((tmp_path / "runs").iterdir())


def test_check_subspace_builtin_five_body(tmp_path, capsys):
    run_dir = run_ok(["check-subspace", "--builtin", "five-body",
                      "--out", str(tmp_path)], capsys)
    payload = json.loads((run_dir / "check_subspace.json").read_text())
    validate_payload(payload, "check_subspace")
    assert payload["samples"] == 50
    assert payload["max_leakage"] <= 1e-9
    assert payload["within_threshold"] is True
    lines = (run_dir / "leakage.csv").read_text().splitlines()
    assert lines[0] == "sample,leakage"
    assert len(lines) == 51
    check_manifest(run_dir)


_MIRROR_PAIR = {"masses": [1.0, 1.0], "d": 2, "label": "mirror pair",
                "basis_rows": [[2.0 ** -0.5, 0.0, -2.0 ** -0.5, 0.0],
                               [0.0, 2.0 ** -0.5, 0.0, -2.0 ** -0.5]]}


def test_check_subspace_custom_json(tmp_path, capsys):
    custom = tmp_path / "subspace.json"
    custom.write_text(json.dumps(_MIRROR_PAIR))
    run_dir = run_ok(["check-subspace", "--json", str(custom),
                      "--out", str(tmp_path / "runs")], capsys)
    payload = json.loads((run_dir / "check_subspace.json").read_text())
    assert payload["label"] == "mirror pair"
    assert payload["max_leakage"] <= 1e-12


def test_body_count_mismatch_exits_1(tmp_path, capsys):
    code = main(["solve-cc", "--masses", "1,1,1", "--n", "4",
                 "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert "does not match" in err


def test_malformed_masses_exit_1(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve-cc", "--masses", "1,x,3", "--out", str(tmp_path)])
    assert exc.value.code == 1


def test_non_finite_masses_exit_1(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve-cc", "--masses", "nan,1,1", "--out", str(tmp_path)])
    assert exc.value.code == 1
    assert "non-finite" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_simulate_too_few_samples_exits_1(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--model", "n3", "--samples", "0", "--out", str(tmp_path)])
    assert exc.value.code == 1
    assert "at least 2 samples" in capsys.readouterr().err


@pytest.mark.parametrize("content,message", [
    (None, "cannot read --init-json"),
    ("{not json", "cannot read --init-json"),
    ("[1, 2]", "--init-json must hold a JSON object"),
])
def test_simulate_unreadable_init_json_exits_1(tmp_path, capsys, content, message):
    init = tmp_path / "orbit.json"
    if content is not None:
        init.write_text(content)
    code = main(["simulate", "--init-json", str(init), "--out", str(tmp_path / "runs")])
    assert code == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("spec,message", [
    ({"model": "n3", "n": "5"}, "--init-json: n: not an integer: '5'"),
    ({"model": "bogus", "masses": [1, 1], "t_end": 1},
     "--init-json: model: must be one of five-body, n3, kepler, full, got 'bogus'"),
    ({"model": "n3", "n": 1}, "--init-json: n: need at least 2 polygon bodies, got 1"),
    ({"model": "kepler", "dof": 5}, "--init-json: dof: must be one of 2, 3, got 5"),
    ({"model": "kepler", "kappa": -1}, "--init-json: kappa: must be > 0, got -1"),
    # an unread field is checked too, and a null is no value of any rule
    ({"model": "five-body", "dof": 5}, "--init-json: dof: must be one of 2, 3, got 5"),
    ({"model": "n3", "n": None}, "--init-json: n: not an integer: None"),
    ({"model": "full", "masses": [1, True]}, "--init-json: masses: not a number: True"),
], ids=["n-as-string", "bogus-model", "n-one", "dof-five", "kappa-negative",
        "unread-dof-five", "n-null", "masses-bool"])
def test_simulate_mistyped_init_json_exits_1(tmp_path, capsys, spec, message):
    init = tmp_path / "orbit.json"
    init.write_text(json.dumps(spec))
    out = tmp_path / "runs"
    code = main(["simulate", "--init-json", str(init), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err == f"nbodylab simulate: error: {message}\n"
    assert [p for p in out.glob("*") if p.is_dir()] == []


def test_check_subspace_missing_json_exits_1(tmp_path, capsys):
    code = main(["check-subspace", "--json", str(tmp_path / "absent.json"),
                 "--out", str(tmp_path / "runs")])
    assert code == 1
    assert "cannot read --json" in capsys.readouterr().err


@pytest.mark.parametrize("spec,message", [
    ({"masses": [1, 1]}, "--json lacks d, basis_rows"),
    ({"d": 1, "basis_rows": [[1, 0]]}, "--json lacks masses"),
    ({"masses": [1, 1], "d": 1, "basis_rows": [[1, 1]]}, "not orthonormal"),
    ({"masses": [1, 1, 1], "d": 1, "basis_rows": [[1, 0]]}, "needs 3 coordinates"),
    ({"masses": [1, 1], "d": None, "basis_rows": [[1, 0]]}, "--json: "),
    ({**_MIRROR_PAIR, "d": 1.7}, "--json: d: not an integer: 1.7"),
    ({**_MIRROR_PAIR, "d": "1"}, "--json: d: not an integer: '1'"),
    ({**_MIRROR_PAIR, "d": True}, "--json: d: not an integer: True"),
    ({**_MIRROR_PAIR, "masses": [True, 1]}, "--json: masses: not a number: True"),
    ({**_MIRROR_PAIR, "label": 5}, "--json: label: not a string: 5"),
    ({**_MIRROR_PAIR, "masses": [1]}, "--json: masses: need at least 2 entries"),
    ({**_MIRROR_PAIR, "basis_rows": [[1, 0, 0], "x"]}, "--json: basis_rows: not a list: 'x'"),
])
def test_check_subspace_bad_json_exits_1(tmp_path, capsys, spec, message):
    custom = tmp_path / "subspace.json"
    custom.write_text(json.dumps(spec))
    out = tmp_path / "runs"
    code = main(["check-subspace", "--json", str(custom), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("nbodylab check-subspace: error: ")
    assert message in err
    assert err.count("\n") == 1
    assert [p for p in out.glob("*") if p.is_dir()] == []


@pytest.mark.parametrize("argv,spec", [
    (["simulate", "--init-json", "absent.json"], None),
    (["check-subspace", "--json", "subspace.json"], {"masses": [1, 1]}),
    (["check-subspace", "--json", "subspace.json"],
     {"masses": [1, 1], "d": 1, "basis_rows": [[1, 1]]}),
    (["sweep", "--cells", "1"], None),
])
def test_usage_error_leaves_no_run_directory(tmp_path, capsys, monkeypatch, argv, spec):
    monkeypatch.chdir(tmp_path)
    if spec is not None:
        (tmp_path / "subspace.json").write_text(json.dumps(spec))
    out = tmp_path / "runs"
    try:
        code = main([*argv, "--out", str(out)])
    except SystemExit as exc:  # argparse rejects the flag
        code = exc.code
    assert code == 1
    assert [p for p in out.glob("*") if p.is_dir()] == []


# the --init-json files the cases below read
_USAGE_FILES = {"orbit.json": {"model": "kepler", "t_end": 0},
                "flat.json": {"model": "full", "masses": [1, 1], "d": 0}}


@pytest.mark.parametrize("argv,message", [
    (["simulate", "--model", "kepler", "--t-end", "inf"],
     "argument --t-end: non-finite value 'inf'"),
    (["simulate", "--model", "kepler", "--t-end", "1", "--rtol", "nan"],
     "argument --rtol: non-finite value 'nan'"),
    (["simulate", "--model", "kepler", "--kappa", "nan", "--t-end", "1"],
     "argument --kappa: non-finite value 'nan'"),
    (["check-subspace", "--builtin", "five-body", "--threshold", "nan"],
     "argument --threshold: non-finite value 'nan'"),
    (["sweep", "--rho-max", "inf", "--cells", "20"], "argument --rho-max: non-finite"),
    (["pairs", "--rho-max", "nan", "--cells", "20"], "argument --rho-max: non-finite"),
    (["simulate", "--model", "kepler", "--t-end", "0"], "argument --t-end: must be > 0"),
    (["simulate", "--model", "kepler", "--t-end", "-2"], "argument --t-end: must be > 0"),
    (["simulate", "--model", "kepler", "--t-end", "1", "--rtol", "0"],
     "argument --rtol: must be > 0"),
    (["simulate", "--init-json", "orbit.json"],
     "--init-json: t_end: must be > 0, got 0"),
    (["sweep", "--jobs", "-3", "--cells", "20"], "argument --jobs: need at least 1"),
    (["sweep", "--jobs", "0", "--cells", "20"], "argument --jobs: need at least 1"),
    (["pairs", "--cells", "1"], "argument --cells: need at least 2 cells, got 1"),
    (["pairs", "--rho-max", "1"], "argument --rho-max: must be > 1, got '1'"),
    (["pairs", "--rho-max", "0.5", "--mode", "symmetric"],
     "argument --rho-max: must be > 1, got '0.5'"),
    (["solve-cc", "--masses", "1"], "argument --masses: need at least 2 entries, got [1.0]"),
    (["solve-cc", "--masses", ",,"], "argument --masses: need at least 2 entries, got []"),
    (["planar", "--masses", "2"], "argument --masses: need at least 2 entries, got [2.0]"),
    (["simulate", "--model", "full", "--masses", "1", "--q0", "0,0", "--p0", "0,0",
      "--t-end", "1"], "argument --masses: need at least 2 entries, got [1.0]"),
    (["solve-cc", "--masses", "1,2,3", "--order", "0,0,1"],
     "--order must be a permutation of 0..2"),
    (["solve-cc", "--masses", "1,2,3", "--order", "0,1"],
     "--order must be a permutation of 0..2"),
    (["planar", "--masses", "1,2,3", "--order", "2,1,3"],
     "--order must be a permutation of 0..2"),
    (["check-subspace", "--builtin", "colinear", "--masses", "1"],
     "argument --masses: need at least 2 entries, got [1.0]"),
    (["check-subspace", "--builtin", "five-body", "--samples", "0"],
     "argument --samples: need at least 1 sample, got 0"),
    (["simulate", "--model", "full", "--masses", "1,1", "--d", "0", "--q0", ",",
      "--p0", ",", "--t-end", "1"], "argument --d: need at least 1 dimension, got 0"),
    (["simulate", "--init-json", "flat.json", "--q0", ",", "--p0", ",", "--t-end", "1"],
     "--init-json: d: need at least 1 dimension, got 0"),
    (["pairs", "--cells", "100000000"],
     "argument --cells: need at most 1000 cells, got 100000000"),
    (["pairs", "--cells", "1001", "--mode", "symmetric"],
     "argument --cells: need at most 1000 cells, got 1001"),
    (["sweep", "--cells", "100000000"],
     "argument --cells: need at most 3000 cells, got 100000000"),
    (["sweep", "--cells", "3001", "--jobs", "2"],
     "argument --cells: need at most 3000 cells, got 3001"),
    (["simulate", "--model", "kepler", "--t-end", "1", "--rtol", "1e-300"],
     "argument --rtol: must be at least 2.220446049250313e-14 (100 machine epsilons), "
     "got '1e-300'"),
    (["solve-cc", "--masses", "-inf,1"], "argument --masses: non-finite value '-inf'"),
    (["ek", "--k", "5", "--rho", "1e400"], "argument --rho: non-finite value '1e400'"),
    (["ek", "--k", "5", "--rho=1e-5000"],
     "argument --rho: need a numerator and denominator of at most 400 digits"),
    (["ek", "--k", "5", "--rho", f"1{'0' * 599}1/1{'0' * 600}"],
     "argument --rho: need a numerator and denominator of at most 400 digits"),
    (["simulate", "--model", "kepler", "--kappa", "-1", "--t-end", "1"],
     "argument --kappa: must be > 0, got '-1'"),
    (["simulate", "--model", "kepler", "--dof", "5", "--t-end", "1"],
     "argument --dof: must be one of 2, 3, got 5"),
    (["simulate", "--model", "n3", "--n", "1", "--t-end", "1"],
     "argument --n: need at least 2 polygon bodies, got 1"),
    (["check-subspace", "--builtin", "n3", "--n", "1"],
     "argument --n: need at least 2 polygon bodies, got 1"),
    (["simulate", "--model", "bogus", "--t-end", "1"],
     "argument --model: must be one of five-body, n3, kepler, full, got 'bogus'"),
], ids=["t-end-inf", "rtol-nan", "kappa-nan", "threshold-nan", "sweep-rho-max-inf",
        "pairs-rho-max-nan", "t-end-zero", "t-end-negative", "rtol-zero",
        "init-json-t-end-zero", "jobs-negative", "jobs-zero", "pairs-one-cell",
        "pairs-rho-max-1", "pairs-rho-max-below-1", "solve-cc-one-mass",
        "solve-cc-no-mass", "planar-one-mass", "full-one-mass", "order-repeat",
        "order-short", "planar-order-out-of-range", "colinear-one-mass",
        "check-subspace-no-samples", "full-d-zero", "init-json-d-zero", "pairs-cells-1e8",
        "pairs-cells-1001", "sweep-cells-1e8", "sweep-cells-3001", "rtol-below-floor",
        "masses-minus-inf", "rho-beyond-float", "rho-underflow", "rho-long-terms",
        "kappa-negative", "dof-five", "n3-n-one",
        "check-subspace-n-one", "model-bogus"])
def test_bad_number_or_body_input_exits_1_with_one_line(tmp_path, capsys, monkeypatch,
                                                        argv, message):
    # every case is rejected before any work: were one to reach the integrator
    # (two of them used to run forever there), the test fails instead of hanging
    def no_integration(*args, **kwargs):
        raise AssertionError("a rejected run reached models.simulate")

    monkeypatch.setattr(models, "simulate", no_integration)
    monkeypatch.chdir(tmp_path)
    for name, spec in _USAGE_FILES.items():
        (tmp_path / name).write_text(json.dumps(spec))
    out = tmp_path / "runs"
    try:
        code = main([*argv, "--out", str(out)])
    except SystemExit as exc:  # argparse rejects the flag
        code = exc.code
    err = capsys.readouterr().err
    assert code == 1
    assert err.count("\n") == 1
    assert err.startswith(f"nbodylab {argv[0]}: error: ")
    assert message in err
    assert [p for p in out.glob("*") if p.is_dir()] == []


def test_every_typed_input_passes_a_rule_of_the_table():
    # a flag's argparse type and each --init-json or --json field come from
    # cli._RULES, and a flag shares its rule with the JSON field of its name
    rules = {id(rule): name for name, rule in cli._RULES.items()}
    assert all(isinstance(rule, cli._Rule) for rule in cli._RULES.values())
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction)).choices
    used = set()
    for command, parser in sub.items():
        for action in parser._actions:
            if action.type is not None:
                assert id(action.type) in rules, (command, action.dest)
                used.add(rules[id(action.type)])
    for command, fields in (("simulate", cli._SIMULATE_FIELDS),
                            ("check-subspace", cli._SUBSPACE_FIELDS)):
        flags = {action.dest: action.type for action in sub[command]._actions}
        for field in fields:
            assert field in cli._RULES, (command, field)
            assert flags.get(field, cli._RULES[field]) is cli._RULES[field], (command, field)
            used.add(field)
    assert used == set(cli._RULES)


def test_unknown_flag_exits_1(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ek", "--k", "5", "--rho", "1", "--bogus", "--out", str(tmp_path)])
    assert exc.value.code == 1


NEGATIVE_LISTS = [
    ["solve-cc", "--masses", "-0.25,1,1"],
    ["check-subspace", "--builtin", "colinear", "--masses", "-1,2,3"],
    ["simulate", "--model", "kepler", "--dof", "3", "--q0", "-1,0,1.5", "--p0", "-0.2,0.9,0",
     "--t-end", "0.5", "--samples", "3"],
]


@pytest.mark.parametrize("argv", NEGATIVE_LISTS, ids=["solve-cc", "check-subspace", "simulate"])
def test_a_number_list_may_start_with_a_minus(argv):
    # "--masses -1,2" reads as "--masses=-1,2", the form that always parsed
    joined = []
    for token in argv:
        if token[0] == "-" and token[1].isdigit():
            joined[-1] += f"={token}"
        else:
            joined.append(token)
    assert len(joined) < len(argv)
    assert vars(build_parser().parse_args(argv)) == vars(build_parser().parse_args(joined))


def test_a_state_with_negative_leading_entries_is_simulated(tmp_path, capsys):
    run_dir = run_ok([*NEGATIVE_LISTS[2], "--out", str(tmp_path)], capsys)
    payload = json.loads((run_dir / "simulate.json").read_text())
    assert payload["q0"] == [-1.0, 0.0, 1.5]
    assert payload["p0"] == [-0.2, 0.9, 0.0]


@pytest.mark.parametrize("argv,message", [
    (["solve-cc", "--masses", "-1,2", "--bogus"], "unrecognized arguments: --bogus"),
    (["solve-cc", "--bogus", "--masses", "-1,2"], "unrecognized arguments: --bogus"),
    (["solve-cc", "--masses", "--bogus"], "argument --masses: expected one argument"),
    (["simulate", "--model", "kepler", "--q0", "-x,1"], "argument --q0: expected one argument"),
], ids=["flag-after", "flag-before", "flag-as-value", "letter-after-minus"])
def test_an_unknown_flag_next_to_a_negative_list_exits_1(tmp_path, capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert exc.value.code == 1
    assert err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize("argv", [
    ["solve-cc", "--masses", "1,2,3", "--n", "3", "--order", "2,0,1"],
    ["planar", "--masses", "0.5,1", "--out", "elsewhere"],
    ["check-subspace", "--builtin", "colinear", "--masses", "1,2,3", "--seed", "-4"],
    ["simulate", "--model", "full", "--masses", "1,1", "--d", "1", "--q0", "1,2",
     "--p0", "0,0", "--t-end", "2", "--rtol", "1e-9"],
    ["simulate", "--model", "kepler", "--rtol", "2.220446049250313e-14", "--q0=-1,0,0"],
    ["sweep", "--rho-max", "5", "--cells", "10", "--jobs", "1"],
    ["ek", "--k", "5", "--rho", "3/2"],
])
def test_positive_lists_parse_as_with_argparse_own_negative_number_test(monkeypatch, argv):
    ours = vars(build_parser().parse_args(argv))
    monkeypatch.setattr(cli._Parser, "__init__", argparse.ArgumentParser.__init__)
    assert vars(build_parser().parse_args(argv)) == ours


def test_missing_model_choice_exits_1(tmp_path, capsys):
    code = main(["simulate", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert "--model" in err or "init-json" in err


def test_help_enumerates_subcommands_and_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    top = capsys.readouterr().out
    for name in ("solve-cc", "ek", "sweep", "pairs", "planar", "simulate",
                 "check-subspace"):
        assert name in top
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--help"])
    assert exc.value.code == 0
    sim = capsys.readouterr().out
    for flag in ("--model", "--t-end", "--samples", "--rtol", "--init-json",
                 "--q0", "--p0", "--out"):
        assert flag in sim


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "nbodylab" in capsys.readouterr().out


def test_unwritable_out_directory_exits_1(tmp_path, capsys):
    blocked = tmp_path / "blocked"
    blocked.write_text("file in the way")
    code = main(["solve-cc", "--masses", "1,1", "--out", str(blocked)])
    err = capsys.readouterr().err
    assert code == 1
    assert "cannot create run directory" in err
