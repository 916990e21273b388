import base64
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import radiobarrier
from radiobarrier.cli import build_parser, main
from radiobarrier.geometry import TYPE_LABELS
from radiobarrier.pipeline import load_features_csv
from radiobarrier.simulator import dumps_compact

MIX = "passenger car=3,transporter=2,bus=2,truck=3"


def run(argv):
    return main(argv)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Dataset, segments and features generated once for the read-only CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    assert run(["generate", "--out", str(root / "gen"), "--mix", MIX, "--seed", "21"]) == 0
    assert run(["detect", "--dataset", str(root / "gen" / "dataset.jsonl"),
                "--out", str(root / "det")]) == 0
    assert run(["features", "--segments", str(root / "det" / "segments.jsonl"),
                "--out", str(root / "feat")]) == 0
    return root


def test_generate_is_deterministic(tmp_path):
    for name in ("a", "b"):
        code = run(["generate", "--out", str(tmp_path / name),
                    "--mix", "passenger car=2,truck=1", "--seed", "5"])
        assert code == 0
    a = (tmp_path / "a" / "dataset.jsonl").read_bytes()
    b = (tmp_path / "b" / "dataset.jsonl").read_bytes()
    assert a == b


def test_generate_refuses_jobs_above_1(tmp_path, capsys):
    # generation runs in one process; the flag stays for scripts that pass 1
    assert run(["generate", "--out", str(tmp_path), "--mix", "truck=1", "--jobs", "2"]) == 1
    assert "argument --jobs: invalid choice: 2" in capsys.readouterr().err
    assert not (tmp_path / "dataset.jsonl").exists()


_ENABLED_SIMD_TARGETS = """
try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
print(" ".join(target for target in __cpu_dispatch__ if __cpu_features__.get(target)))
"""
_CHAIN = """
import sys
from radiobarrier.cli import main
out, mix = sys.argv[1:]
for argv in (["generate", "--out", out, "--mix", mix, "--seed", "42"],
             ["detect", "--dataset", out + "/dataset.jsonl", "--out", out],
             ["features", "--segments", out + "/segments.jsonl", "--out", out]):
    if main(argv) != 0:
        sys.exit(argv[0] + " failed")
"""


def _python(code, *args, disabled=""):
    """Run `code` in a fresh interpreter with numpy's SIMD targets `disabled`."""
    src = str(Path(radiobarrier.__file__).resolve().parents[1])
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": disabled,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_outputs_do_not_depend_on_the_simd_level(tmp_path):
    targets = _python(_ENABLED_SIMD_TARGETS).split()
    if not targets:
        pytest.skip("this CPU enables none of numpy's run-time SIMD dispatch targets")
    disabled = " ".join(targets)
    assert _python(_ENABLED_SIMD_TARGETS, disabled=disabled).split() == []
    mix = ",".join(f"{type_name}=2" for type_name in TYPE_LABELS)
    hashes = {}
    for name, off in (("all_targets", ""), ("baseline_only", disabled)):
        _python(_CHAIN, str(tmp_path / name), mix, disabled=off)
        hashes[name] = {f: hashlib.sha256((tmp_path / name / f).read_bytes()).hexdigest()
                        for f in ("dataset.jsonl", "segments.jsonl", "features.csv")}
    assert hashes["all_targets"] == hashes["baseline_only"]


def test_manifest_written(workspace):
    manifest = json.loads((workspace / "gen" / "manifest.generate.json").read_text())
    assert manifest["command"] == "generate"
    assert manifest["seed"] == 21
    assert manifest["outputs"]
    assert "version" in manifest


def test_manifest_records_the_argv_main_received(tmp_path):
    argv = ["generate", "--out", str(tmp_path), "--mix", "truck=1", "--seed", "2"]
    assert run(argv) == 0
    assert json.loads((tmp_path / "manifest.generate.json").read_text())["argv"] == argv


def test_each_command_keeps_its_manifest(tmp_path):
    out = str(tmp_path)
    assert run(["generate", "--out", out, "--mix", "passenger car=1", "--seed", "3"]) == 0
    assert run(["detect", "--dataset", str(tmp_path / "dataset.jsonl"), "--out", out]) == 0
    manifests = {p.name: json.loads(p.read_text())["command"] for p in tmp_path.glob("manifest*")}
    assert manifests == {"manifest.generate.json": "generate", "manifest.detect.json": "detect"}


def test_baseline_prints_table(capsys):
    assert run(["baseline"]) == 0
    out = capsys.readouterr().out
    assert "Link" in out and "direct" in out and "diagonal" in out
    assert len(out.strip().splitlines()) == 10  # header + 9 links


def test_detect_then_features(workspace, tmp_path):
    assert run(["detect", "--dataset", str(workspace / "gen" / "dataset.jsonl"),
                "--out", str(tmp_path)]) == 0
    assert (tmp_path / "segments.jsonl").exists()
    assert run(["features", "--segments", str(tmp_path / "segments.jsonl"),
                "--out", str(tmp_path)]) == 0
    header = (tmp_path / "features.csv").read_text().splitlines()[0]
    assert header.startswith("event_id,type_name,label,est_speed,est_length,drop_magnitude,f_0")


def test_crossval_table_shape(workspace, tmp_path, capsys):
    code = run(["crossval", "--table", str(workspace / "feat" / "features.csv"),
                "--features", "both", "--folds", "5", "--seed", "7",
                "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0].startswith("Training set")
    assert "k-NN" in lines[0] and "SVM" in lines[0]
    assert len(lines) == 7  # header + 5 folds + mean row
    assert "S2, S3, S4, S5" in lines[1]
    assert "±" in lines[-1]
    saved = json.loads((tmp_path / "crossval.json").read_text())
    assert saved["kind"] == "crossval"
    assert len(saved["algos"]["knn"]["fold_accuracies"]) == 5


def test_evaluate_table_shape(workspace, tmp_path, capsys):
    code = run(["evaluate", "--table", str(workspace / "feat" / "features.csv"),
                "--features", "both", "--test-fraction", "0.4", "--seed", "3",
                "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "Vehicle type" in out and "Test samples" in out
    assert "Overall success rate" in out
    saved = json.loads((tmp_path / "evaluation.json").read_text())
    assert saved["kind"] == "evaluate"


def test_evaluate_length_feature_set(workspace, capsys):
    code = run(["evaluate", "--table", str(workspace / "feat" / "features.csv"),
                "--features", "length", "--test-fraction", "0.4", "--seed", "3"])
    assert code == 0
    out = capsys.readouterr().out
    assert "Rec. rate" in out


def _cells(text, markdown):
    """The rows of cells of a text table and of its markdown rendering; the text is cut at
    the column widths of the markdown's separator line."""
    lines = markdown.splitlines()
    widths = [len(dashes) - 2 for dashes in lines[1].strip("|").split("|")]
    starts = np.cumsum([0] + [w + 2 for w in widths])
    text_rows = [[line[a:a + w].strip() for a, w in zip(starts, widths)]
                 for line in text.splitlines()]
    markdown_rows = [[cell.strip() for cell in line.strip("|").split("|")]
                     for line in lines[:1] + lines[2:]]
    return text_rows, markdown_rows


# SHA-256 of the README chain's outputs on seed 42 with the default mix of 50
# events per type; any change to what the chain computes shows here
SEED_42_CHAIN = {
    "dataset.jsonl": "62f5ae2d9004c630828ae48619932012d36416489ed170ce170377acebd06139",
    "segments.jsonl": "cba2631e02090378776390cf2384d547794d4053937a13c30e43352c68851151",
    "features.csv": "ef1fb936e1d3501c58bd6723be442eda48d4b3bdf0d69babab3a6ddb2665d8f9",
    "crossval.json": "917dd2586416c08eda4dc616acdca3477d9a92b30d9b501fb9399f6a46a44c47",
}


# SHA-256 of the results of the learning commands on the seed-42 chain's features.csv
SEED_42_RESULTS = {
    ("evaluate", "--seed", "42"):
        "a219c627b97121bc2e8433063812ec1f4f03535d9896055d893982d5ef2b863d",
    ("evaluate", "--features", "length", "--seed", "3"):
        "13db23c97fda03e9b43014f40dd364d6e57b6a8ab7ca5e1fba26e19eaf7fae32",
    ("crossval", "--features", "length", "--algos", "knn,svm,length", "--seed", "42"):
        "d04b3143cb0ae5c105a20b8069548585627339f87db9b355192eab8ed93d2f96",
}


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def seed_42_chain(tmp_path_factory):
    """The README chain run on seed 42 with the default mix, all outputs in one directory."""
    root = tmp_path_factory.mktemp("seed_42")
    out = str(root)
    assert run(["generate", "--seed", "42", "--out", out]) == 0
    assert run(["detect", "--dataset", str(root / "dataset.jsonl"), "--out", out]) == 0
    assert run(["features", "--segments", str(root / "segments.jsonl"), "--out", out]) == 0
    assert run(["crossval", "--table", str(root / "features.csv"), "--features", "both",
                "--seed", "42", "--out", out]) == 0
    return root


def test_seed_42_chain_outputs_are_pinned(seed_42_chain):
    assert {name: _sha256(seed_42_chain / name) for name in SEED_42_CHAIN} == SEED_42_CHAIN


# SHA-256 of a single command's output: a second seed through the simulator, and the
# ground-reflection study, which simulates every event with the reflection on and off
PINNED_OUTPUTS = {
    ("generate", "--seed", "7"): (
        "dataset.jsonl", "9df866dc1640b0ea8e6d407c9d62091dd030748f333c6912092f87fe893cdba6"),
    ("study", "--seed", "42"): (
        "study.json", "27527cb80d3299655c9ab78df55ae756d73d7cd5578e7de5ba9374148c79f8f7"),
}


@pytest.mark.parametrize("argv", list(PINNED_OUTPUTS), ids=["generate_seed_7", "study_seed_42"])
def test_default_mix_outputs_are_pinned(tmp_path, capsys, argv):
    assert run([*argv, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    name, digest = PINNED_OUTPUTS[argv]
    assert _sha256(tmp_path / name) == digest


@pytest.mark.parametrize("argv", list(SEED_42_RESULTS),
                         ids=["evaluate", "evaluate_length", "crossval_length"])
def test_seed_42_learning_results_are_pinned(seed_42_chain, tmp_path, capsys, argv):
    assert run([*argv, "--table", str(seed_42_chain / "features.csv"), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    name = "evaluation.json" if argv[0] == "evaluate" else "crossval.json"
    assert _sha256(tmp_path / name) == SEED_42_RESULTS[argv]


def test_report_renders_saved_results(workspace, tmp_path, capsys):
    table = ["--table", str(workspace / "feat" / "features.csv")]
    for i, (argv, name) in enumerate([
        (["crossval", *table], "crossval.json"),
        (["evaluate", *table, "--test-fraction", "0.4"], "evaluation.json"),
        (["evaluate", *table, "--test-fraction", "0.4", "--features", "length"],
         "evaluation.json"),
        (["study", "--mix", "passenger car=2,truck=2"], "study.json"),
    ]):
        assert run([*argv, "--seed", "3", "--out", str(tmp_path / str(i))]) == 0
        printed = capsys.readouterr().out
        saved = str(tmp_path / str(i) / name)
        assert run(["report", "--input", saved]) == 0
        assert capsys.readouterr().out == printed
        assert run(["report", "--input", saved, "--markdown"]) == 0
        markdown = capsys.readouterr().out
        if name == "study.json":  # one table per variant, each under its title
            assert markdown != printed and "|---" in markdown
            assert markdown.count("| passenger_car ") == printed.count("  passenger_car ") == 2
            titles = [line for line in markdown.splitlines() if line.startswith("Ground")]
            assert titles == [line for line in printed.splitlines() if line.startswith("Ground")]
        else:
            assert markdown.startswith("| ")
            text_rows, markdown_rows = _cells(printed, markdown)
            assert text_rows == markdown_rows
            assert len(text_rows) == len(printed.splitlines()) >= 3


def test_report_orders_crossval_columns_as_the_command_printed_them(workspace, tmp_path, capsys):
    """crossval.json keeps its keys sorted; both tables read k-NN, SVM, Rec. rate."""
    assert run(["crossval", "--table", str(workspace / "feat" / "features.csv"),
                "--features", "length", "--algos", "svm,knn,length", "--out", str(tmp_path)]) == 0
    printed = capsys.readouterr().out
    assert printed.splitlines()[0].split()[-4:] == ["k-NN", "SVM", "Rec.", "rate"]
    assert run(["report", "--input", str(tmp_path / "crossval.json")]) == 0
    assert capsys.readouterr().out == printed


def test_study_outputs(tmp_path, capsys):
    code = run(["study", "--mix", "passenger car=2,truck=2", "--seed", "4",
                "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "Ground reflection on" in out and "Gap" in out
    drops = (tmp_path / "study_drops.csv").read_text().splitlines()
    assert drops[0] == "variant,event_id,label,drop_db"
    assert len(drops) == 1 + 2 * 4


def test_usage_error_exit_code(capsys):
    assert run(["frobnicate"]) == 1
    assert run([]) == 1
    assert run(["generate"]) == 1  # --out is required
    capsys.readouterr()


def parse_outcome(parser, argv, capsys):
    """What parsing `argv` leaves: the namespace or the exit code, and stdout and stderr."""
    try:
        result = vars(parser.parse_args(argv))
    except SystemExit as exc:
        result = exc.code
    printed = capsys.readouterr()
    return result, printed.out, printed.err


# each command's required options, so that a bad option reaches the top-level parser
REQUIRED = {"generate": ["--out", "o"], "baseline": [], "detect": ["--dataset", "d", "--out", "o"],
            "features": ["--segments", "s", "--out", "o"], "crossval": ["--table", "t"],
            "evaluate": ["--table", "t"], "study": [], "report": ["--input", "i"]}


@pytest.mark.parametrize("command", list(REQUIRED))
def test_one_command_parser_parses_and_fails_as_the_full_one(capsys, command):
    full = build_parser()
    assert "{%s}" % ",".join(REQUIRED) in parse_outcome(full, ["--help"], capsys)[1]
    for argv in ([command, "--help"], [command, "--bogus"], [command, *REQUIRED[command]],
                 [command, *REQUIRED[command], "--bogus", "1"], [command, "--seed", "x"]):
        want = parse_outcome(full, argv, capsys)
        assert parse_outcome(build_parser(command), argv, capsys) == want
        if not isinstance(want[0], dict):  # main exits as the full parser does
            assert want[0] in (0, 1) and (run(argv), *capsys.readouterr()) == want


@pytest.mark.parametrize("argv", [[], ["--help"], ["--version"], ["frobnicate"], ["-x", "generate"]])
def test_a_line_without_a_known_command_builds_every_command(capsys, argv):
    parser = build_parser(argv[0] if argv else None)
    assert parse_outcome(parser, ["--help"], capsys) == parse_outcome(build_parser(), ["--help"],
                                                                      capsys)
    assert (run(argv), *capsys.readouterr()) == parse_outcome(build_parser(), argv, capsys)


@pytest.mark.parametrize("jobs", ["0", "-4"])
def test_generate_refuses_jobs_below_1(tmp_path, capsys, jobs):
    assert run(["generate", "--out", str(tmp_path), "--mix", "truck=1", "--jobs", jobs]) == 1
    assert f"argument --jobs: must be at least 1, got {jobs}" in capsys.readouterr().err
    assert not (tmp_path / "dataset.jsonl").exists()


@pytest.mark.parametrize("argv, seed", [
    (["generate", "--mix", "truck=1"], "-1"),
    (["study", "--mix", "truck=1"], "-1"),
    (["crossval", "--table", "{table}"], "-3"),
    (["evaluate", "--table", "{table}"], "-2"),
], ids=["generate", "study", "crossval", "evaluate"])
def test_negative_seed_exits_1(workspace, tmp_path, capsys, argv, seed):
    table = str(workspace / "feat" / "features.csv")
    argv = [arg.format(table=table) for arg in argv]
    assert run([*argv, "--out", str(tmp_path), "--seed", seed]) == 1
    assert f"argument --seed: must be at least 0, got {seed}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["generate", "study"])
@pytest.mark.parametrize("mix, needle", [
    ("truck=1,truck=2", "mix names 'truck' twice"),
    ("truck=1, truck =1", "mix names 'truck' twice"),
    ("truck", "must look like 'type=count'"),
    ("truck=two", "bad count in mix entry"),
], ids=["twice", "twice_spaced", "no_count", "bad_count"])
def test_malformed_mix_exits_2(tmp_path, capsys, command, mix, needle):
    assert run([command, "--out", str(tmp_path), "--mix", mix]) == 2
    assert needle in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_config_error_exit_code(tmp_path, capsys):
    code = run(["generate", "--config", str(tmp_path / "missing.ini"),
                "--out", str(tmp_path / "out")])
    assert code == 2
    capsys.readouterr()


@pytest.mark.parametrize("make", [
    lambda path: path.mkdir(),
    lambda path: path.write_bytes(b"[antenna]\nkind = \xff\n"),
], ids=["a_directory", "not_utf8"])
def test_unreadable_config_file_exits_2(tmp_path, capsys, make):
    make(tmp_path / "config.ini")
    assert run(["baseline", "--config", str(tmp_path / "config.ini")]) == 2
    assert "cannot read config file" in capsys.readouterr().err


def test_input_error_exit_code(tmp_path, capsys):
    code = run(["detect", "--dataset", str(tmp_path / "missing.jsonl"),
                "--out", str(tmp_path / "out")])
    assert code == 3
    capsys.readouterr()


def test_training_error_exit_code(tmp_path, capsys):
    # single-class table cannot train a classifier
    table = tmp_path / "features.csv"
    header = "event_id,type_name,label,est_speed,est_length,drop_magnitude," + \
        ",".join(f"f_{i}" for i in range(4))
    rows = [f"{i},truck,truck,10.0,{12.0 + i},8.0,1,2,3,4" for i in range(6)]
    table.write_text(header + "\n" + "\n".join(rows) + "\n")
    code = run(["crossval", "--table", str(table), "--features", "both",
                "--algos", "svm", "--folds", "3"])
    assert code == 4
    capsys.readouterr()


def test_crossval_with_more_folds_than_the_largest_label_exits_3(tmp_path, capsys):
    # 3 + 2 rows would leave folds S4 and S5 empty, and their accuracies NaN
    table = tmp_path / "features.csv"
    rows = [f"{i},{label},{label},10.0,{4.0 + i},8.0" for i, label in
            enumerate(["passenger_car"] * 3 + ["truck"] * 2)]
    table.write_text("event_id,type_name,label,est_speed,est_length,drop_magnitude\n"
                     + "\n".join(rows) + "\n")
    code = run(["crossval", "--table", str(table), "--features", "length", "--folds", "5",
                "--out", str(tmp_path / "out")])
    assert code == 3
    assert "5 folds would leave a fold empty: the largest label has 3 events" in \
        capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["evaluate", "--features", "length"],
    ["crossval", "--features", "length", "--algos", "length"],
], ids=["evaluate", "crossval"])
def test_length_rule_on_one_distinct_length_exits_4(workspace, tmp_path, capsys, argv):
    lines = (workspace / "feat" / "features.csv").read_text().splitlines()
    assert lines[0].split(",")[4] == "est_length"
    table = tmp_path / "features.csv"
    table.write_text("\n".join([lines[0], *map(_set_cell(4, "5"), lines[1:])]) + "\n")
    assert run([*argv, "--table", str(table)]) == 4
    assert "threshold training needs at least two distinct lengths" in capsys.readouterr().err


@pytest.mark.parametrize("options, code, needle", [
    (["--folds", "0"], 2, "at least 2 folds"),
    (["--folds", "1"], 2, "at least 2 folds"),
    (["--algos", "svm", "--gamma", "-1"], 4, "C and gamma must be finite and positive"),
    (["--algos", "svm", "--gamma", "nan"], 4, "C and gamma must be finite and positive"),
    (["--algos", "svm", "--gamma", "0"], 4, "C and gamma must be finite and positive"),
    (["--algos", "svm", "--C", "nan"], 4, "C and gamma must be finite and positive"),
    (["--algos", ","], 2, "names no algorithm"),
], ids=["folds_0", "folds_1", "gamma_negative", "gamma_nan", "gamma_0", "C_nan", "algos_none"])
def test_crossval_rejects_out_of_range_options(workspace, capsys, options, code, needle):
    assert run(["crossval", "--table", str(workspace / "feat" / "features.csv"), *options]) == code
    assert needle in capsys.readouterr().err


@pytest.mark.parametrize("key", ["azimuth_beamwidth_deg", "elevation_beamwidth_deg"])
@pytest.mark.parametrize("command", ["baseline", "generate", "study"])
def test_zero_beamwidth_exits_2(tmp_path, capsys, command, key):
    config = tmp_path / "flat.ini"
    config.write_text(f"[antenna]\n{key} = 0\n")
    assert run([command, "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    assert "beamwidths must be finite and positive" in capsys.readouterr().err


@pytest.mark.parametrize("key, value, field", [
    ("azimuth_beamwidth_deg", "1e-300", "azimuth_beamwidth"),
    ("elevation_beamwidth_deg", "1e-300", "elevation_beamwidth"),
    ("downtilt_deg", "1e300", "downtilt"),
])
def test_antenna_roll_off_that_overflows_exits_2(tmp_path, capsys, key, value, field):
    # the roll-off at the largest offset from boresight must be a finite float
    config = tmp_path / "overflow.ini"
    config.write_text(f"[antenna]\n{key} = {value}\n")
    assert run(["baseline", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert "antenna roll-off overflows a float" in err and field in err


def _generate_exits_2(tmp_path, capsys, text, needle):
    config = tmp_path / "typo.ini"
    config.write_text(text)
    assert run(["generate", "--config", str(config), "--mix", "truck=1",
                "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert needle in err
    assert not (tmp_path / "out" / "dataset.jsonl").exists()
    return err


@pytest.mark.parametrize("text, needle", [
    ("[channel]\nnoise_sigma = 9\n", "unknown key 'noise_sigma'"),
    ("[simulation]\nseed = 5\n", "unknown key 'seed'"),
    ("[detektion]\ndrop_threshold_db = 7\n", "unknown section [detektion]"),
    ("[DEFAULT]\nfoo = 1\n", "[DEFAULT] unknown keys ['foo']"),
], ids=["misspelt_key", "removed_seed_key", "unknown_section", "default_section_key"])
def test_unknown_config_entries_exit_2(tmp_path, capsys, text, needle):
    _generate_exits_2(tmp_path, capsys, text, needle)


@pytest.mark.parametrize("text, needle", [
    ("[simulation]\ndt_s = inf\n", "dt_s = 'inf': not a finite number"),
    ("[simulation]\ndt_s = nan\n", "dt_s = 'nan': not a finite number"),
    ("[channel]\nnoise_sigma_db = nan\n", "noise_sigma_db = 'nan': not a finite number"),
    ("[channel]\nreflection_phase_deg = -inf\n", "reflection_phase_deg = '-inf': not a finite"),
    ("[layout]\nspacing_m = inf\n", "spacing_m = 'inf': not a finite number"),
    ("[vehicle.truck]\nsegments = 6:3.8:0.45\nspeed_max_mps = inf\n",
     "speed_max_mps = 'inf': not a finite number"),
    ("[vehicle.truck]\nsegments = inf:3.8:0.45\n", "bad number in segment spec 'inf:3.8:0.45'"),
    ("[layout]\nspacing_m = 5%\n", "spacing_m = '5%'"),
    ("[channel]\ntx_power_dbm = 200\n", "as an int8 count of 1.0 dB steps"),
], ids=["dt_inf", "dt_nan", "noise_nan", "phase_in_degrees", "layout_key", "vehicle_key",
        "segment_spec", "percent_sign", "rssi_beyond_int8"])
def test_unusable_config_values_exit_2(tmp_path, capsys, text, needle):
    _generate_exits_2(tmp_path, capsys, text, needle)


@pytest.mark.parametrize("section, key, value", [
    ("simulation", "dt_s", "1e-300"), ("layout", "spacing_m", "1e300"),
    ("simulation", "pre_roll_s", "1e300"), ("simulation", "post_roll_s", "1e300"),
    ("layout", "spacing_m", "1e6"), ("simulation", "pre_roll_s", "1e6"),
    ("simulation", "post_roll_s", "1e6"),
])
def test_a_passage_of_too_many_frames_exits_2(tmp_path, capsys, section, key, value):
    # refused from the frame count alone, before the traces are allocated
    err = _generate_exits_2(tmp_path, capsys, f"[{section}]\n{key} = {value}\n",
                            "frames, more than the 1,000,000 allowed")
    assert key in err


@pytest.mark.parametrize("command", ["baseline", "generate"])
@pytest.mark.parametrize("key, value", [("tx_height_m", "1e300"), ("rx_height_m", "1e-300")])
def test_heights_that_put_the_bounce_on_a_road_side_exit_2(tmp_path, capsys, command, key,
                                                           value):
    # tx / (tx + rx) rounds to 1.0, so the bounce point would sit on the receivers' side
    config = tmp_path / "heights.ini"
    config.write_text(f"[layout]\n{key} = {value}\n")
    assert run([command, "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "put the ground bounce on a road side" in err
    assert "tx_height_m" in err and "rx_height_m" in err


@pytest.mark.parametrize("fraction", ["nan", "inf", "-inf", "0", "1", "1.5", "-0.25"])
def test_evaluate_rejects_test_fraction_outside_0_1(workspace, capsys, fraction):
    assert run(["evaluate", "--table", str(workspace / "feat" / "features.csv"),
                f"--test-fraction={fraction}"]) == 2
    assert "--test-fraction must lie inside (0, 1)" in capsys.readouterr().err


@pytest.mark.parametrize("content", [
    "[1, 2]",
    '{"kind": "crossval"}',
    '{"kind": "crossval", "algos": {}}',
    '{"kind": "evaluate", "columns": ["knn"], "rows": [{"label": "truck"}]}',
    None,  # a directory
], ids=["json_list", "crossval_without_algos", "crossval_with_no_algo", "evaluate_row_without_keys",
        "directory"])
def test_report_on_a_broken_results_file_exits_3(tmp_path, capsys, content):
    target = tmp_path / "results.json"
    if content is None:
        target.mkdir()
    else:
        target.write_text(content)
    assert run(["report", "--input", str(target)]) == 3
    assert f"input error: {target}" in capsys.readouterr().err


def test_version_flag(capsys):
    assert run(["--version"]) == 0
    assert "radiobarrier" in capsys.readouterr().out


def test_dataset_line_without_dt_exits_3(workspace, tmp_path, capsys):
    lines = (workspace / "gen" / "dataset.jsonl").read_text().splitlines()
    record = json.loads(lines[1])
    del record["dt"]
    lines[1] = json.dumps(record)
    broken = tmp_path / "dataset.jsonl"
    broken.write_text("\n".join(lines) + "\n")
    code = run(["detect", "--dataset", str(broken), "--out", str(tmp_path / "out")])
    assert code == 3
    err = capsys.readouterr().err
    assert "input error" in err and "dt" in err


def test_detect_with_other_layout_exits_2(workspace, tmp_path, capsys):
    config = tmp_path / "two_posts.ini"
    config.write_text("[layout]\nnodes_per_side = 2\n")
    code = run(["detect", "--config", str(config),
                "--dataset", str(workspace / "gen" / "dataset.jsonl"),
                "--out", str(tmp_path / "out")])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err
    assert not (tmp_path / "out" / "segments.jsonl").exists()


def test_data_generated_under_another_config_exits_2(tmp_path, capsys):
    # the same links 3 m apart: read under the default 5 m, a 4.5 m car measured 8.96 m
    config, gen, det = tmp_path / "spacing.ini", tmp_path / "gen", tmp_path / "det"
    config.write_text("[layout]\nspacing_m = 3.0\n")
    assert run(["generate", "--config", str(config), "--mix", "passenger car=1,truck=1",
                "--seed", "4", "--out", str(gen)]) == 0
    assert run(["detect", "--config", str(config), "--dataset", str(gen / "dataset.jsonl"),
                "--out", str(det)]) == 0
    capsys.readouterr()
    generated = json.loads((gen / "dataset.jsonl").read_text().splitlines()[0])["fingerprint"]
    for argv, output in ((["detect", "--dataset", str(gen / "dataset.jsonl")], "segments.jsonl"),
                         (["features", "--segments", str(det / "segments.jsonl")],
                          "features.csv")):
        assert run([*argv, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and "--config" in err
        assert generated in err and len(set(re.findall(r"\b[0-9a-f]{16}\b", err))) == 2
        assert not (tmp_path / "out" / output).exists()
    assert run(["features", "--config", str(config), "--segments", str(det / "segments.jsonl"),
                "--out", str(tmp_path / "out")]) == 0


def _edit_line(source, target, index, edit):
    lines = source.read_text().splitlines()
    lines[index] = edit(lines[index])
    target.write_text("\n".join(lines) + "\n")
    return target


def _edit_record(edit):
    def edit_line(line):
        record = json.loads(line)
        edit(record)
        return json.dumps(record)
    return edit_line


@pytest.fixture
def run_copy(workspace, tmp_path):
    """The workspace's dataset and segments, copied to the same relative paths under tmp_path."""
    for name in ("gen/dataset.jsonl", "det/segments.jsonl"):
        (tmp_path / name).parent.mkdir()
        shutil.copy(workspace / name, tmp_path / name)
    return tmp_path


def test_features_on_a_moved_run_directory(workspace, run_copy):
    assert run(["features", "--segments", str(run_copy / "det" / "segments.jsonl"),
                "--out", str(run_copy / "feat")]) == 0
    assert (run_copy / "feat" / "features.csv").read_bytes() == \
        (workspace / "feat" / "features.csv").read_bytes()


@pytest.mark.parametrize("index, edit, needle", [
    (1, _edit_record(lambda r: r.pop("start_index")), "start_index"),
    (0, lambda line: line[:-1], "header"),
    (1, _edit_record(lambda r: r["windows"].update({"10": [1.0, 1.2]})), "windows"),
    (1, _edit_record(lambda r: r.update(start_index=-1)), "do not fit"),
    (2, _edit_record(lambda r: r.update(frames=10**6)), "do not fit"),
    (3, _edit_record(lambda r: r.update(frames=0)), "do not fit"),
    (1, _edit_record(lambda r: r.update(event_id=999)), "event 999 is not in"),
], ids=["line_without_start_index", "header_not_json", "window_of_unknown_link",
        "start_before_the_event", "frames_past_the_event", "no_frames", "unknown_event"])
def test_features_on_bad_segments_exits_3(run_copy, capsys, index, edit, needle):
    segments = _edit_line(run_copy / "det" / "segments.jsonl", run_copy / "det" / "segments.jsonl",
                          index, edit)
    code = run(["features", "--segments", str(segments), "--out", str(run_copy / "out")])
    assert code == 3
    err = capsys.readouterr().err
    assert "input error" in err and needle in err


def _counts(record):
    """The RSSI step counts of a dataset line, as a writable flat int8 array."""
    return np.frombuffer(base64.b64decode(record["values"]), "i1").copy()


def _encode(counts):
    return base64.b64encode(counts.astype("i1").tobytes()).decode("ascii")


def _edit_one_sample(line):
    record = json.loads(line)
    counts = _counts(record)
    counts[120 * 9 + 4] -= 1
    record["values"] = _encode(counts)
    return dumps_compact(record)  # every other byte of the line stays as it was


def _shorten_event(line):
    """A dataset line cut to its first 30 frames."""
    record = json.loads(line)
    record["values"] = _encode(_counts(record)[:30 * 9])
    record["frames"] = 30
    return dumps_compact(record)


def test_detect_names_the_event_too_short_for_its_baseline_window(run_copy, capsys):
    dataset = _edit_line(run_copy / "gen" / "dataset.jsonl", run_copy / "gen" / "dataset.jsonl",
                         3, _shorten_event)
    assert run(["detect", "--dataset", str(dataset), "--out", str(run_copy / "out")]) == 3
    assert ("input error: event 3: stream of 30 samples is shorter than the 50-sample "
            "baseline window") in capsys.readouterr().err


def test_detect_on_a_dataset_of_version_2_says_how_to_regenerate_it(run_copy, capsys):
    # version 2 held int16 counts; its files stop loading and must be generated anew
    dataset = _edit_line(run_copy / "gen" / "dataset.jsonl", run_copy / "gen" / "dataset.jsonl",
                         0, _edit_record(lambda r: r.update(version=2)))
    assert run(["detect", "--dataset", str(dataset), "--out", str(run_copy / "out")]) == 3
    assert (f"input error: {dataset} is a radiobarrier-dataset file of version 2, but this "
            "program reads version 3: regenerate it with `generate` and the same `--seed`"
            ) in capsys.readouterr().err
    assert not (run_copy / "out" / "segments.jsonl").exists()


@pytest.mark.parametrize("edit, code, message", [
    (lambda r: r.update(frames=1), 3, "input error: event 2: degenerate zero-duration segment"),
    (lambda r: r.update(windows={"1": r["windows"]["1"], "2": r["windows"]["2"]}), 4,
     "training/estimation error: event 2: need onsets on at least two direct links"),
], ids=["one_frame", "one_direct_link"])
def test_features_names_the_event_it_cannot_featurize(run_copy, capsys, edit, code, message):
    segments = _edit_line(run_copy / "det" / "segments.jsonl", run_copy / "det" / "segments.jsonl",
                          2, _edit_record(edit))
    assert run(["features", "--segments", str(segments), "--out", str(run_copy / "out")]) == code
    assert message in capsys.readouterr().err
    assert not (run_copy / "out" / "features.csv").exists()


@pytest.mark.parametrize("span", [[1.0, float("nan")], [1.0], "soon", ["1.0", "1.2"],
                                  [True, 1.2], [10**400, 1.2]],
                         ids=["not_finite", "one_number", "not_numbers", "strings", "a_boolean",
                              "an_int_beyond_float"])
def test_features_names_the_link_of_a_bad_window(run_copy, capsys, span):
    segments = _edit_line(run_copy / "det" / "segments.jsonl", run_copy / "det" / "segments.jsonl",
                          1, _edit_record(lambda r: r["windows"].update({"5": span})))
    assert run(["features", "--segments", str(segments), "--out", str(run_copy / "out")]) == 3
    assert "window 5" in capsys.readouterr().err


@pytest.mark.parametrize("edit", [
    lambda baselines: [str(b) for b in baselines],
    lambda baselines: [True, *baselines[1:]],
    lambda baselines: baselines[:8],
    lambda baselines: [10**400, *baselines[1:]],
], ids=["strings", "a_boolean", "eight_numbers", "an_int_beyond_float"])
def test_features_names_bad_baselines(run_copy, capsys, edit):
    # one finite JSON number per link: a string or a boolean is not read as a number
    segments = _edit_line(run_copy / "det" / "segments.jsonl", run_copy / "det" / "segments.jsonl",
                          1, _edit_record(lambda r: r.update(baselines=edit(r["baselines"]))))
    assert run(["features", "--segments", str(segments), "--out", str(run_copy / "out")]) == 3
    assert f"{segments}:2: baselines" in capsys.readouterr().err
    assert not (run_copy / "out" / "features.csv").exists()


@pytest.mark.parametrize("change, needle", [
    (lambda gen: (gen / "dataset.jsonl").unlink(), "cannot read"),
    (lambda gen: _edit_line(gen / "dataset.jsonl", gen / "dataset.jsonl", 1, _edit_one_sample),
     "SHA-256 differs"),
    (lambda gen: run(["generate", "--out", str(gen), "--mix", MIX, "--seed", "22"]),
     "SHA-256 differs"),
], ids=["dataset_missing", "one_sample_edited", "dataset_of_another_seed"])
def test_features_on_segments_whose_dataset_changed_exits_3(run_copy, capsys, change, needle):
    change(run_copy / "gen")
    code = run(["features", "--segments", str(run_copy / "det" / "segments.jsonl"),
                "--out", str(run_copy / "out")])
    assert code == 3
    err = capsys.readouterr().err
    assert "input error" in err and needle in err
    assert not (run_copy / "out" / "features.csv").exists()


@pytest.mark.parametrize("argv, out, directory", [
    (["generate", "--mix", "truck=1"], "gen/dataset.jsonl", None),
    (["detect", "--dataset", "gen/dataset.jsonl"], "gen/dataset.jsonl", None),
    (["generate", "--mix", "truck=1"], "gen/dataset.jsonl/run", None),
    (["generate", "--mix", "truck=1"], "run", "run/dataset.jsonl"),
    (["detect", "--dataset", "gen/dataset.jsonl"], "run", "run/manifest.detect.json"),
], ids=["generate_into_a_file", "detect_into_its_dataset", "under_a_file",
        "output_is_a_directory", "manifest_is_a_directory"])
def test_unusable_out_exits_1(workspace, run_copy, capsys, argv, out, directory):
    if directory:
        (run_copy / directory).mkdir(parents=True)
    argv = [str(run_copy / a) if a.endswith(".jsonl") else a for a in argv]
    assert run([*argv, "--out", str(run_copy / out)]) == 1
    err = capsys.readouterr().err
    assert f"error: --out {run_copy / out}" in err and str(run_copy / (directory or out)) in err
    assert (run_copy / "gen" / "dataset.jsonl").read_bytes() == \
        (workspace / "gen" / "dataset.jsonl").read_bytes()


@pytest.mark.parametrize("name, argv", [
    ("gen/dataset.jsonl", ["detect", "--dataset"]),
    ("det/segments.jsonl", ["features", "--segments"]),
], ids=["dataset", "segments"])
def test_a_repeated_event_id_exits_3(run_copy, capsys, name, argv):
    path = run_copy / name
    first = json.loads(path.read_text().splitlines()[1])["event_id"]
    _edit_line(path, path, 2, _edit_record(lambda r: r.update(event_id=first)))
    assert run([*argv, str(path), "--out", str(run_copy / "out")]) == 3
    assert f"input error: {path}:3: event_id {first} repeats line 2\n" in capsys.readouterr().err
    assert not (run_copy / "out").exists()


@pytest.mark.parametrize("command", ["crossval", "evaluate"])
def test_a_feature_table_with_a_repeated_event_id_exits_3(workspace, tmp_path, capsys, command):
    table = workspace / "feat" / "features.csv"
    first = table.read_text().splitlines()[1].split(",")[0]
    broken = _edit_line(table, tmp_path / "features.csv", 2, _set_cell(0, first))
    assert run([command, "--table", str(broken)]) == 3
    assert capsys.readouterr().err == f"input error: {broken}:3: event_id {first} repeats line 2\n"


def test_features_on_segments_from_other_layout_exits_2(workspace, tmp_path, capsys):
    config = tmp_path / "two_posts.ini"
    config.write_text("[layout]\nnodes_per_side = 2\n")
    code = run(["features", "--config", str(config),
                "--segments", str(workspace / "det" / "segments.jsonl"),
                "--out", str(tmp_path / "out")])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err
    assert not (tmp_path / "out" / "features.csv").exists()


def _set_cell(column, value):
    def edit(line):
        cells = line.split(",")
        cells[column] = value
        return ",".join(cells)
    return edit


@pytest.mark.parametrize("edit", [
    _set_cell(7, "abc"),  # f_1
    _set_cell(7, "inf"),
    _set_cell(0, "1.5"),  # event_id
    lambda line: line.rsplit(",", 1)[0],
], ids=["f_1_not_a_number", "f_1_infinite", "event_id_not_an_integer", "row_too_short"])
def test_crossval_on_bad_feature_row_exits_3(workspace, tmp_path, capsys, edit):
    table = workspace / "feat" / "features.csv"
    assert table.read_text().split(",")[7] == "f_1"
    broken = _edit_line(table, tmp_path / "features.csv", 1, edit)
    code = run(["crossval", "--table", str(broken)])
    assert code == 3
    assert "input error" in capsys.readouterr().err


def _set_last_cell(table, target, lineno, text):
    """`table` with the last cell of line `lineno` set to `text`, its CRLF line ends kept."""
    lines = table.read_bytes().split(b"\r\n")
    lines[lineno - 1] = lines[lineno - 1].rsplit(b",", 1)[0] + b"," + text.encode()
    target.write_bytes(b"\r\n".join(lines))
    return target


@pytest.mark.parametrize("cell, value", [("1_0", 10.0), ("\u0661", 1.0)])
def test_a_feature_cell_reads_as_float_reads_it(workspace, tmp_path, cell, value):
    table = _set_last_cell(workspace / "feat" / "features.csv", tmp_path / "features.csv", 2, cell)
    assert load_features_csv(table).values[0, -1] == value


def test_a_comment_mark_in_a_feature_cell_exits_3_naming_its_line(workspace, tmp_path, capsys):
    table = _set_last_cell(workspace / "feat" / "features.csv", tmp_path / "features.csv", 3, "5#x")
    assert run(["crossval", "--table", str(table)]) == 3
    assert f"{table}:3: could not convert string to float: '5#x'" in capsys.readouterr().err


def test_detect_and_features_read_the_dataset_once(workspace, tmp_path):
    dataset = (workspace / "gen" / "dataset.jsonl").resolve()
    opened, watching = [], [True]

    def audit(event, args):  # every file open, whichever layer of io makes it
        if watching[0] and event == "open" and isinstance(args[0], (str, os.PathLike)):
            opened.append(Path(args[0]).resolve())

    sys.addaudithook(audit)  # a hook cannot be removed: it stops watching below
    try:
        assert run(["detect", "--dataset", str(dataset), "--out", str(tmp_path)]) == 0
        assert opened.count(dataset) == 1
        assert run(["features", "--segments", str(tmp_path / "segments.jsonl"),
                    "--out", str(tmp_path)]) == 0
        assert opened.count(dataset) == 2
    finally:
        watching[0] = False


@pytest.mark.parametrize("edit", [
    lambda line: line.replace("f_0,f_1,", "f_1,f_0,"),
    lambda line: line.replace(",f_3,", ",g_3,"),
], ids=["profile_columns_swapped", "profile_column_renamed"])
def test_crossval_on_bad_profile_header_exits_3(workspace, tmp_path, capsys, edit):
    broken = _edit_line(workspace / "feat" / "features.csv", tmp_path / "features.csv", 0, edit)
    assert run(["crossval", "--table", str(broken)]) == 3
    assert "is not a feature table" in capsys.readouterr().err


@pytest.fixture(scope="module")
def length_only_table(workspace, tmp_path_factory):
    """The workspace's segments featurized with include_rssi = false: no f_ columns."""
    root = tmp_path_factory.mktemp("length_only")
    (root / "config.ini").write_text("[features]\ninclude_rssi = false\n")
    assert run(["features", "--config", str(root / "config.ini"),
                "--segments", str(workspace / "det" / "segments.jsonl"), "--out", str(root)]) == 0
    return root / "features.csv"


def test_length_only_table_serves_the_length_set(length_only_table, capsys):
    header = length_only_table.read_text().splitlines()[0]
    assert header == "event_id,type_name,label,est_speed,est_length,drop_magnitude"
    assert run(["crossval", "--table", str(length_only_table), "--features", "length",
                "--algos", "knn,svm,length"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["crossval", "--features", "rssi", "--algos", "svm"],
    ["crossval", "--features", "rssi", "--algos", "knn"],
    ["crossval", "--features", "both"],
    ["evaluate", "--features", "rssi"],
], ids=["crossval_rssi_svm", "crossval_rssi_knn", "crossval_both", "evaluate_rssi"])
def test_profile_feature_sets_on_a_length_only_table_exit_3(length_only_table, capsys, argv):
    assert run([*argv, "--table", str(length_only_table)]) == 3
    err = capsys.readouterr().err
    assert str(length_only_table) in err and "no drop profile columns" in err


@pytest.fixture(scope="module")
def mutable_files(tmp_path_factory):
    """The bytes of a 4-event dataset and of its segments and feature table.

    Two events per label let the unchanged table fill a stratified 2-fold split.
    """
    root = tmp_path_factory.mktemp("fuzz")
    assert run(["generate", "--out", str(root), "--mix", "passenger car=2,truck=2",
                "--seed", "3"]) == 0
    assert run(["detect", "--dataset", str(root / "dataset.jsonl"), "--out", str(root)]) == 0
    assert run(["features", "--segments", str(root / "segments.jsonl"),
                "--out", str(root)]) == 0
    return {name: (root / name).read_bytes()
            for name in ("dataset.jsonl", "segments.jsonl", "features.csv")}


@pytest.fixture(scope="module")
def mutable_lines(mutable_files):
    """The lines of the files of `mutable_files`, without their line ends."""
    return {name: data.decode().splitlines() for name, data in mutable_files.items()}


# (the file mutated, the command and the file it reads, the exit codes it may
# end with if the mutation changed the file); every other file stays intact.
FUZZED = [
    ("dataset.jsonl", ["detect", "--dataset"], "dataset.jsonl", (0, 2, 3)),
    ("segments.jsonl", ["features", "--segments"], "segments.jsonl", (0, 2, 3, 4)),
    ("dataset.jsonl", ["features", "--segments"], "segments.jsonl", (3,)),  # hash differs
    ("features.csv", ["crossval", "--folds", "2", "--k", "1", "--table"], "features.csv",
     (0, 2, 3, 4)),
]


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=3),
    max_leaves=8,
)


def _mutate(lines, data):
    out = list(lines)
    i = data.draw(st.integers(0, len(out) - 1), label="line")
    kind = data.draw(st.sampled_from(["text", "drop", "cut", "del_key", "set_key", "cell"]),
                     label="mutation")
    if kind == "text":
        out[i] = data.draw(st.text(max_size=30))
    elif kind == "drop":
        del out[i]
    elif kind == "cut":
        out[i] = out[i][: data.draw(st.integers(0, len(out[i])))]
    elif not out[i].startswith("{"):  # a feature table row: rewrite or delete one cell
        cells = out[i].split(",")
        col = data.draw(st.integers(0, len(cells) - 1))
        if kind == "del_key":
            del cells[col]
        else:
            cells[col] = str(data.draw(JSON_VALUES))
        out[i] = ",".join(cells)
    else:
        record = json.loads(out[i])
        if kind == "cell" and "values" in record:
            counts = _counts(record)
            col = data.draw(st.integers(0, len(counts) - 1))
            if data.draw(st.booleans(), label="delete cell"):
                counts = np.delete(counts, col)
            else:
                counts[col] = data.draw(st.integers(-2**7, 2**7 - 1))
            record["values"] = _encode(counts)
        else:
            key = data.draw(st.sampled_from(sorted(record)))
            if kind == "del_key":
                del record[key]
            else:
                record[key] = data.draw(JSON_VALUES)
        out[i] = json.dumps(record)
    return out


@settings(max_examples=160, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_detect_on_mutated_dataset_exits_cleanly(mutable_lines, capsys, data):
    name, command, target, exits = data.draw(st.sampled_from(FUZZED), label="case")
    files = dict(mutable_lines, **{name: _mutate(mutable_lines[name], data)})
    with tempfile.TemporaryDirectory() as tmp:
        for file, lines in files.items():
            (Path(tmp) / file).write_text("\n".join(lines) + "\n")
        code = run([*command, str(Path(tmp) / target), "--out", str(Path(tmp) / "out")])
    capsys.readouterr()
    assert code in (exits if files[name] != mutable_lines[name] else (0,))


# tokens a reader may meet in place of one of a file's own: numbers it cannot hold, JSON
# words and empty containers, quotes, and bytes that are not UTF-8
TOKENS = [b"", b"0", b"-1", b"2", b"0.5", b"-0", b"1e999", b"NaN", b"Infinity", b"null",
          b"true", b'""', b'"x"', b"[]", b"{}", b"[1]", b"9" * 30, b"\xff", b","]


def _mutate_bytes(data, draw):
    """`data` after one mutation: a byte replaced, a token replaced, the file truncated, or
    one line duplicated or dropped."""
    kind = draw(st.sampled_from(["byte", "token", "truncate", "duplicate", "drop"]),
                label="mutation")
    if kind == "byte":
        at = draw(st.integers(0, len(data) - 1))
        return data[:at] + bytes([draw(st.integers(0, 255))]) + data[at + 1:]
    if kind == "truncate":
        return data[:draw(st.integers(0, len(data) - 1))]
    if kind == "token":  # a JSON string, number or word, or a CSV cell
        tokens = list(re.finditer(rb'"[^"\n]*"|[^\s",:\[\]{}]+', data))
        token = draw(st.sampled_from(tokens))
        new = draw(st.sampled_from(TOKENS) | st.sampled_from([t.group() for t in tokens]))
        return data[:token.start()] + new + data[token.end():]
    lines = data.splitlines(keepends=True)
    i = draw(st.integers(0, len(lines) - 1))
    return b"".join(lines[:i] + lines[i:i + 1] * (2 if kind == "duplicate" else 0) + lines[i + 1:])


@settings(max_examples=500, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_readers_survive_single_mutations_of_their_bytes(mutable_files, capsys, data):
    name, command, target, exits = data.draw(st.sampled_from(FUZZED), label="case")
    files = dict(mutable_files, **{name: _mutate_bytes(mutable_files[name], data.draw)})
    with tempfile.TemporaryDirectory() as tmp:
        for file, content in files.items():
            (Path(tmp) / file).write_bytes(content)
        code = run([*command, str(Path(tmp) / target), "--out", str(Path(tmp) / "out")])
    assert "Traceback" not in capsys.readouterr().err
    assert code in (exits if files[name] != mutable_files[name] else (0,))
