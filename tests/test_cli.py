import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from radiobarrier.cli import main

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
    assert run(["features", "--dataset", str(root / "gen" / "dataset.jsonl"),
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


def test_generate_jobs_flag_is_byte_identical(tmp_path):
    for name, jobs in (("serial", "1"), ("parallel", "2")):
        code = run(["generate", "--out", str(tmp_path / name), "--jobs", jobs,
                    "--mix", "passenger car=2,van=2", "--seed", "8"])
        assert code == 0
    assert (tmp_path / "serial" / "dataset.jsonl").read_bytes() == \
        (tmp_path / "parallel" / "dataset.jsonl").read_bytes()


def test_manifest_written(workspace):
    manifest = json.loads((workspace / "gen" / "manifest.generate.json").read_text())
    assert manifest["command"] == "generate"
    assert manifest["seed"] == 21
    assert manifest["outputs"]
    assert "version" in manifest


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


def test_report_renders_saved_results(workspace, tmp_path, capsys):
    run(["crossval", "--table", str(workspace / "feat" / "features.csv"),
         "--out", str(tmp_path)])
    capsys.readouterr()
    assert run(["report", "--input", str(tmp_path / "crossval.json")]) == 0
    plain = capsys.readouterr().out
    assert "Training set" in plain
    assert run(["report", "--input", str(tmp_path / "crossval.json"), "--markdown"]) == 0
    md = capsys.readouterr().out
    assert md.startswith("|")


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


def test_config_error_exit_code(tmp_path, capsys):
    code = run(["generate", "--config", str(tmp_path / "missing.ini"),
                "--out", str(tmp_path / "out")])
    assert code == 2
    capsys.readouterr()


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


@pytest.mark.parametrize("index, edit, needle", [
    (1, _edit_record(lambda r: r.pop("dt")), "dt"),
    (0, lambda line: line[:-1], "header"),
    (1, _edit_record(lambda r: r["windows"].update({"10": [1.0, 1.2]})), "windows"),
], ids=["line_without_dt", "header_not_json", "window_of_unknown_link"])
def test_features_on_bad_segments_exits_3(workspace, tmp_path, capsys, index, edit, needle):
    broken = _edit_line(workspace / "det" / "segments.jsonl", tmp_path / "segments.jsonl",
                        index, edit)
    code = run(["features", "--segments", str(broken), "--out", str(tmp_path / "out")])
    assert code == 3
    err = capsys.readouterr().err
    assert "input error" in err and needle in err


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


@pytest.fixture(scope="module")
def mutable_lines(tmp_path_factory):
    """The lines of a 4-event dataset and of its segments and feature table.

    Two events per label let the unchanged table fill a stratified 2-fold split.
    """
    root = tmp_path_factory.mktemp("fuzz")
    assert run(["generate", "--out", str(root), "--mix", "passenger car=2,truck=2",
                "--seed", "3"]) == 0
    assert run(["detect", "--dataset", str(root / "dataset.jsonl"), "--out", str(root)]) == 0
    assert run(["features", "--segments", str(root / "segments.jsonl"),
                "--out", str(root)]) == 0
    return {name: (root / name).read_text().splitlines() for name in FUZZED}


# File -> the command that reads it and the exit codes it may end with.
FUZZED = {
    "dataset.jsonl": (["detect", "--dataset"], (0, 2, 3)),
    "segments.jsonl": (["features", "--segments"], (0, 2, 3, 4)),
    "features.csv": (["crossval", "--folds", "2", "--k", "1", "--table"], (0, 2, 3, 4)),
}


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
            row = record["values"][data.draw(st.integers(0, len(record["values"]) - 1))]
            col = data.draw(st.integers(0, len(row) - 1))
            if data.draw(st.booleans(), label="delete cell"):
                del row[col]
            else:
                row[col] = data.draw(JSON_VALUES)
        else:
            key = data.draw(st.sampled_from(sorted(record)))
            if kind == "del_key":
                del record[key]
            else:
                record[key] = data.draw(JSON_VALUES)
        out[i] = json.dumps(record)
    return out


@settings(max_examples=120, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_detect_on_mutated_dataset_exits_cleanly(mutable_lines, capsys, data):
    name = data.draw(st.sampled_from(sorted(FUZZED)), label="file")
    command, exits = FUZZED[name]
    lines = _mutate(mutable_lines[name], data)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_text("\n".join(lines) + "\n")
        code = run([*command, str(path), "--out", str(Path(tmp) / "out")])
    capsys.readouterr()
    assert code in exits
