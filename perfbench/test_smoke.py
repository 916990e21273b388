"""Fast smoke test of the benchmark: every workload at 3 events per type,
one pass untraced and two (one traced) with --trace 1."""
import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text())


_spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
bench = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = bench
_spec.loader.exec_module(bench)
spans = sys.modules[bench.Tracer.__module__]

# Span name of each traced layer call -> prefix of the span that must enclose it.
PARENTS = {
    "config.resolve_config": "cli.", "config.build_layout": "cli.", "config.build_patterns": "cli.",
    "simulator.generate_dataset": "cli.generate", "simulator.save_dataset": "cli.generate",
    "simulator.load_dataset": "cli.detect", "pipeline.detect_dataset": "cli.detect",
    "pipeline.save_segments": "cli.detect", "pipeline.load_segments": "cli.features",
    "pipeline.featurize_records": "cli.features", "pipeline.save_features_csv": "cli.features",
    "pipeline.load_features_csv": "cli.crossval", "pipeline.feature_matrix": "cli.crossval",
    "learn.cross_validate": "cli.crossval",
    "learn.knn.fit": "learn.cross_validate", "learn.knn.predict": "learn.cross_validate",
    "learn.svm.fit": "learn.cross_validate", "learn.svm.predict": "learn.cross_validate",
}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """(workload, trace) -> (last stdout line as JSON, full result record)."""
    results = tmp_path_factory.mktemp("results")
    out = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bench, "RESULTS", results)
        mp.setattr(bench, "WORK", tmp_path_factory.mktemp("work"))
        for workload in sorted(bench.WORKLOADS):
            for trace in (0, 1):
                before = set(results.iterdir())
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout):
                    rc = bench.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                                     "--trace", str(trace)], events_per_type=3)
                assert rc == 0
                (written,) = set(results.iterdir()) - before
                last = stdout.getvalue().strip().splitlines()[-1]
                out[workload, trace] = (json.loads(last), json.loads(written.read_text()))
    return out


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_every_declared_metric_is_printed_with_its_unit(runs, workload, trace):
    line, record = runs[workload, trace]
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True, record["problems"]
    assert line["attempted"] >= 1 and line["failed"] == 0
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(v["value"], (int, float)) for v in line["metrics"].values())


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_spans_nest_under_their_cli_command(runs, workload):
    by_id = {sp["id"]: sp for sp in runs[workload, 1][1]["spans"]}
    assert by_id
    for sp in by_id.values():
        if sp["name"].startswith("cli."):
            assert sp["parent"] is None
            continue
        parent = by_id[sp["parent"]]
        assert parent["name"].startswith(PARENTS[sp["name"]]), (sp, parent)
        assert parent["run"] == sp["run"]
        assert parent["start"] <= sp["start"] <= sp["end"] <= parent["end"]


def test_paper_chain_trace_covers_every_layer_call(runs):
    names = {sp["name"] for sp in runs["paper_chain", 1][1]["spans"]}
    assert set(PARENTS) <= names
    assert {"cli.generate", "cli.detect", "cli.features", "cli.crossval"} <= names


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_self_times_are_not_negative(runs, workload):
    traced = [spans.Span(**sp) for sp in runs[workload, 1][1]["spans"]]
    assert min(spans.self_times(traced).values()) >= 0.0


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_outputs_repeat_across_runs_of_one_seed(runs, workload):
    assert runs[workload, 0][1]["digests"] == runs[workload, 1][1]["digests"]
