#!/usr/bin/env python3
"""End-to-end benchmark of the radiobarrier CLI chain.

    python3 perfbench/run.py --workload paper_chain --seed 42 --seconds 40 --trace 0

Runs one workload through ``radiobarrier.cli.main``, checks every command's
outputs, and prints a report followed by one JSON line with the end-to-end
metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).  The full
record, spans included, goes to ``perfbench/results/``.  See README.md here.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
RESULTS = HERE / "results"

sys.path.insert(0, str(HERE))
from spans import Tracer, instrument, layer_metrics  # noqa: E402

SETUP_REPEATS = 5
# learn_sweep repeats its grid over this many fold seeds per pass (disjoint
# sets for different workload seeds), so a pass averages over fold splits.
FOLD_SEEDS_PER_PASS = 4
# Lowest mean CV accuracy accepted per feature set: `both` is the paper's
# >= 95 % target; `length` only has to beat a coin, its classes overlap.
ACCURACY_FLOOR = {"both": 0.95, "length": 0.5}
DETECT_LINE = re.compile(r"detected (\d+)/(\d+) passages \((\d+) segments, (\d+) spurious\)")

# Timed in a fresh interpreter, SETUP_REPEATS times: what every command pays
# before it touches data.
SETUP_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
t = time.perf_counter()
from radiobarrier import cli
cfg = cli.resolve_config("default")
cfg.build_patterns(cfg.build_layout())
print(time.perf_counter() - t)
"""


class PassAborted(Exception):
    """A command failed, so the rest of the pass has no input."""


@dataclass
class Command:
    name: str
    seconds: float
    ok: bool
    stdout: str
    phase: str


@dataclass
class Pass:
    index: int
    traced: bool
    wall: float = 0.0
    events: int = 0
    commands: Dict[str, float] = field(default_factory=dict)


class Run:
    """One benchmark run: every CLI command it made, its checks and timings."""

    def __init__(self, cli, seed: int, tracer: Optional[Tracer]):
        self.cli = cli
        self.seed = seed
        self.tracer = tracer
        self.tracing = False
        self.phase = "setup"
        self.commands: List[Command] = []
        self.problems: List[str] = []
        self.digests: Dict[str, str] = {}
        self.accuracy: Dict[str, List[float]] = {}
        self.detection_rates: List[float] = []
        self.current: Optional[Pass] = None

    # -- commands ------------------------------------------------------------

    def command(self, *argv: str) -> Command:
        out, err = io.StringIO(), io.StringIO()
        span = self.tracer.span(f"cli.{argv[0]}") if self.tracing else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), span:
                rc = self.cli.main(list(argv))
        except Exception:  # a traceback is a failed command, not a failed benchmark
            rc = "traceback"
            err.write(traceback.format_exc())
        seconds = time.perf_counter() - t0
        cmd = Command(argv[0], seconds, rc == 0, out.getvalue(), self.phase)
        self.commands.append(cmd)
        if self.current is not None:
            self.current.wall += seconds
            self.current.commands[cmd.name] = self.current.commands.get(cmd.name, 0.0) + seconds
        if rc != 0:
            self._fail(cmd, f"{' '.join(argv)} exited {rc}: {err.getvalue().strip()[-500:]}")
            raise PassAborted
        return cmd

    def _fail(self, cmd: Command, message: str) -> None:
        cmd.ok = False
        self.problems.append(f"[{self.phase}] {message}")

    def check(self, cmd: Command, condition: bool, message: str) -> None:
        if not condition:
            self._fail(cmd, message)

    def same(self, cmd: Command, key: str, path: Path) -> None:
        """Outputs of one seed must be byte-identical in every pass."""
        try:
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
        except OSError as exc:
            self._fail(cmd, f"{key}: {exc}")
            return
        first = self.digests.setdefault(key, digest)
        self.check(cmd, digest == first, f"{key} differs between passes ({digest} vs {first})")

    # -- the four CLI commands, each with its output checks --------------------

    def generate(self, out: Path, events_per_type: int, catalog) -> Command:
        mix = ",".join(f"{name}={events_per_type}" for name in catalog)
        cmd = self.command("generate", "--config", "default", "--seed", str(self.seed),
                           "--out", str(out), "--mix", mix, "--jobs", "1")
        events = events_per_type * len(catalog)
        self.check(cmd, cmd.stdout.startswith(f"wrote {events} events"),
                   f"generate: expected {events} events, got {cmd.stdout.strip()!r}")
        self.same(cmd, "dataset", out / "dataset.jsonl")
        return cmd

    def detect(self, dataset: Path, out: Path, events: int) -> Command:
        cmd = self.command("detect", "--dataset", str(dataset), "--out", str(out))
        found = DETECT_LINE.search(cmd.stdout)
        if found is None:
            self._fail(cmd, f"detect: no summary in {cmd.stdout.strip()!r}")
            return cmd
        detected, total, _, spurious = map(int, found.groups())
        self.detection_rates.append(detected / total if total else 0.0)
        self.check(cmd, detected == total == events and spurious == 0,
                   f"detect: {detected}/{total} of {events} events, {spurious} spurious")
        self.same(cmd, "segments", out / "segments.jsonl")
        return cmd

    def features(self, segments: Path, out: Path, events: int) -> Command:
        cmd = self.command("features", "--segments", str(segments), "--out", str(out))
        self.check(cmd, cmd.stdout.startswith(f"wrote {events} feature rows"),
                   f"features: expected {events} rows, got {cmd.stdout.strip()!r}")
        self.same(cmd, "features", out / "features.csv")
        return cmd

    def crossval(self, table: Path, out: Path, feature_set: str, *extra: str) -> Command:
        cmd = self.command("crossval", "--table", str(table), "--features", feature_set,
                           "--out", str(out), *extra)
        key = "crossval " + " ".join((feature_set,) + extra)
        self.same(cmd, key, out / "crossval.json")
        try:
            result = json.loads((out / "crossval.json").read_text())
        except (OSError, ValueError) as exc:
            self._fail(cmd, f"{key}: {exc}")
            return cmd
        for algo, summary in result["algos"].items():
            acc = summary["mean"]
            self.accuracy.setdefault(f"{algo}_{feature_set}", []).append(acc)
            self.check(cmd, ACCURACY_FLOOR[feature_set] <= acc <= 1.0,
                       f"{key}: {algo} accuracy {acc:.4f} below {ACCURACY_FLOOR[feature_set]}")
        return cmd


# ---------------------------------------------------------------------------
# Workloads.  All are closed loop: one process, one command at a time,
# `--jobs 1`.  Each pass repeats identical work, so its outputs must repeat.


class PaperChain:
    """The README chain on the paper's 300 events: generate -> detect ->
    features -> crossval (k-NN and SVM on `both`).  The only workload that
    simulates and writes a dataset inside the timed part."""

    name = "paper_chain"
    events_per_type = 50
    commands_per_pass = 4

    def setup(self, run: Run, work: Path, catalog) -> None:
        pass

    def one_pass(self, run: Run, out: Path, catalog) -> int:
        n = self.events_per_type * len(catalog)
        run.generate(out, self.events_per_type, catalog)
        run.detect(out / "dataset.jsonl", out, n)
        run.features(out / "segments.jsonl", out, n)
        run.crossval(out / "features.csv", out, "both", "--seed", str(run.seed))
        return n


class Replay:
    """An analyst re-running detect -> features -> crossval --algos knn over
    a dataset recorded in set-up: detection and dataset reading dominate;
    nothing is simulated or written to a dataset, and no SVM runs."""

    name = "replay"
    events_per_type = 50
    commands_per_pass = 3

    def setup(self, run: Run, work: Path, catalog) -> None:
        run.generate(work, self.events_per_type, catalog)

    def one_pass(self, run: Run, out: Path, catalog) -> int:
        n = self.events_per_type * len(catalog)
        run.detect(out.parent / "dataset.jsonl", out, n)
        run.features(out / "segments.jsonl", out, n)
        run.crossval(out / "features.csv", out, "both", "--algos", "knn", "--seed", str(run.seed))
        return n


class LearnSweep:
    """Model selection by crossval on one feature table built in set-up, at
    CLI defaults (k=3, C=10): an rbf and a linear SVM on the separable `both`
    features and an rbf SVM on the overlapping `length` feature, repeated
    over fold seeds drawn from the workload seed.

    Runs by hand only; BENCHMARK.json leaves it out because, with the current
    SMO solver, its time varies by more than any allowed bound from one seed
    to the next (README.md, "learn_sweep")."""

    name = "learn_sweep"
    events_per_type = 10
    grid = (("both", "rbf"), ("both", "linear"), ("length", "rbf"))
    commands_per_pass = FOLD_SEEDS_PER_PASS * len(grid)

    def setup(self, run: Run, work: Path, catalog) -> None:
        n = self.events_per_type * len(catalog)
        run.generate(work, self.events_per_type, catalog)
        run.detect(work / "dataset.jsonl", work, n)
        run.features(work / "segments.jsonl", work, n)

    def one_pass(self, run: Run, out: Path, catalog) -> int:
        n = self.events_per_type * len(catalog)
        table = out.parent / "features.csv"
        events = 0
        first = run.seed * FOLD_SEEDS_PER_PASS
        for fold_seed in range(first, first + FOLD_SEEDS_PER_PASS):
            for feature_set, kernel in self.grid:
                cell = out / f"{feature_set}-{kernel}-{fold_seed}"
                with contextlib.suppress(PassAborted):  # the cells are independent
                    run.crossval(table, cell, feature_set, "--kernel", kernel, "--seed", str(fold_seed))
                    events += n
        return events


WORKLOADS = {w.name: w for w in (PaperChain, Replay, LearnSweep)}


# ---------------------------------------------------------------------------
# Statistics and provenance


def tail(values: List[float]):
    """Median, plus the highest of p90/p99/p99.9 with at least ten samples
    beyond it (None when there are too few samples for any)."""
    n = len(values)
    out = {"median": statistics.median(values) if values else None, "n": n, "tail": None}
    for p in (99.9, 99.0, 90.0):
        if n * (1 - p / 100) >= 10:
            cut = statistics.quantiles(values, n=1000, method="inclusive")[int(p * 10) - 1]
            out["tail"] = {"p": p, "value": cut}
            break
    return out


def median_or_zero(values) -> float:
    return statistics.median(values) if values else 0.0


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "radiobarrier").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".ini"):
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def provenance(seed: int, numpy_version: str, digests: Dict[str, str]) -> dict:
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    cpu = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "git_commit": commit,
        "source_sha256": source_digest(),
        "cpu_model": cpu or platform.processor(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "seed": seed,
        "inputs_sha256": {k: v for k, v in digests.items() if k in ("dataset", "segments", "features")},
    }


# ---------------------------------------------------------------------------


def import_program():
    """Import radiobarrier from this checkout's sources, and nowhere else."""
    sys.path.insert(0, str(SRC))
    import numpy
    from radiobarrier import cli

    if Path(cli.__file__).resolve().parent != (SRC / "radiobarrier").resolve():
        raise ImportError(f"radiobarrier imported from {cli.__file__}, not from {SRC}")
    return cli, numpy.__version__


def time_setup_probe() -> float:
    done = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(SRC)], capture_output=True,
                          text=True, timeout=120, check=True, cwd=ROOT)
    return float(done.stdout.strip().splitlines()[-1])


def run_workload(workload, seed: int, seconds: float, trace: bool, cli, work: Path) -> dict:
    tracer = Tracer() if trace else None
    run = Run(cli, seed, tracer)
    catalog = list(cli.resolve_config("default").catalog)

    probes = [time_setup_probe() for _ in range(SETUP_REPEATS)]
    run.tracing = trace
    try:
        with instrument(tracer) if trace else contextlib.nullcontext():
            workload.setup(run, work, catalog)
    except PassAborted:
        pass
    setup_commands = [c for c in run.commands if c.phase == "setup"]
    inputs_s = sum(c.seconds for c in setup_commands)
    setup_s = statistics.median(probes) + inputs_s

    passes: List[Pass] = []
    pass_elapsed: List[float] = []
    aborted = 0
    window = time.perf_counter()
    while not any(not c.ok for c in setup_commands):
        i = len(passes)
        current = Pass(i, traced=trace and i % 2 == 1)
        out = work / f"pass-{i}"
        out.mkdir(parents=True)
        run.current, run.phase, run.tracing = current, f"pass-{i}", current.traced
        if tracer is not None:
            tracer.run = run.phase
        started = time.perf_counter()
        done_before = len(run.commands)
        try:
            with instrument(tracer) if current.traced else contextlib.nullcontext():
                current.events = workload.one_pass(run, out, catalog)
        except PassAborted:
            aborted += workload.commands_per_pass - (len(run.commands) - done_before)
        shutil.rmtree(out)
        passes.append(current)
        pass_elapsed.append(time.perf_counter() - started)
        elapsed = time.perf_counter() - window
        kinds = {p.traced for p in passes}
        if (not trace or kinds == {True, False}) and \
                elapsed + statistics.median(pass_elapsed) > seconds:
            break
    run.current = None

    attempted = len(run.commands) + aborted
    failed = sum(not c.ok for c in run.commands) + aborted
    timed = [p for p in passes if not p.traced]
    walls = [p.wall for p in timed]
    per_command = {}
    for name in ("generate", "detect", "features", "crossval"):
        samples = [p.commands[name] for p in timed if name in p.commands]
        samples += [c.seconds for c in setup_commands if c.name == name]
        if samples:
            per_command[f"{name}_s"] = tail(samples)

    end_to_end = {
        "setup_s": setup_s,
        "wall_s": median_or_zero(walls),
        "events_per_s": sum(p.events for p in timed) / sum(walls) if sum(walls) else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "detection_rate": median_or_zero(run.detection_rates),
        "knn_accuracy": median_or_zero(run.accuracy.get("knn_both", [])),
        "success_fraction": 1.0 - failed / attempted if attempted else 0.0,
    }
    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "attempted": attempted,
        "failed": failed,
        "problems": run.problems,
        "setup": {"probe_s": probes, "inputs_s": inputs_s},
        "passes": [vars(p) for p in passes],
        "timings": {"wall_s": tail(walls), **per_command},
        "end_to_end": end_to_end,
        "accuracy": {k: median_or_zero(v) for k, v in sorted(run.accuracy.items())},
        "digests": run.digests,
    }
    if trace:
        traced = [p.wall for p in passes if p.traced]
        per_layer = layer_metrics(tracer.spans)
        per_layer["trace.overhead_s"] = median_or_zero(traced) - median_or_zero(walls)
        record["per_layer"] = per_layer
        record["spans"] = tracer.as_records()
    return record


def declared_metrics() -> Dict[str, List[dict]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {"end_to_end": spec["end_to_end"], "per_layer": spec["per_layer"]}


def print_report(record: dict) -> None:
    print(f"# radiobarrier benchmark: workload {record['workload']}, seed {record['seed']}, "
          f"trace {record['trace']}, {len(record['passes'])} passes")
    print("# provenance " + json.dumps(record["provenance"], sort_keys=True))
    for name, t in record["timings"].items():
        if t["median"] is None:
            continue
        extra = (f", p{t['tail']['p']:g} {t['tail']['value']:.4f} s" if t["tail"]
                 else " (under 100 samples: no p90 with ten beyond it)")
        print(f"# {name:<12} median {t['median']:.4f} s{extra}, n={t['n']}")
    for name, value in record["accuracy"].items():
        print(f"# accuracy {name:<12} {value:.4f}")
    print(f"# failed_fraction {record['failed'] / max(record['attempted'], 1):.4f} "
          f"({record['failed']} of {record['attempted']} commands)")
    for problem in record["problems"]:
        print(f"# FAILED {problem}")
    for name, value in sorted(record.get("per_layer", {}).items()):
        print(f"# layer {name:<34} {value:.6g}")


def main(argv=None, events_per_type: Optional[int] = None) -> int:
    """Run one workload; `events_per_type` shrinks it for the smoke test."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    try:
        cli, numpy_version = import_program()
        declared = declared_metrics()
    except (ImportError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark cannot start: {exc}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]()
    if events_per_type is not None:
        workload.events_per_type = events_per_type
    work = WORK / f"{workload.name}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        record = run_workload(workload, args.seed, args.seconds, bool(args.trace), cli, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["provenance"] = provenance(args.seed, numpy_version, record["digests"])

    kind = "per_layer" if args.trace else "end_to_end"
    values = record[kind]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared[kind]}
    RESULTS.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (RESULTS / f"{workload.name}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json") \
        .write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print_report(record)
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
