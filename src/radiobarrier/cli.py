"""Command-line entry point wiring configuration, simulation, pipeline and
learning into reproducible runs.

Exit codes: 0 success, 1 usage error, 2 configuration error, 3 input-data
error, 4 training or estimation error.
"""
from __future__ import annotations

import argparse
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .config import resolve_config
from .errors import (
    ConfigurationError,
    EstimationError,
    InputDataError,
    TrainingError,
)
from .learn import (
    KnnClassifier,
    LengthThresholdClassifier,
    SvmClassifier,
    cross_validate,
    evaluate_predictions,
    format_percent,
)
from .pipeline import (
    detect_dataset,
    feature_matrix,
    featurize_records,
    load_features_csv,
    load_segments,
    save_features_csv,
    save_segments,
)
from .simulator import baseline_rssi, generate_dataset, load_dataset, save_dataset
from .pipeline import reflection_study

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_INPUT = 3
EXIT_TRAINING = 4


class _UsageError(Exception):
    """A command line that names an output it cannot write (exit 1)."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract here is exit 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _write_manifest(out_dir: Path, command: str, args: argparse.Namespace,
                    inputs: list, outputs: list) -> None:
    manifest = {
        "command": command,
        "argv": args.argv,
        "config": getattr(args, "config", None),
        "seed": getattr(args, "seed", None),
        "inputs": [str(p) for p in inputs],
        "outputs": [str(p) for p in outputs],
        "version": __version__,
        "created": datetime.now(timezone.utc).isoformat(),
    }
    path = out_dir / f"manifest.{command}.json"  # one per command: a shared --out keeps all
    path.write_text(json.dumps(manifest, sort_keys=True, indent=1) + "\n")


def _out_dir(args, *names) -> Path:
    """The --out directory, made if missing; a usage error when it cannot be one, or when
    one of the files `names` or the command's manifest is a directory there."""
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # an existing file, a path under one, or no permission
        raise _UsageError(f"--out {out} cannot be a directory: {exc.strerror}") from exc
    for name in (*names, f"manifest.{args.command}.json"):
        if (out / name).is_dir():
            raise _UsageError(f"--out {out}: cannot write {out / name}, it is a directory")
    return out


def _at_least(minimum: int):
    """An argparse type for whole numbers of at least `minimum`."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not a whole number") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value
    return parse


def _parse_mix(text: str) -> dict:
    mix = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ConfigurationError(f"mix entry {part!r} must look like 'type=count'")
        name, _, count = part.partition("=")
        name = name.strip()
        if name in mix:
            raise ConfigurationError(f"mix names {name!r} twice")
        try:
            mix[name] = int(count)
        except ValueError:
            raise ConfigurationError(f"bad count in mix entry {part!r}") from None
    return mix


# ---------------------------------------------------------------------------
# subcommands

def _cmd_generate(args) -> int:
    cfg = resolve_config(args.config)
    layout = cfg.build_layout()
    patterns = cfg.build_patterns(layout)
    mix = _parse_mix(args.mix) if args.mix else {t: 50 for t in cfg.catalog}
    dataset = generate_dataset(
        layout, cfg.channel, patterns, cfg.catalog, mix, cfg.sim,
        seed=args.seed, jobs=args.jobs,
    )
    out = _out_dir(args, "dataset.jsonl")
    target = out / "dataset.jsonl"
    save_dataset(dataset, target)
    _write_manifest(out, "generate", args, [], [target])
    print(f"wrote {len(dataset.events)} events to {target}")
    return EXIT_OK


def _cmd_baseline(args) -> int:
    cfg = resolve_config(args.config)
    layout = cfg.build_layout()
    patterns = cfg.build_patterns(layout)
    values = baseline_rssi(layout, cfg.channel, patterns)
    rows = [
        (link.id, link.tx_id, link.rx_id, link.kind, link.length, value)
        for link, value in zip(layout.links, values)
    ]
    lines = [f"{'Link':>4}  {'Tx':>3}  {'Rx':>3}  {'Kind':8}  {'Length-m':>8}  {'RSSI-dBm':>9}"]
    for lid, tx, rx, kind, length, value in rows:
        lines.append(f"{lid:>4}  {tx:>3}  {rx:>3}  {kind:8}  {length:8.3f}  {value:9.2f}")
    table = "\n".join(lines)
    print(table)
    if args.out:
        out = _out_dir(args, "baseline.txt")
        target = out / "baseline.txt"
        target.write_text(table + "\n")
        _write_manifest(out, "baseline", args, [], [target])
    return EXIT_OK


def _cmd_detect(args) -> int:
    cfg = resolve_config(args.config)
    layout = cfg.build_layout()
    dataset = load_dataset(args.dataset)
    records, summary = detect_dataset(dataset, layout, cfg.detection)
    out = _out_dir(args, "segments.jsonl")
    target = out / "segments.jsonl"
    save_segments(records, target, layout, args.dataset)
    _write_manifest(out, "detect", args, [args.dataset], [target])
    print(
        f"detected {summary.events_detected}/{summary.events_total} passages "
        f"({summary.segments_total} segments, {summary.spurious_segments} spurious); "
        f"wrote {target}"
    )
    return EXIT_OK


def _cmd_features(args) -> int:
    cfg = resolve_config(args.config)
    layout = cfg.build_layout()
    records = load_segments(args.segments, layout)
    vectors = featurize_records(records, layout, cfg.features)
    out = _out_dir(args, "features.csv")
    target = out / "features.csv"
    save_features_csv(vectors, target)
    _write_manifest(out, "features", args, [args.segments], [target])
    print(f"wrote {len(vectors)} feature rows to {target}")
    return EXIT_OK


def _make_factory(algo: str, args):
    if algo == "knn":
        return lambda: KnnClassifier(k=args.k)
    if algo == "svm":
        return lambda: SvmClassifier(kernel=args.kernel, C=args.C, gamma=args.gamma)
    if algo == "length":
        return lambda: LengthThresholdClassifier()
    raise ConfigurationError(f"unknown algorithm {algo!r}")


ALGO_TITLES = {"knn": "k-NN", "svm": "SVM", "length": "Rec. rate"}


def render_crossval(result: dict, markdown: bool = False) -> str:
    """Fold table with one accuracy column per algorithm and a mean row."""
    algos = list(result["algos"])
    folds = len(next(iter(result["algos"].values()))["fold_accuracies"])
    names = [f"S{i + 1}" for i in range(folds)]
    header = ["Training set", "Test set"] + [ALGO_TITLES.get(a, a) for a in algos]
    rows = []
    for i in range(folds):
        train = ", ".join(n for j, n in enumerate(names) if j != i)
        row = [train, names[i]]
        for a in algos:
            row.append(format_percent(result["algos"][a]["fold_accuracies"][i]))
        rows.append(row)
    summary_row = ["Mean ± std", ""]
    for a in algos:
        m = result["algos"][a]["mean"]
        s = result["algos"][a]["std"]
        summary_row.append(f"{format_percent(m)} ± {format_percent(s)}")
    rows.append(summary_row)
    return _render_table(header, rows, markdown)


def render_evaluation(result: dict, markdown: bool = False) -> str:
    """Per-type recognition table with an overall success rate row."""
    algos = list(result["columns"])
    header = ["Label", "Vehicle type", "Test samples"] + [ALGO_TITLES.get(a, a) for a in algos]
    rows = []
    for entry in result["rows"]:
        rows.append(
            [entry["label"], entry["type_name"], str(entry["samples"])]
            + [format_percent(entry["rates"][a]) for a in algos]
        )
    overall = result["overall"]
    rows.append(
        ["Overall success rate", "", str(overall["samples"])]
        + [format_percent(overall["rates"][a]) for a in algos]
    )
    return _render_table(header, rows, markdown)


def render_study(result: dict) -> str:
    lines = []
    for variant in ("on", "off"):
        stats = result["variants"][variant]
        lines.append(f"Ground reflection {variant}:")
        lines.append(f"  {'Label':15} {'Events':>6} {'Mean':>7} {'Std':>7} {'Min':>7} {'Max':>7}")
        for label, s in stats.items():
            lines.append(
                f"  {label:15} {s['count']:>6} {s['mean']:7.2f} {s['std']:7.2f} "
                f"{s['min']:7.2f} {s['max']:7.2f}"
            )
        lines.append(f"  Gap (passenger_car - truck): {result['gaps'][variant]:+.2f} dB")
    return "\n".join(lines)


def _render_table(header, rows, markdown: bool) -> str:
    table = [list(map(str, header))] + [list(map(str, r)) for r in rows]
    widths = [max(len(row[c]) for row in table) for c in range(len(header))]
    if markdown:
        lines = ["| " + " | ".join(h.ljust(w) for h, w in zip(table[0], widths)) + " |"]
        lines.append("|" + "|".join("-" * (w + 2) for w in widths) + "|")
        for row in table[1:]:
            lines.append("| " + " | ".join(v.ljust(w) for v, w in zip(row, widths)) + " |")
    else:
        lines = ["  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip() for row in table]
    return "\n".join(lines)


def _cmd_crossval(args) -> int:
    vectors = load_features_csv(args.table)
    X = feature_matrix(vectors, args.feature_set)
    y = np.array([fv.label for fv in vectors])
    ids = [fv.event_id for fv in vectors]
    algos = [a.strip() for a in args.algos.split(",") if a.strip()]
    if not algos:
        raise ConfigurationError(f"--algos {args.algos!r} names no algorithm")
    result = {"kind": "crossval", "feature_set": args.feature_set,
              "folds": args.folds, "seed": args.seed, "algos": {}}
    for algo in algos:
        cv = cross_validate(X, y, ids, _make_factory(algo, args),
                            folds=args.folds, seed=args.seed)
        result["algos"][algo] = {
            "fold_accuracies": list(cv.fold_accuracies),
            "mean": cv.mean,
            "std": cv.std,
        }
    print(render_crossval(result))
    if args.out:
        out = _out_dir(args, "crossval.json")
        target = out / "crossval.json"
        target.write_text(json.dumps(result, sort_keys=True, indent=1) + "\n")
        _write_manifest(out, "crossval", args, [args.table], [target])
    return EXIT_OK


def _split_train_test(vectors, test_fraction: float, seed: int):
    rng = np.random.default_rng(seed)
    by_label = {}
    ordered = sorted(vectors, key=lambda fv: fv.event_id)
    for i, fv in enumerate(ordered):
        by_label.setdefault(fv.label, []).append(i)
    test_idx = set()
    for label in sorted(by_label):
        idxs = np.array(by_label[label])
        rng.shuffle(idxs)
        n_test = max(1, int(round(test_fraction * len(idxs))))
        test_idx.update(int(i) for i in idxs[:n_test])
    train = [fv for i, fv in enumerate(ordered) if i not in test_idx]
    test = [fv for i, fv in enumerate(ordered) if i in test_idx]
    return train, test


def _cmd_evaluate(args) -> int:
    if not 0 < args.test_fraction < 1:
        raise ConfigurationError(f"--test-fraction must lie inside (0, 1), got {args.test_fraction}")
    vectors = load_features_csv(args.table)
    train, test = _split_train_test(vectors, args.test_fraction, args.seed)
    if not train or not test:
        raise InputDataError("train/test split left an empty side")
    X_train = feature_matrix(train, args.feature_set)
    X_test = feature_matrix(test, args.feature_set)
    y_train = np.array([fv.label for fv in train])
    y_test = np.array([fv.label for fv in test])
    type_names = [fv.type_name for fv in test]

    algos = ["length"] if args.feature_set == "length" else ["knn", "svm"]
    reports = {}
    for algo in algos:
        model = _make_factory(algo, args)()
        model.fit(X_train, y_train)
        reports[algo] = evaluate_predictions(y_test, model.predict(X_test), type_names)

    first = reports[algos[0]]
    rows = []
    for tr in first.per_type:
        rows.append(
            {
                "label": tr.label,
                "type_name": tr.type_name,
                "samples": tr.count,
                "rates": {
                    a: next(t.rate for t in reports[a].per_type if t.type_name == tr.type_name)
                    for a in algos
                },
            }
        )
    result = {
        "kind": "evaluate",
        "feature_set": args.feature_set,
        "columns": algos,
        "rows": rows,
        "overall": {
            "samples": first.total,
            "rates": {a: reports[a].overall_rate for a in algos},
        },
    }
    print(render_evaluation(result))
    if args.out:
        out = _out_dir(args, "evaluation.json")
        target = out / "evaluation.json"
        target.write_text(json.dumps(result, sort_keys=True, indent=1) + "\n")
        _write_manifest(out, "evaluate", args, [args.table], [target])
    return EXIT_OK


def _cmd_study(args) -> int:
    cfg = resolve_config(args.config)
    layout = cfg.build_layout()
    patterns = cfg.build_patterns(layout)
    mix = _parse_mix(args.mix) if args.mix else {t: 20 for t in cfg.catalog}
    study = reflection_study(
        layout, cfg.channel, patterns, cfg.catalog, mix, cfg.sim,
        seed=args.seed, det_cfg=cfg.detection,
    )
    result = {
        "kind": "study",
        "variants": {
            variant: {
                label: {
                    "count": s.count, "mean": s.mean, "std": s.std,
                    "min": s.min, "max": s.max,
                }
                for label, s in stats.items()
            }
            for variant, stats in study.stats.items()
        },
        "gaps": study.gaps,
    }
    print(render_study(result))
    if args.out:
        out = _out_dir(args, "study.json", "study_drops.csv")
        target = out / "study.json"
        target.write_text(json.dumps(result, sort_keys=True, indent=1) + "\n")
        drops_csv = out / "study_drops.csv"
        with drops_csv.open("w") as fh:
            fh.write("variant,event_id,label,drop_db\n")
            for variant, drops in study.drops.items():
                for event_id, label, drop in drops:
                    fh.write(f"{variant},{event_id},{label},{format(drop, '.17g')}\n")
        _write_manifest(out, "study", args, [], [target, drops_csv])
    return EXIT_OK


def _cmd_report(args) -> int:
    path = Path(args.input)
    try:  # missing, a directory, not JSON, or JSON that is not a complete results object
        result = json.loads(path.read_text())
        kind = result.get("kind")
        if kind == "crossval":
            table = render_crossval(result, markdown=args.markdown)
        elif kind == "evaluate":
            table = render_evaluation(result, markdown=args.markdown)
        elif kind == "study":
            table = render_study(result)
        else:
            raise InputDataError(f"{path}: unknown results kind {kind!r}")
    except (OSError, ValueError, LookupError, TypeError, AttributeError, StopIteration) as exc:
        raise InputDataError(f"{path}: not a results file: {exc!r}") from exc
    print(table)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="radiobarrier",
                     description="Roadside radio-link vehicle detection and classification")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_common(p, config=True, seed=True):
        if config:
            p.add_argument("--config", default="default", help="config file path or 'default'")
        if seed:
            p.add_argument("--seed", type=_at_least(0), default=0,
                           help="master random seed, at least 0")

    p = sub.add_parser("generate", help="simulate a labelled dataset")
    add_common(p)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--mix", help="per-type event counts, e.g. 'passenger car=50,truck=50'")
    p.add_argument("--jobs", type=_at_least(1), default=1,
                   help="parallel workers, at least 1 (same output for any value)")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("baseline", help="print the vehicle-free per-link RSSI table")
    add_common(p, seed=False)
    p.add_argument("--out", help="optional output directory")
    p.set_defaults(func=_cmd_baseline)

    p = sub.add_parser("detect", help="segment a dataset into passages")
    add_common(p, seed=False)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("features", help="turn segments into a feature table")
    add_common(p, seed=False)
    p.add_argument("--segments", required=True, help="segments file from 'detect'")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_features)

    p = sub.add_parser("crossval", help="k-fold cross-validation on a feature table")
    add_common(p, config=False)
    p.add_argument("--table", required=True, help="feature table from 'features'")
    p.add_argument("--features", dest="feature_set",
                   choices=["length", "rssi", "both"], default="both")
    p.add_argument("--algos", default="knn,svm", help="comma list of knn,svm,length")
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--k", type=int, default=3, help="k for k-NN")
    p.add_argument("--kernel", choices=["linear", "rbf"], default="rbf")
    p.add_argument("--C", type=float, default=10.0)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--out", help="optional output directory")
    p.set_defaults(func=_cmd_crossval)

    p = sub.add_parser("evaluate", help="train/test split recognition-rate report")
    add_common(p, config=False)
    p.add_argument("--table", required=True, help="feature table from 'features'")
    p.add_argument("--features", dest="feature_set",
                   choices=["length", "rssi", "both"], default="both")
    p.add_argument("--test-fraction", type=float, default=0.25)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--kernel", choices=["linear", "rbf"], default="rbf")
    p.add_argument("--C", type=float, default=10.0)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--out", help="optional output directory")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("study", help="ground-reflection drop comparison (on vs off)")
    add_common(p)
    p.add_argument("--mix", help="per-type event counts")
    p.add_argument("--out", help="optional output directory")
    p.set_defaults(func=_cmd_study)

    p = sub.add_parser("report", help="render saved results as a text or markdown table")
    p.add_argument("--input", required=True, help="results JSON from crossval/evaluate/study")
    p.add_argument("--markdown", action="store_true")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    args.argv = argv  # what the manifest records
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"{parser.prog} {args.command}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InputDataError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (TrainingError, EstimationError) as exc:
        print(f"training/estimation error: {exc}", file=sys.stderr)
        return EXIT_TRAINING


if __name__ == "__main__":
    sys.exit(main())
