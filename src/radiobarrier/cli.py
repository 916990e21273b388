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
    train_test_split,
)
from .pipeline import (
    detect_dataset,
    feature_matrix,
    featurize_records,
    load_features_csv,
    load_segments,
    reflection_study,
    save_features_csv,
    save_segments,
)
from .simulator import (baseline_rssi, config_fingerprint, generate_dataset, load_dataset,
                        save_dataset)

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


def _write_json(path: Path, value) -> None:
    path.write_text(json.dumps(value, sort_keys=True, indent=1) + "\n")


def _write_outputs(args, inputs: list, writers: dict) -> Path:
    """Write each file `name` of `writers` into the --out directory through
    `writers[name](path)`, then the command's manifest; returns the directory.

    The directory is made if missing.  A usage error, before anything is
    written, when it cannot be one, or when one of the files or the manifest
    is a directory there.
    """
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # an existing file, a path under one, or no permission
        raise _UsageError(f"--out {out} cannot be a directory: {exc.strerror}") from exc
    targets = [out / name for name in writers]
    manifest = out / f"manifest.{args.command}.json"  # one per command: a shared --out keeps all
    for path in (*targets, manifest):
        if path.is_dir():
            raise _UsageError(f"--out {out}: cannot write {path}, it is a directory")
    for path, write in zip(targets, writers.values()):
        write(path)
    _write_json(manifest, {
        "command": args.command,
        "argv": args.argv,
        "config": getattr(args, "config", None),
        "seed": getattr(args, "seed", None),
        "inputs": [str(p) for p in inputs],
        "outputs": [str(p) for p in targets],
        "version": __version__,
        "created": datetime.now(timezone.utc).isoformat(),
    })
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
    dataset = generate_dataset(layout, cfg.channel, patterns, cfg.catalog, mix, cfg.sim,
                               seed=args.seed)
    out = _write_outputs(args, [], {"dataset.jsonl": lambda path: save_dataset(dataset, path)})
    print(f"wrote {len(dataset.events)} events to {out / 'dataset.jsonl'}")
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
        _write_outputs(args, [], {"baseline.txt": lambda path: path.write_text(table + "\n")})
    return EXIT_OK


def _fingerprint(cfg, layout) -> str:
    """The fingerprint in the header of the datasets `cfg` generates on `layout`."""
    return config_fingerprint(layout, cfg.channel, cfg.build_patterns(layout), cfg.sim)


def _cmd_detect(args) -> int:
    cfg = resolve_config(args.config)
    layout = cfg.build_layout()
    dataset = load_dataset(args.dataset)
    records, summary = detect_dataset(dataset, layout, cfg.detection, _fingerprint(cfg, layout))
    out = _write_outputs(args, [args.dataset], {
        "segments.jsonl": lambda path: save_segments(records, path, layout, args.dataset,
                                                     dataset.sha256)})
    print(
        f"detected {summary.events_detected}/{summary.events_total} passages "
        f"({summary.segments_total} segments, {summary.spurious_segments} spurious); "
        f"wrote {out / 'segments.jsonl'}"
    )
    return EXIT_OK


def _cmd_features(args) -> int:
    cfg = resolve_config(args.config)
    layout = cfg.build_layout()
    # the records hold the dataset; they are freed before the table is written
    table = featurize_records(load_segments(args.segments, layout, _fingerprint(cfg, layout)),
                              layout, cfg.features)
    out = _write_outputs(args, [args.segments],
                         {"features.csv": lambda path: save_features_csv(table, path)})
    print(f"wrote {len(table)} feature rows to {out / 'features.csv'}")
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
    """Fold table with one accuracy column per algorithm, in ALGO_TITLES order, and a
    mean row.  The order is not the record's: crossval.json keeps its keys sorted."""
    algos = sorted(result["algos"], key=[*ALGO_TITLES, *result["algos"]].index)
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


def render_study(result: dict, markdown: bool = False) -> str:
    """Drop statistics per label for each ground-reflection variant, with the label gap."""
    blocks = []
    for variant in ("on", "off"):
        rows = [[label, str(s["count"]), *(f"{s[k]:.2f}" for k in ("mean", "std", "min", "max"))]
                for label, s in result["variants"][variant].items()]
        gap = f"Gap (passenger_car - truck): {result['gaps'][variant]:+.2f} dB"
        header = ["Label", "Events", "Mean", "Std", "Min", "Max"]
        if markdown:
            table = _render_table(header, rows, True)
            blocks.append(f"Ground reflection {variant}:\n\n{table}\n\n{gap}")
        else:
            lines = [f"  {r[0]:15} {r[1]:>6} " + " ".join(f"{v:>7}" for v in r[2:])
                     for r in [header, *rows]]
            blocks.append("\n".join([f"Ground reflection {variant}:", *lines, f"  {gap}"]))
    return ("\n\n" if markdown else "\n").join(blocks)


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
    table = load_features_csv(args.table)
    X = feature_matrix(table, args.feature_set)
    y = np.array(table.labels)
    algos = [a.strip() for a in args.algos.split(",") if a.strip()]
    if not algos:
        raise ConfigurationError(f"--algos {args.algos!r} names no algorithm")
    result = {"kind": "crossval", "feature_set": args.feature_set,
              "folds": args.folds, "seed": args.seed, "algos": {}}
    for algo in algos:
        result["algos"][algo] = cross_validate(X, y, table.event_ids, _make_factory(algo, args),
                                               folds=args.folds, seed=args.seed)
    print(render_crossval(result))
    if args.out:
        _write_outputs(args, [args.table],
                       {"crossval.json": lambda path: _write_json(path, result)})
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    if not 0 < args.test_fraction < 1:
        raise ConfigurationError(f"--test-fraction must lie inside (0, 1), got {args.test_fraction}")
    table = load_features_csv(args.table)
    y = np.array(table.labels)
    train, test = train_test_split(y, table.event_ids, args.test_fraction, args.seed)
    X = feature_matrix(table, args.feature_set)
    type_names = [table.type_names[i] for i in test]

    predictions = {}
    for algo in ["length"] if args.feature_set == "length" else ["knn", "svm"]:
        model = _make_factory(algo, args)()
        model.fit(X[train], y[train])
        predictions[algo] = model.predict(X[test])
    result = {"kind": "evaluate", "feature_set": args.feature_set,
              **evaluate_predictions(y[test], predictions, type_names)}
    print(render_evaluation(result))
    if args.out:
        _write_outputs(args, [args.table],
                       {"evaluation.json": lambda path: _write_json(path, result)})
    return EXIT_OK


def _cmd_study(args) -> int:
    cfg = resolve_config(args.config)
    layout = cfg.build_layout()
    patterns = cfg.build_patterns(layout)
    mix = _parse_mix(args.mix) if args.mix else {t: 20 for t in cfg.catalog}
    result = {"kind": "study", **reflection_study(
        layout, cfg.channel, patterns, cfg.catalog, mix, cfg.sim,
        seed=args.seed, det_cfg=cfg.detection,
    )}
    drops = result.pop("drops")
    print(render_study(result))
    if args.out:
        drops_csv = "variant,event_id,label,drop_db\n" + "".join(
            f"{variant},{event_id},{label},{format(drop, '.17g')}\n"
            for variant, events in drops.items() for event_id, label, drop in events)
        _write_outputs(args, [], {"study.json": lambda path: _write_json(path, result),
                                  "study_drops.csv": lambda path: path.write_text(drops_csv)})
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
            table = render_study(result, markdown=args.markdown)
        else:
            raise InputDataError(f"{path}: unknown results kind {kind!r}")
    except (OSError, ValueError, LookupError, TypeError, AttributeError, StopIteration,
            RecursionError) as exc:  # RecursionError: JSON nested too deep
        raise InputDataError(f"{path}: not a results file: {exc!r}") from exc
    print(table)
    return EXIT_OK


def build_parser(command=None) -> argparse.ArgumentParser:
    """The CLI's parser.  When `command` names a subcommand, only its subparser is built:
    a command line that starts with that name parses, and fails, as with every one."""
    parser = _Parser(prog="radiobarrier",
                     description="Roadside radio-link vehicle detection and classification")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    names = "generate baseline detect features crossval evaluate study report".split()
    one = command in names  # the usage line still lists every command
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser,
                                **({"metavar": "{%s}" % ",".join(names)} if one else {}))

    def add_parser(name, help):
        return sub.add_parser(name, help=help) if name == command or not one else None

    def add_common(p, config=True, seed=True):
        if config:
            p.add_argument("--config", default="default", help="config file path or 'default'")
        if seed:
            p.add_argument("--seed", type=_at_least(0), default=0,
                           help="master random seed, at least 0")

    if p := add_parser("generate", help="simulate a labelled dataset"):
        add_common(p)
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--mix", help="per-type event counts, e.g. 'passenger car=50,truck=50'")
        p.add_argument("--jobs", type=_at_least(1), choices=[1], default=1,
                       help="accepted only as 1, for scripts that pass it")
        p.set_defaults(func=_cmd_generate)

    if p := add_parser("baseline", help="print the vehicle-free per-link RSSI table"):
        add_common(p, seed=False)
        p.add_argument("--out", help="optional output directory")
        p.set_defaults(func=_cmd_baseline)

    if p := add_parser("detect", help="segment a dataset into passages"):
        add_common(p, seed=False)
        p.add_argument("--dataset", required=True)
        p.add_argument("--out", required=True)
        p.set_defaults(func=_cmd_detect)

    if p := add_parser("features", help="turn segments into a feature table"):
        add_common(p, seed=False)
        p.add_argument("--segments", required=True, help="segments file from 'detect'")
        p.add_argument("--out", required=True)
        p.set_defaults(func=_cmd_features)

    def add_learning(p):
        add_common(p, config=False)
        p.add_argument("--table", required=True, help="feature table from 'features'")
        p.add_argument("--features", dest="feature_set",
                       choices=["length", "rssi", "both"], default="both")
        p.add_argument("--k", type=int, default=3, help="k for k-NN")
        p.add_argument("--kernel", choices=["linear", "rbf"], default="rbf")
        p.add_argument("--C", type=float, default=10.0)
        p.add_argument("--gamma", type=float, default=None)
        p.add_argument("--out", help="optional output directory")

    if p := add_parser("crossval", help="k-fold cross-validation on a feature table"):
        add_learning(p)
        p.add_argument("--algos", default="knn,svm", help="comma list of knn,svm,length")
        p.add_argument("--folds", type=int, default=5)
        p.set_defaults(func=_cmd_crossval)

    if p := add_parser("evaluate", help="train/test split recognition-rate report"):
        add_learning(p)
        p.add_argument("--test-fraction", type=float, default=0.25)
        p.set_defaults(func=_cmd_evaluate)

    if p := add_parser("study", help="ground-reflection drop comparison (on vs off)"):
        add_common(p)
        p.add_argument("--mix", help="per-type event counts")
        p.add_argument("--out", help="optional output directory")
        p.set_defaults(func=_cmd_study)

    if p := add_parser("report", help="render saved results as a text or markdown table"):
        p.add_argument("--input", required=True, help="results JSON from crossval/evaluate/study")
        p.add_argument("--markdown", action="store_true")
        p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv else None)
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
