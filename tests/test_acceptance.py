"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Run with `pytest -s tests/test_acceptance.py` to see the
per-criterion summary.
"""
import math
from dataclasses import replace

import numpy as np
import pytest

from radiobarrier.config import default_config
from radiobarrier.geometry import LayoutConfig, RadioLink, build_layout
from radiobarrier.learn import (
    KnnClassifier,
    LengthThresholdClassifier,
    SvmClassifier,
    cross_validate,
    evaluate_predictions,
    format_percent,
    load_model,
    mean_std,
    save_model,
    stratified_folds,
)
from radiobarrier.pipeline import (
    SegmentRecord,
    detect_dataset,
    detect_events,
    feature_matrix,
    featurize_records,
    reflection_study,
)
from radiobarrier.propagation import (
    AntennaPattern,
    ChannelConfig,
    build_link_context,
    fspl,
    knife_edge_loss,
    noiseless_rssi,
    received_rssi,
)
from radiobarrier.simulator import (
    SimulationConfig,
    baseline_rssi,
    generate_dataset,
    save_dataset,
)

from conftest import simulate_passage

BENCH_SEED = 42


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def cfg():
    return default_config()


@pytest.fixture(scope="module")
def bench(cfg):
    """Fixed-seed default-config benchmark: 50 events per type, 300 total."""
    layout = cfg.build_layout()
    patterns = cfg.build_patterns(layout)
    mix = {t: 50 for t in cfg.catalog}
    dataset = generate_dataset(layout, cfg.channel, patterns, cfg.catalog, mix,
                               cfg.sim, seed=BENCH_SEED)
    records, summary = detect_dataset(dataset, layout, cfg.detection)
    table = featurize_records(records, layout, cfg.features)
    return {
        "layout": layout,
        "patterns": patterns,
        "mix": mix,
        "dataset": dataset,
        "table": table,
        "summary": summary,
    }


def test_criterion_1_friis_oracle():
    # |gamma| = 0, sigma = 0: the composed model equals the Friis expression
    rng = np.random.default_rng(1234)
    omni = {1: AntennaPattern(kind="omni"), 2: AntennaPattern(kind="omni")}
    worst = 0.0
    for _ in range(1000):
        d = float(rng.uniform(1.0, 40.0))
        z1, z2 = (float(rng.uniform(0.2, 3.0)) for _ in range(2))
        x2 = float(rng.uniform(-5.0, 5.0))
        f = float(rng.uniform(0.3e9, 8.0e9))
        p = float(rng.uniform(-20.0, 20.0))
        link = RadioLink(1, 1, 2, "diagonal", ((0.0, 0.0, z1), (x2, d, z2)))
        # the oracle checks the propagation composition, so push the
        # receiver floor out of the way
        chan = ChannelConfig(frequency=f, tx_power=p, reflection_magnitude=0.0,
                             noise_sigma=0.0, rssi_floor=-1e9)
        ctx = build_link_context((link,), chan, omni)
        got = float(received_rssi(ctx, noiseless_rssi(ctx))[0])
        want = p - fspl(math.dist(*link.endpoints), f)
        worst = max(worst, abs(got - want))
    ok = worst <= 1e-9
    report(1, ok, f"max |model - Friis| = {worst:.2e} dB over 1000 geometries")
    assert ok


def test_criterion_2_knife_edge():
    grazing = knife_edge_loss(0.0)
    grazing_ok = abs(grazing - 6.03) <= 0.02
    vs = np.arange(-0.78, 10.0, 1e-3)
    losses = np.array([knife_edge_loss(float(v)) for v in vs])
    monotone_ok = bool(np.all(np.diff(losses) >= 0.0))
    ok = grazing_ok and monotone_ok
    report(2, ok, f"loss(0) = {grazing:.4f} dB, monotone over [-0.78, 10]: {monotone_ok}")
    assert grazing_ok
    assert monotone_ok


def test_criterion_3_fold_arithmetic():
    m, s = mean_std([98.68, 98.68, 98.25, 98.68, 99.12])
    close = abs(m - 98.68) <= 0.005 and abs(s - 0.31) <= 0.005
    m_eq, s_eq = mean_std([98.68] * 5)
    zero = s_eq == 0.0 and abs(m_eq - 98.68) < 1e-9
    ok = close and zero
    report(3, ok, f"five-fold column -> {m:.3f} +- {s:.3f}; equal folds std = {s_eq}")
    assert close
    assert zero


def test_criterion_4_success_rate_arithmetic():
    y = np.array(["truck"] * 228)
    rates = {}
    for correct in (225, 227):
        pred = np.array(["truck"] * correct + ["passenger_car"] * (228 - correct))
        overall = evaluate_predictions(y, {"svm": pred}, ["truck"] * 228)["overall"]
        rates[correct] = format_percent(overall["rates"]["svm"])
    ok = rates[225] == "98.68%" and rates[227] == "99.56%"
    report(4, ok, f"225/228 -> {rates[225]}, 227/228 -> {rates[227]}")
    assert ok


def test_criterion_5_end_to_end_benchmark(bench):
    # 50 events per type: 300 total, 200 passenger_car + 100 truck by grouping
    events = bench["dataset"].events
    assert len(events) == 300
    assert sum(ev.label == "passenger_car" for ev in events) == 200
    assert sum(ev.label == "truck" for ev in events) == 100

    summary = bench["summary"]
    detection_ok = (
        summary.detection_rate >= 0.99 and summary.spurious_segments == 0
    )

    table = bench["table"]
    y = np.array(table.labels)
    ids = table.event_ids
    acc = {}
    for feature_set in ("length", "rssi", "both"):
        X = feature_matrix(table, feature_set)
        if feature_set == "length":
            acc[("threshold", feature_set)] = cross_validate(
                X, y, ids, lambda: LengthThresholdClassifier(), folds=5, seed=7)["mean"]
        for name, factory in (("knn", lambda: KnnClassifier(k=3)),
                              ("svm", lambda: SvmClassifier())):
            acc[(name, feature_set)] = cross_validate(
                X, y, ids, factory, folds=5, seed=7)["mean"]

    cv_ok = acc[("knn", "both")] >= 0.95 and acc[("svm", "both")] >= 0.95
    length_only = acc[("threshold", "length")]
    ordering_ok = all(
        acc[(algo, "both")] >= acc[(algo, "rssi")] >= length_only
        for algo in ("knn", "svm")
    )
    ok = detection_ok and cv_ok and ordering_ok
    report(
        5, ok,
        f"detection {summary.events_detected}/{summary.events_total} "
        f"(spurious {summary.spurious_segments}); CV both: "
        f"k-NN {format_percent(acc[('knn', 'both')])}, SVM {format_percent(acc[('svm', 'both')])}; "
        f"ordering both >= rssi >= length: "
        f"{format_percent(acc[('knn', 'both')])} >= {format_percent(acc[('knn', 'rssi')])} "
        f">= {format_percent(length_only)}",
    )
    assert detection_ok
    assert cv_ok
    assert ordering_ok


def test_criterion_6_ground_reflection_gap(cfg):
    # default mounting height 0.6 m satisfies the <= 0.6 m requirement
    layout = cfg.build_layout()
    patterns = cfg.build_patterns(layout)
    assert all(n.position[2] <= 0.6 for n in layout.nodes)
    mix = {t: 20 for t in cfg.catalog}
    study = reflection_study(layout, cfg.channel, patterns, cfg.catalog, mix,
                             cfg.sim, seed=BENCH_SEED, det_cfg=cfg.detection)
    gap_on = study["gaps"]["on"]
    gap_off = study["gaps"]["off"]
    ok = gap_on >= 4.0 and gap_off < gap_on
    report(6, ok, f"car-truck drop gap: reflection on {gap_on:+.2f} dB, off {gap_off:+.2f} dB")
    assert gap_on >= 4.0
    assert gap_off < gap_on


def test_criterion_7_trailer_signature(cfg):
    # tallest sanctioned mounting (1.2 m) puts the deck into the paths
    layout = build_layout(LayoutConfig(tx_height=1.2, rx_height=1.2))
    patterns = cfg.build_patterns(layout)
    chan = replace(cfg.channel, noise_sigma=0.0)
    base = baseline_rssi(layout, chan, patterns)
    truck = cfg.catalog["truck"]
    lane = (layout.road_width - truck.width) / 2.0
    ev = simulate_passage(layout, chan, patterns, truck, 10.0, lane, seed=0,
                          sim=SimulationConfig())
    j = 4  # middle direct link
    drops = base[j] - ev.rssi[:, j]
    blocked = np.flatnonzero(drops > 1.0)
    window = drops[blocked[0]:blocked[-1] + 1]
    third = len(window) // 3
    tractor_shoulder = float(window[:third].max())
    gap_peak_drop = float(window[third:2 * third].min())
    trailer_shoulder = float(window[2 * third:].max())
    margin = min(tractor_shoulder, trailer_shoulder) - gap_peak_drop
    ok = margin >= 3.0
    report(
        7, ok,
        f"troughs {tractor_shoulder:.2f}/{trailer_shoulder:.2f} dB, gap peak "
        f"{gap_peak_drop:.2f} dB below baseline -> local max {margin:.2f} dB above shoulders",
    )
    assert ok


def test_criterion_8_estimator_accuracy(cfg):
    # calibration setup: tallest mounting, ground bounce off, no noise
    layout = build_layout(LayoutConfig(tx_height=1.2, rx_height=1.2))
    patterns = cfg.build_patterns(layout)
    chan = replace(cfg.channel, noise_sigma=0.0, ground_reflection_enabled=False)
    det = cfg.detection
    worst_speed = 0.0
    worst_length = 0.0
    sim = SimulationConfig()
    for vehicle in cfg.catalog.values():
        lane = (layout.road_width - vehicle.width) / 2.0
        for speed in (5.0, 8.0, 12.0, 17.0, 23.0, 30.0):
            ev = simulate_passage(layout, chan, patterns, vehicle, speed, lane,
                                  seed=0, sim=sim)
            segments = detect_events(ev.rssi, sim.dt, layout, det)
            assert len(segments) == 1
            record = SegmentRecord(1, vehicle.type_name, segments[0])
            v, L = featurize_records([record], layout).values[0, :2]
            worst_speed = max(worst_speed, abs(v - speed) / speed)
            worst_length = max(worst_length, abs(L - vehicle.total_length) / vehicle.total_length)
    ok = worst_speed <= 0.02 and worst_length <= 0.05
    report(
        8, ok,
        f"worst speed error {worst_speed * 100:.2f}% (<= 2%), "
        f"worst length error {worst_length * 100:.2f}% (<= 5%) over 6 types x 5-30 m/s",
    )
    assert worst_speed <= 0.02
    assert worst_length <= 0.05


def test_criterion_9_learner_properties(bench, cfg, tmp_path):
    table = bench["table"]
    X = feature_matrix(table, "both")
    y = np.array(table.labels)
    ids = table.event_ids

    # k = 1 training accuracy
    knn1 = KnnClassifier(k=1).fit(X, y)
    self_acc = float(np.mean([knn1.predict(row[None])[0] == lab for row, lab in zip(X, y)]))
    knn_ok = self_acc == 1.0

    # SVM KKT residuals on a converged fit
    svm = SvmClassifier().fit(X, y)
    kkt_ok = svm.max_kkt_residual <= svm.tol

    # cross-validation folds form an exact partition
    assignments = dict(zip(ids, stratified_folds(y, ids, 5, seed=7).tolist()))
    partition_ok = sorted(assignments.keys()) == sorted(ids) and all(
        0 <= f < 5 for f in assignments.values()
    )

    # dataset regeneration is byte-identical
    regen = generate_dataset(bench["layout"], cfg.channel, bench["patterns"],
                             cfg.catalog, bench["mix"], cfg.sim, seed=BENCH_SEED)
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_dataset(bench["dataset"], p1)
    save_dataset(regen, p2)
    regen_ok = p1.read_bytes() == p2.read_bytes()

    # model persistence round-trips predictions exactly
    svm_path = tmp_path / "svm.json"
    save_model(svm, svm_path)
    svm_back = load_model(svm_path)
    knn_path = tmp_path / "knn.json"
    knn3 = KnnClassifier(k=3).fit(X, y)
    save_model(knn3, knn_path)
    knn_back = load_model(knn_path)
    probe = X[::7]
    roundtrip_ok = (svm.predict(probe) == svm_back.predict(probe)).all() and (
        knn3.predict(probe) == knn_back.predict(probe)
    ).all()

    ok = knn_ok and kkt_ok and partition_ok and regen_ok and roundtrip_ok
    report(
        9, ok,
        f"k=1 self-accuracy {format_percent(self_acc)}; KKT residual "
        f"{svm.max_kkt_residual:.2e} <= {svm.tol}; partition {partition_ok}; "
        f"regeneration byte-identical {regen_ok}; round-trip {roundtrip_ok}",
    )
    assert knn_ok
    assert kkt_ok
    assert partition_ok
    assert regen_ok
    assert roundtrip_ok
