import math
from collections import Counter

import numpy as np
import pytest

from radiobarrier.errors import ConfigurationError
from radiobarrier.geometry import (
    BodySegment,
    LayoutConfig,
    Pose,
    VehicleSpec,
    build_layout,
    segment_x_intervals,
)
from radiobarrier.propagation import fresnel_v, obstruction_loss, path_terms, segment_loss


def make_vehicle(length=4.5, top=1.5, clearance=0.15, width=1.8, gap=0.0, trailer=None):
    segments = [BodySegment(length, top, clearance, gap)]
    if trailer:
        segments.append(BodySegment(*trailer))
    return VehicleSpec("passenger car" if top < 3 else "truck", tuple(segments), width)


# -- build_layout ------------------------------------------------------------

def test_default_layout_link_golden(layout):
    assert len(layout.links) == 9
    kinds = Counter(l.kind for l in layout.links)
    assert kinds == {"direct": 3, "diagonal": 6}
    # deterministic enumeration: ascending tx id, then rx id
    golden = [
        (1, 1, 4, "direct"),
        (2, 1, 5, "diagonal"),
        (3, 1, 6, "diagonal"),
        (4, 2, 4, "diagonal"),
        (5, 2, 5, "direct"),
        (6, 2, 6, "diagonal"),
        (7, 3, 4, "diagonal"),
        (8, 3, 5, "diagonal"),
        (9, 3, 6, "direct"),
    ]
    assert [(l.id, l.tx_id, l.rx_id, l.kind) for l in layout.links] == golden


def test_degenerate_single_pair():
    layout = build_layout(LayoutConfig(nodes_per_side=1))
    assert len(layout.links) == 1
    assert layout.links[0].kind == "direct"
    assert layout.array_length == 0.0


def test_layout_geometry(layout):
    assert layout.road_width == 7.0
    assert layout.array_length == 10.0
    tx_x = sorted(n.position[0] for n in layout.nodes if n.role == "transmitter")
    rx_x = sorted(n.position[0] for n in layout.nodes if n.role == "receiver")
    assert tx_x == rx_x == [0.0, 5.0, 10.0]
    assert all(n.position[2] == 0.6 for n in layout.nodes)


@pytest.mark.parametrize("kwargs", [
    {"road_width": 0.0},
    {"road_width": -1.0},
    {"spacing": 0.0},
    {"tx_height": 0.0},
    {"nodes_per_side": 0},
    {"links_per_receiver": 4},
    {"links_per_receiver": 1},
    {"nodes_per_side": 2, "links_per_receiver": 3},
])
def test_bad_layout_config_rejected(kwargs):
    with pytest.raises(ConfigurationError):
        build_layout(LayoutConfig(**kwargs))


@pytest.mark.parametrize("per_rx", [2, 3])
def test_restricted_topology(per_rx):
    layout = build_layout(LayoutConfig(links_per_receiver=per_rx))
    counts = Counter(l.rx_id for l in layout.links)
    assert all(c == per_rx for c in counts.values())
    # the direct link is always the shortest, so it survives any restriction
    direct_rx = {l.rx_id for l in layout.links if l.kind == "direct"}
    assert direct_rx == {4, 5, 6}
    # ids re-enumerated contiguously in the same deterministic order
    assert [l.id for l in layout.links] == list(range(1, 3 * per_rx + 1))


def test_mirror_symmetry_multiset():
    # reflecting node x about the array midpoint preserves lengths and kinds
    for n, spacing, width in [(3, 5.0, 7.0), (4, 3.0, 6.5), (2, 8.0, 9.0)]:
        layout = build_layout(LayoutConfig(nodes_per_side=n, spacing=spacing, road_width=width))
        mid = layout.array_length / 2.0
        mirrored = Counter()
        original = Counter()
        for link in layout.links:
            (x1, y1, z1), (x2, y2, z2) = link.endpoints
            original[(round(link.length, 9), link.kind)] += 1
            m1 = (2 * mid - x1, y1, z1)
            m2 = (2 * mid - x2, y2, z2)
            kind = "direct" if m1[0] == m2[0] else "diagonal"
            mirrored[(round(math.dist(m1, m2), 9), kind)] += 1
        assert mirrored == original


# -- vehicles and poses -------------------------------------------------------

def test_vehicle_total_length_includes_gaps():
    truck = make_vehicle(6.0, 3.8, 0.45, 2.5, gap=0.8, trailer=(9.0, 4.0, 1.2))
    assert truck.total_length == pytest.approx(15.8)


def test_vehicle_label_must_match_grouping():
    # the type name fixes the label: no stored label can contradict it
    assert VehicleSpec("bus", (BodySegment(12.0, 3.5, 0.3),), 2.5).label == "truck"
    with pytest.raises(ValueError):
        VehicleSpec("sports car", (BodySegment(4.0, 1.2, 0.1),), 1.8)


def test_bad_body_segment():
    with pytest.raises(ValueError):
        BodySegment(0.0, 1.5, 0.1)
    with pytest.raises(ValueError):
        BodySegment(4.0, 1.5, 1.5)
    with pytest.raises(ValueError):
        BodySegment(4.0, 1.5, 0.1, gap_after=-1.0)


def test_segment_intervals_both_headings():
    truck = make_vehicle(6.0, 3.8, 0.45, 2.5, gap=0.8, trailer=(9.0, 4.0, 1.2))
    fwd = segment_x_intervals(truck, Pose(front_x=20.0, lane_y=2.0, heading=1))
    assert fwd[0] == (14.0, 20.0)
    assert fwd[1] == pytest.approx((4.2, 13.2))
    rev = segment_x_intervals(truck, Pose(front_x=20.0, lane_y=2.0, heading=-1))
    assert rev[0] == (20.0, 26.0)
    assert rev[1] == pytest.approx((26.8, 35.8))


# -- segment_loss and obstruction_loss ------------------------------------------

PATH = ((5.0, 0.0, 0.6), (5.0, 7.0, 0.6))  # direct link at x = 5
LAM = 0.125


def _knife_edge(v):
    """The knife-edge approximation written out: 0 dB at and below v = -0.78."""
    if v <= -0.78:
        return 0.0
    return max(0.0, 6.9 + 20.0 * math.log10(math.sqrt((v - 0.1) ** 2 + 1.0) + v - 0.1))


def _kernel(seg, front_x, lane_y, width, path=PATH, lam=LAM, heading=1):
    interval = (front_x - seg.length, front_x) if heading == 1 else (front_x, front_x + seg.length)
    return segment_loss(seg, interval, path_terms(path, lane_y, width), lam)


def test_no_intersection_is_empty():
    car = make_vehicle()
    assert obstruction_loss(car, Pose(front_x=-10.0, lane_y=2.6), PATH, LAM) == 0.0
    assert _kernel(car.segments[0], -10.0, 2.6, car.width) == 0.0


def test_grazing_top_edge_gives_zero_v():
    car = make_vehicle(top=0.6, clearance=0.0)
    loss = obstruction_loss(car, Pose(front_x=6.0, lane_y=2.6), PATH, LAM)
    assert loss == pytest.approx(_knife_edge(0.0))
    # without clearance there is no bottom edge: a path sloping down to the ground
    # under a 1.5 m body pays the top edge, not the cheaper detour a bottom edge at
    # street level would offer
    tall = make_vehicle(top=1.5, clearance=0.0)
    to_ground = ((5.0, 0.0, 0.6), (5.0, 7.0, 0.0))
    length = math.hypot(7.0, 0.6)
    factor = math.sqrt(2.0 * length / (LAM * (length / 2.0) ** 2))  # crossing centred
    z_low, z_high = 0.6 * (1.0 - 4.4 / 7.0), 0.6 * (1.0 - 2.6 / 7.0)  # band [2.6, 4.4]
    top = _knife_edge((1.5 - z_low) * factor)
    assert _knife_edge(z_high * factor) < top - 5.0
    loss = obstruction_loss(tall, Pose(front_x=6.0, lane_y=2.6), to_ground, LAM)
    assert loss == pytest.approx(top)


def test_trailer_clearance_hand_evaluated():
    # path at z = 0.6 under a deck with 1.2 m clearance, the crossing centred on the
    # road, so d1 = d2 = 3.5: the top edge cuts 3.4 m into the path, the bottom edge
    # leaves a 0.6 m air gap (v < -0.78, no loss), and the cheaper detour is free
    factor = math.sqrt(2.0 * 7.0 / (LAM * 3.5 * 3.5))  # independent evaluation
    assert fresnel_v(-0.6, 3.5, 3.5, LAM) == pytest.approx(-0.6 * factor)
    trailer = make_vehicle(9.0, 4.0, 1.2, 2.5)
    assert _kernel(trailer.segments[0], 9.5, 2.25, 2.5) == 0.0
    assert _knife_edge(-0.6 * factor) == 0.0 < _knife_edge(3.4 * factor)
    # the same deck without clearance leaves only the top edge
    deck = make_vehicle(9.0, 4.0, 0.0, 2.5)
    assert _kernel(deck.segments[0], 9.5, 2.25, 2.5) == pytest.approx(_knife_edge(3.4 * factor))
    # a level path at z = 1.0 passes 0.2 m under the deck: the bottom edge, now the
    # cheaper one, costs a little, while the top edge still cuts 3.0 m into the path
    high = ((5.0, 0.0, 1.0), (5.0, 7.0, 1.0))
    bottom = _knife_edge(-0.2 * factor)
    assert 0.0 < bottom < _knife_edge(3.0 * factor)
    assert _kernel(trailer.segments[0], 9.5, 2.25, 2.5, path=high) == pytest.approx(bottom)


def test_translation_invariance():
    car = make_vehicle()
    ref = obstruction_loss(car, Pose(front_x=6.0, lane_y=2.6), PATH, LAM)
    assert ref > 0.0
    for dx in (-17.3, -2.0, 0.4, 9.9, 123.0):
        (x1, y1, z1), (x2, y2, z2) = PATH
        shifted_path = ((x1 + dx, y1, z1), (x2 + dx, y2, z2))
        shifted = obstruction_loss(car, Pose(front_x=6.0 + dx, lane_y=2.6), shifted_path, LAM)
        assert shifted == pytest.approx(ref)


def _blocked_width(car, path, xs, step):
    blocked = obstruction_loss(car, Pose(front_x=np.array(xs), lane_y=2.6), path, LAM) > 0.0
    first = int(np.argmax(blocked))
    last = len(blocked) - 1 - int(np.argmax(blocked[::-1]))
    assert blocked[first:last + 1].all()  # contiguous
    return (last - first) * step


def test_blocking_interval_direct_link():
    # sweeping the nose across a direct link blocks a contiguous interval of
    # exactly the segment length (no width projection at constant x)
    car = make_vehicle(length=4.5)
    step = 0.01
    width = _blocked_width(car, PATH, [i * step for i in range(-200, 1600)], step)
    assert width == pytest.approx(4.5, abs=2 * step)


def test_blocking_interval_diagonal_link():
    # a diagonal path adds the body-width projection |dx| * w / road_width
    car = make_vehicle(length=4.5, width=1.8)
    path = ((0.0, 0.0, 0.6), (5.0, 7.0, 0.6))
    step = 0.01
    width = _blocked_width(car, path, [i * step for i in range(-300, 1600)], step)
    expected = 4.5 + 5.0 * 1.8 / 7.0
    assert width == pytest.approx(expected, abs=2 * step)


def test_reversed_heading_mirrors_blocking():
    # driving the other way blocks the same x-extent when the body covers it
    car = make_vehicle(length=4.5)
    fwd = obstruction_loss(car, Pose(front_x=7.0, lane_y=2.6, heading=1), PATH, LAM)
    rev = obstruction_loss(car, Pose(front_x=7.0 - 4.5, lane_y=2.6, heading=-1), PATH, LAM)
    assert fwd > 0.0
    assert rev == pytest.approx(fwd)
    seg = car.segments[0]
    assert _kernel(seg, 7.0 - 4.5, 2.6, car.width, heading=-1) == pytest.approx(
        _kernel(seg, 7.0, 2.6, car.width))


def test_bad_path_rejected():
    car = make_vehicle()
    flat = ((0.0, 2.0, 0.6), (5.0, 2.0, 0.6))  # no road crossing
    with pytest.raises(ValueError):
        obstruction_loss(car, Pose(front_x=1.0, lane_y=2.6), flat, LAM)
    with pytest.raises(ValueError):
        path_terms(flat, 2.6, car.width)
    with pytest.raises(ValueError):
        obstruction_loss(car, Pose(front_x=1.0, lane_y=2.6), PATH, 0.0)
    with pytest.raises(ValueError):
        _kernel(car.segments[0], 1.0, 2.6, car.width, lam=0.0)
