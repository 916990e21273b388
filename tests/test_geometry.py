import math
from collections import Counter

import pytest

from radiobarrier.errors import ConfigurationError
from radiobarrier.geometry import (
    BodySegment,
    LayoutConfig,
    Pose,
    VehicleSpec,
    build_layout,
    occlusion_params,
    segment_x_intervals,
)
from radiobarrier.propagation import fresnel_v


def make_vehicle(length=4.5, top=1.5, clearance=0.15, width=1.8, gap=0.0, trailer=None):
    segments = [BodySegment(length, top, clearance, gap)]
    if trailer:
        segments.append(BodySegment(*trailer))
    return VehicleSpec("passenger car" if top < 3 else "truck",
                       "passenger_car" if top < 3 else "truck",
                       tuple(segments), width)


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
    tx_x = sorted(n.position[0] for n in layout.transmitters)
    rx_x = sorted(n.position[0] for n in layout.receivers)
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
    with pytest.raises(ValueError):
        VehicleSpec("bus", "passenger_car", (BodySegment(12.0, 3.5, 0.3),), 2.5)
    with pytest.raises(ValueError):
        VehicleSpec("sports car", "passenger_car", (BodySegment(4.0, 1.2, 0.1),), 1.8)


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


# -- occlusion_params ---------------------------------------------------------

PATH = ((5.0, 0.0, 0.6), (5.0, 7.0, 0.6))  # direct link at x = 5
LAM = 0.125


def test_no_intersection_is_empty():
    car = make_vehicle()
    out = occlusion_params(car, Pose(front_x=-10.0, lane_y=2.6), PATH, LAM)
    assert out == ()


def test_grazing_top_edge_gives_zero_v():
    car = make_vehicle(top=0.6, clearance=0.0)
    out = occlusion_params(car, Pose(front_x=6.0, lane_y=2.6), PATH, LAM)
    assert len(out) == 1
    assert out[0].v_top == pytest.approx(0.0)
    assert out[0].v_bottom is None


def test_trailer_clearance_hand_evaluated():
    # path at z = 0.6 under a deck with 1.2 m clearance: the bottom edge has
    # a 0.6 m air gap, so v_bottom is negative with |h| = 0.6
    trailer = make_vehicle(9.0, 4.0, 1.2, 2.5)
    out = occlusion_params(trailer, Pose(front_x=9.5, lane_y=2.25), PATH, LAM)
    assert len(out) == 1
    obs = out[0]
    assert obs.d1 == pytest.approx(3.5)
    assert obs.d2 == pytest.approx(3.5)
    factor = math.sqrt(2.0 * 7.0 / (LAM * 3.5 * 3.5))  # independent evaluation
    assert obs.v_top == pytest.approx(3.4 * factor)
    assert obs.v_bottom == pytest.approx(-0.6 * factor)
    assert obs.v_bottom == pytest.approx(fresnel_v(-0.6, obs.d1, obs.d2, LAM))


def test_translation_invariance():
    car = make_vehicle()
    for dx in (-17.3, -2.0, 0.4, 9.9, 123.0):
        ref = occlusion_params(car, Pose(front_x=6.0, lane_y=2.6), PATH, LAM)
        (x1, y1, z1), (x2, y2, z2) = PATH
        shifted_path = ((x1 + dx, y1, z1), (x2 + dx, y2, z2))
        shifted = occlusion_params(car, Pose(front_x=6.0 + dx, lane_y=2.6), shifted_path, LAM)
        assert len(ref) == len(shifted) == 1
        assert shifted[0].v_top == pytest.approx(ref[0].v_top)
        assert shifted[0].v_bottom == pytest.approx(ref[0].v_bottom)
        assert shifted[0].d1 == pytest.approx(ref[0].d1)


def test_blocking_interval_direct_link():
    # sweeping the nose across a direct link blocks a contiguous interval of
    # exactly the segment length (no width projection at constant x)
    car = make_vehicle(length=4.5)
    step = 0.01
    xs = [i * step for i in range(-200, 1600)]
    blocked = [
        bool(occlusion_params(car, Pose(front_x=x, lane_y=2.6), PATH, LAM)) for x in xs
    ]
    first = blocked.index(True)
    last = len(blocked) - 1 - blocked[::-1].index(True)
    assert all(blocked[first:last + 1])  # contiguous
    width = (last - first) * step
    assert width == pytest.approx(4.5, abs=2 * step)


def test_blocking_interval_diagonal_link():
    # a diagonal path adds the body-width projection |dx| * w / road_width
    car = make_vehicle(length=4.5, width=1.8)
    path = ((0.0, 0.0, 0.6), (5.0, 7.0, 0.6))
    step = 0.01
    xs = [i * step for i in range(-300, 1600)]
    blocked = [
        bool(occlusion_params(car, Pose(front_x=x, lane_y=2.6), path, LAM)) for x in xs
    ]
    first = blocked.index(True)
    last = len(blocked) - 1 - blocked[::-1].index(True)
    expected = 4.5 + 5.0 * 1.8 / 7.0
    assert (last - first) * step == pytest.approx(expected, abs=2 * step)


def test_reversed_heading_mirrors_blocking():
    # driving the other way blocks the same x-extent when the body covers it
    car = make_vehicle(length=4.5)
    fwd = occlusion_params(car, Pose(front_x=7.0, lane_y=2.6, heading=1), PATH, LAM)
    rev = occlusion_params(car, Pose(front_x=7.0 - 4.5, lane_y=2.6, heading=-1), PATH, LAM)
    assert len(fwd) == len(rev) == 1
    assert rev[0].v_top == pytest.approx(fwd[0].v_top)
    assert rev[0].d1 == pytest.approx(fwd[0].d1)


def test_bad_path_rejected():
    car = make_vehicle()
    flat = ((0.0, 2.0, 0.6), (5.0, 2.0, 0.6))  # no road crossing
    with pytest.raises(ValueError):
        occlusion_params(car, Pose(front_x=1.0, lane_y=2.6), flat, LAM)
    with pytest.raises(ValueError):
        occlusion_params(car, Pose(front_x=1.0, lane_y=2.6), PATH, 0.0)
