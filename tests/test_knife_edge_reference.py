"""One body segment's crossing test and knife-edge loss written as scalar code with the
math module alone, as a reference for the array kernel behind obstruction_loss and
passage_loss."""
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from radiobarrier.geometry import BodySegment, Pose, VehicleSpec
from radiobarrier.propagation import obstruction_loss

LAM = 0.125
# At a wavelength this far beyond any body every Fresnel parameter is about 0, so each
# crossing costs about 6 dB and a positive loss marks exactly the crossing points.
HUGE_LAM = 1e200


def reference_crossing(interval, lane_y, width, path):
    """The part [s_lo, s_hi] of the path, as fractions of it from its first end, inside
    the segment's x-y rectangle, or None where the path misses it.  Written with the
    model's floating-point steps, so that touching cases are decided alike."""
    (x1, y1, _), (x2, y2, _) = path
    a, b = (lane_y - y1) * (1.0 / (y2 - y1)), (lane_y + width - y1) * (1.0 / (y2 - y1))
    s_lo, s_hi = max(min(a, b), 0.0), min(max(a, b), 1.0)
    lo, hi = interval
    if x2 == x1:  # the whole path at one x: within the segment's x-range or not
        if not lo <= x1 <= hi:
            return None
    else:
        sa, sb = (lo - x1) / (x2 - x1), (hi - x1) / (x2 - x1)
        s_lo, s_hi = max(s_lo, min(sa, sb)), min(s_hi, max(sa, sb))
    return (s_lo, s_hi) if s_hi > s_lo else None


def reference_knife_edge(v):
    if v <= -0.78:
        return 0.0
    return max(0.0, 6.9 + 20.0 * math.log10(math.sqrt((v - 0.1) ** 2 + 1.0) + v - 0.1))


def reference_loss(seg, interval, lane_y, width, path, lam):
    """Loss in dB of one segment on one path: 0 without a crossing, else the cheaper of
    the top edge where the crossing runs lowest and, with ground clearance, the bottom
    edge where it runs highest, the path split at the crossing's midpoint."""
    crossing = reference_crossing(interval, lane_y, width, path)
    if crossing is None:
        return 0.0
    s_lo, s_hi = crossing
    (_, _, z1), (_, _, z2) = path
    length = math.dist(*path)
    d1 = 0.5 * (s_lo + s_hi) * length
    d2 = length - d1
    z_lo, z_hi = sorted((z1 + s_lo * (z2 - z1), z1 + s_hi * (z2 - z1)))
    scale = math.sqrt(2.0 * length / (lam * d1 * d2))
    loss = reference_knife_edge((seg.top_height - z_lo) * scale)
    if seg.ground_clearance > 0.0:
        loss = min(loss, reference_knife_edge((z_hi - seg.ground_clearance) * scale))
    return loss


def _grid(lo, hi, step=1.0 / 64.0):
    """Multiples of a binary step, so that ends meet exactly now and then."""
    return st.integers(round(lo / step), round(hi / step)).map(lambda i: i * step)


@st.composite
def scenes(draw):
    """A one-segment body with and without ground clearance, either heading, a lane on,
    beside or off the road, several nose positions, and a path between the road sides
    (a direct link, a diagonal one, or a leg of a ground bounce)."""
    top = draw(_grid(0.3, 4.5))
    seg = BodySegment(length=draw(_grid(0.05, 12.0)), top_height=top,
                      ground_clearance=draw(st.sampled_from([0.0, 0.0, 0.1, 0.4, 0.7])) * top)
    width = draw(_grid(0.3, 3.0))
    x1 = draw(_grid(-5.0, 15.0))
    dx = draw(st.one_of(st.just(0.0), _grid(-10.0, 10.0)))
    y1 = draw(st.sampled_from([0.0, 7.0]))
    y2 = draw(st.one_of(st.just(7.0 - y1), _grid(0.5, 6.5)))
    path = ((x1, y1, draw(_grid(0.0, 4.0))), (x1 + dx, y2, draw(_grid(0.0, 4.0))))
    noses = draw(st.lists(_grid(-20.0, 30.0), min_size=1, max_size=12))
    return seg, width, draw(_grid(-1.0, 8.0)), draw(st.sampled_from([1, -1])), path, noses


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(scene=scenes())
def test_obstruction_loss_matches_the_scalar_reference(scene):
    seg, width, lane, heading, path, noses = scene
    vehicle = VehicleSpec("truck", "truck", (seg,), width)
    intervals = [(x - seg.length, x) if heading == 1 else (x, x + seg.length) for x in noses]
    pose = Pose(np.array(noses), lane, heading)
    crosses = obstruction_loss(vehicle, pose, path, HUGE_LAM) > 0.0
    assert crosses.tolist() == [reference_crossing(i, lane, width, path) is not None
                                for i in intervals]
    loss = obstruction_loss(vehicle, pose, path, LAM)
    expected = [reference_loss(seg, i, lane, width, path, LAM) for i in intervals]
    assert np.abs(loss - expected).max() <= 1e-9
    for x, want in zip(noses, expected):  # the scalar form agrees too
        assert abs(obstruction_loss(vehicle, Pose(x, lane, heading), path, LAM) - want) <= 1e-9
