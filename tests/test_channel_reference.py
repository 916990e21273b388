"""The channel's link budget and receiver noise against the dense forms they replaced.

`reference_path_rssi` is the dense `path_rssi`, kept verbatim as the oracle: it
evaluates the link budget on every cell of each frame that has some loss.
`path_rssi` evaluates it only on the (frame, link) cells whose direct path or
either ground-bounce leg has loss, and gives every other cell the link's
vehicle-free level; it must give the same bytes.  `reference_received_rssi`
is the per-event noise the simulator drew before `received_rssi` took the
generators of consecutive row blocks.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radiobarrier import simulator
from radiobarrier.config import default_config
from radiobarrier.propagation import LinkContext, path_rssi, received_rssi
from radiobarrier.simulator import generate_dataset


def reference_path_rssi(ctx: LinkContext, loss: np.ndarray) -> np.ndarray:
    n = len(ctx.base_db)
    m = (loss.shape[1] - n) // 2  # bounces
    touched = loss.any(axis=1)
    hit = np.concatenate([np.zeros((1, loss.shape[1])), loss[touched]])
    loss_refl = np.zeros((len(hit), n))
    loss_refl[:, ctx.bounces] = hit[:, n:n + m] + hit[:, n + m:]
    # 10 ** (-loss / 20), which is exactly 1 where the loss is 0
    a_d, a_r = (np.power(10.0, -x / 20.0, out=np.ones(x.shape), where=x > 0.0)
                for x in (hit[:, :n], loss_refl))
    a_r *= ctx.a_r0
    amp = np.hypot(a_d + a_r * np.cos(ctx.phase), a_r * np.sin(ctx.phase))
    level = np.full(amp.shape, -np.inf)  # a fully cancelled sum has no level
    np.log10(amp, out=level, where=amp > 0.0)
    levels = ctx.base_db + 20.0 * level  # the vehicle-free level, then each touched row
    return levels[np.where(touched, np.cumsum(touched), 0)]


def reference_received_rssi(ctx: LinkContext, rssi, rngs, rows) -> np.ndarray:
    """The noise of each block of rows from its own generator, as one event's was drawn."""
    blocks = np.split(rssi, np.cumsum(rows)[:-1])
    return np.concatenate([np.maximum(trace + rng.normal(0.0, ctx.noise_sigma, trace.shape),
                                      ctx.rssi_floor) for trace, rng in zip(blocks, rngs)])


def assert_same_rssi(ctx, loss):
    got, want = path_rssi(ctx, loss), reference_path_rssi(ctx, loss)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def context(rng, bounces, noise_sigma=1.0, rssi_floor=-100.0):
    n = len(bounces)
    return LinkContext(lam=0.125, ends=np.zeros((2, 3, n + 2 * int(bounces.sum()))),
                       bounces=bounces, base_db=rng.uniform(-70.0, -40.0, n),
                       a_r0=np.where(bounces, rng.uniform(0.0, 1.0, n), 0.0),
                       phase=rng.uniform(-10.0, 10.0, n),
                       noise_sigma=noise_sigma, rssi_floor=rssi_floor)


@st.composite
def channel_cases(draw):
    """A context of 1 to 9 links, each bouncing off the ground or not (none of them with
    ground reflection off), and a loss array whose cells have no loss, loss on the direct
    path only, on one bounce leg only, on both legs, or on all three paths.  A loss may be
    large enough that the amplitude underflows to 0 and the level is -inf."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 9))
    reflecting = draw(st.booleans())
    bounces = rng.random(n) < 0.7 if reflecting else np.zeros(n, dtype=bool)
    ctx = context(rng, bounces)
    m = int(bounces.sum())
    rows = draw(st.integers(0, 40))
    kind = rng.integers(0, 5, size=(rows, n))  # none, direct, first leg, second leg, all
    scale = draw(st.sampled_from([1.0, 40.0, 1e4]))  # 1e4 dB underflows 10 ** (-L / 20)
    loss = np.zeros((rows, n + 2 * m))
    bounce_of = np.cumsum(bounces) - 1
    for r, k in zip(*np.nonzero(kind)):
        if kind[r, k] in (1, 4):
            loss[r, k] = scale * rng.random()
        if bounces[k] and kind[r, k] in (2, 4):
            loss[r, n + bounce_of[k]] = scale * rng.random()
        if bounces[k] and kind[r, k] in (3, 4):
            loss[r, n + m + bounce_of[k]] = scale * rng.random()
    if draw(st.booleans()):  # some losses exactly huge, some exactly 0 on a touched row
        loss[rng.random(loss.shape) < 0.1] = 1e4
    return ctx, loss


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(case=channel_cases())
def test_path_rssi_matches_reference_on_random_losses(case):
    ctx, loss = case
    assert_same_rssi(ctx, loss)


def test_an_underflowing_loss_gives_no_level():
    rng = np.random.default_rng(3)
    ctx = context(rng, np.array([True, False]))
    loss = np.array([[1e4, 0.0, 1e4, 1e4], [0.0, 1e4, 0.0, 0.0], [0.0, 0.0, 0.0, 5.0]])
    rssi = path_rssi(ctx, loss)
    assert rssi[0, 0] == -np.inf and rssi[1, 1] == -np.inf
    assert rssi[2, 0] != rssi[1, 0]  # a loss on one leg alone still counts
    assert_same_rssi(ctx, loss)


def test_path_rssi_matches_reference_on_every_seed_42_batch(monkeypatch):
    """Every batch of the paper's benchmark mix: default config, seed 42, 50 events per type."""
    batches = []

    def checked(ctx, loss):
        assert_same_rssi(ctx, loss)
        batches.append(len(loss))
        return path_rssi(ctx, loss)

    monkeypatch.setattr(simulator, "path_rssi", checked)
    cfg = default_config()
    layout = cfg.build_layout()
    dataset = generate_dataset(layout, cfg.channel, cfg.build_patterns(layout), cfg.catalog,
                               {t: 50 for t in cfg.catalog}, cfg.sim, seed=42)
    assert sum(batches) == sum(len(ev.rssi) for ev in dataset.events) == 112_400
    assert len(batches) > 20


@pytest.mark.parametrize("rows", [[7], [3, 11, 1, 6], [1, 1], [20, 2, 9]])
def test_block_noise_matches_per_event_draws(rows):
    rng = np.random.default_rng(11)
    ctx = context(rng, np.array([True, True, False]), noise_sigma=1.7, rssi_floor=-62.0)
    rssi = rng.uniform(-70.0, -40.0, (sum(rows), 3))
    seeds = [np.random.SeedSequence([42, k]) for k in range(len(rows))]
    got = received_rssi(ctx, rssi, [np.random.default_rng(s) for s in seeds], rows)
    want = reference_received_rssi(ctx, rssi, [np.random.default_rng(s) for s in seeds], rows)
    assert got.tobytes() == want.tobytes()
    assert (got == -62.0).any() and (got > -62.0).any()  # the floor acted on some samples
    # one generator is the one-block case
    one = received_rssi(ctx, rssi, np.random.default_rng(seeds[0]))
    assert one.tobytes() == received_rssi(ctx, rssi, [np.random.default_rng(seeds[0])],
                                          [len(rssi)]).tobytes()


def test_block_noise_with_sigma_zero_draws_nothing():
    rng = np.random.default_rng(12)
    ctx = context(rng, np.array([True, False]), noise_sigma=0.0, rssi_floor=-60.0)
    rssi = rng.uniform(-70.0, -40.0, (9, 2))
    gens = [np.random.default_rng(k) for k in range(3)]
    states = [g.bit_generator.state for g in gens]
    got = received_rssi(ctx, rssi, gens, [2, 4, 3])
    assert got.tobytes() == np.maximum(rssi, -60.0).tobytes()
    assert [g.bit_generator.state for g in gens] == states


def test_blocks_must_cover_the_rows():
    rng = np.random.default_rng(13)
    ctx = context(rng, np.array([False]))
    with pytest.raises(ValueError, match="do not cover"):
        received_rssi(ctx, np.zeros((5, 1)), [rng, rng], [2, 2])
