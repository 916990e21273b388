from dataclasses import replace

import numpy as np
import pytest

from radiobarrier.config import default_config
from radiobarrier.geometry import LayoutConfig, build_layout
from radiobarrier.propagation import build_link_context
from radiobarrier.simulator import SimulationConfig, _simulate_passages


def simulate_passage(layout, channel, patterns, vehicle, speed, lane_y, seed,
                     sim=SimulationConfig(), event_id=0, ctx=None):
    """Drive one vehicle through the array and sample every link, unrounded.

    The nose starts pre_roll seconds before the first post and the run ends
    post_roll seconds after the tail clears the last post.  `seed` is
    anything numpy's default_rng accepts, including an existing generator.
    `ctx` is the context of layout.links under channel and patterns, built
    here when not given.  This is the one-passage case of the simulator's
    batch kernel, without the rounding `generate_dataset` applies.
    """
    if ctx is None:
        ctx = build_link_context(layout.links, channel, patterns)
    draw = (event_id, speed, lane_y, np.random.default_rng(seed))
    return _simulate_passages(layout, ctx, vehicle, sim, [draw])[0]


@pytest.fixture(scope="session")
def app_config():
    return default_config()


@pytest.fixture(scope="session")
def layout(app_config):
    return app_config.build_layout()


@pytest.fixture(scope="session")
def patterns(app_config, layout):
    return app_config.build_patterns(layout)


@pytest.fixture(scope="session")
def quiet_channel(app_config):
    """Default channel with the noise turned off."""
    return replace(app_config.channel, noise_sigma=0.0)


@pytest.fixture(scope="session")
def signature_layout(app_config):
    """High-mounted variant where the trailer deck shows in the traces."""
    return build_layout(LayoutConfig(tx_height=1.2, rx_height=1.2))


@pytest.fixture(scope="session")
def signature_patterns(app_config, signature_layout):
    return app_config.build_patterns(signature_layout)
