import pytest
from dataclasses import replace

from radiobarrier.config import default_config
from radiobarrier.geometry import LayoutConfig, build_layout


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
