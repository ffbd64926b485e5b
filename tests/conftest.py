import pytest
import yaml

from scadasim import config


class PurePythonLoader(config._StrictLoading, yaml.SafeLoader):
    """The scenario loader as it is built where PyYAML has no libyaml."""


@pytest.fixture(params=["package", "pure-python"])
def scenario_loader(request, monkeypatch):
    """Run a test under the package's scenario loader and under its pure-Python fallback."""
    if request.param == "pure-python":
        monkeypatch.setattr(config, "ScenarioLoader", PurePythonLoader)
    return config.ScenarioLoader
