"""Every exported name exists, so a deletion cannot leave a stale export,
and README's Python API example runs as its comments say."""

import importlib
import pathlib
import pkgutil

import numpy as np

import ipea_sim

README = pathlib.Path(__file__).parent.parent / "README.md"


def test_every_exported_name_resolves():
    modules = [ipea_sim] + [
        importlib.import_module(f"ipea_sim.{info.name}")
        for info in pkgutil.iter_modules(ipea_sim.__path__)
    ]
    for module in modules:
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names missing {missing}"
    namespace = {}
    exec("from ipea_sim import *", namespace)
    assert set(ipea_sim.__all__) <= set(namespace)


def test_readme_python_api_block_runs_as_stated():
    section = README.read_text(encoding="utf-8").split("## Python API\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(block, namespace)
    # "rotation by 90 degrees"
    np.testing.assert_allclose(namespace["u"].matrix, [[0, -1], [1, 0]], atol=1e-15)
    # "bits (1, 1, 0), value 0.75"
    exact = namespace["exact"].estimate
    assert (exact.bits, exact.value) == ((1, 1, 0), 0.75)
    assert isinstance(namespace["sampled"], ipea_sim.PhaseEstimate)
