"""Every exported name exists, so a deletion cannot leave a stale export."""

import importlib
import pkgutil

import ipea_sim


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
