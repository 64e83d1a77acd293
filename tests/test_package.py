"""The package exports every module's public names, each declared once."""

import bsbound
from bsbound import dielectric, linewidth, optimizer, slab

MODULES = (dielectric, slab, optimizer, linewidth)


def test_all_is_the_version_and_every_module_all():
    expected = ["__version__"] + [name for m in MODULES for name in m.__all__]
    assert len(set(expected)) == len(expected)
    assert sorted(bsbound.__all__) == sorted(expected)


def test_every_exported_name_resolves_to_its_module_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(bsbound, name) is getattr(module, name)
    namespace = {}
    exec("from bsbound import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(bsbound.__all__)
