"""The package exports every module's public names, each declared once."""

import inspect
import typing

import bsbound
from bsbound import cli, dielectric, linewidth, optimizer, slab

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


def defined_functions(module):
    """name -> function of every function and method the module defines."""
    found = {}
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                member = getattr(member, "__func__", getattr(member, "fget", member))
                if inspect.isfunction(member):
                    found[f"{name}.{attr}"] = member
        elif callable(obj):
            found[name] = inspect.unwrap(obj)
    return found


def test_every_annotation_resolves():
    # the modules postpone annotations, so a name no module defines fails
    # only here, where typing evaluates them
    resolved = set()
    for module in (*MODULES, cli):
        for name, function in defined_functions(module).items():
            typing.get_type_hints(function)
            resolved.add(f"{module.__name__}.{name}")
    assert {
        "bsbound.optimizer.extract_alpha", "bsbound.optimizer.sweep",
        "bsbound.optimizer.solve_thickness_for_ratio", "bsbound.optimizer._scan_table",
        "bsbound.optimizer._Valley.row", "bsbound.cli.main",
        "bsbound.dielectric.DrudeLorentzModel.__new__",
    } <= resolved
