"""The package exports every module's public names, each declared once, on first use."""

import inspect
import subprocess
import sys
import typing

import pytest

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


def fresh(cli_env, code):
    """stdout of `code` in a fresh interpreter that imports bsbound from src."""
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=cli_env,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout


LOADED = "sorted(m for m in sys.modules if m.startswith('bsbound.'))"


def test_a_bare_import_loads_no_submodule(cli_env):
    # neither a dunder probe nor an unknown private name loads one either
    code = (
        "import sys, bsbound\n"
        "assert not hasattr(bsbound, '__wrapped__') and not hasattr(bsbound, '_nothing')\n"
        f"print({LOADED}, bsbound.__version__)\n"
    )
    assert fresh(cli_env, code).split() == ["[]", "0.1.0"]


def test_a_module_attribute_loads_that_module_and_what_it_imports(cli_env):
    code = f"import sys, bsbound\nbsbound.slab\nprint({LOADED})\n"
    assert fresh(cli_env, code) == "['bsbound.dielectric', 'bsbound.slab']\n"


@pytest.mark.parametrize("use", [
    "assert bsbound.optimizer is sys.modules['bsbound.optimizer']",
    "assert bsbound.extract_alpha is sys.modules['bsbound.optimizer'].extract_alpha",
    "names = dir(bsbound); assert {*bsbound.__all__, 'slab'} <= set(names)",
    "from bsbound import *; assert extract_alpha is bsbound.extract_alpha",
], ids=["module", "name", "dir", "star"])
def test_every_name_resolves_after_a_bare_import(cli_env, use):
    code = f"import sys, bsbound\n{use}\nprint('ok')\n"
    assert fresh(cli_env, code) == "ok\n"


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'bsbound' has no attribute 'nothing'"):
        bsbound.nothing


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
