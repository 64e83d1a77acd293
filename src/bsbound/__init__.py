"""Lower bounds on the absorption of a planar-slab beam splitter.

Evaluates complex slab optics under a single-resonance Drude-Lorentz
dielectric, minimizes absorption subject to a splitting-ratio constraint,
and chains the result through a spontaneous-decay line-width bound to a
closed-form minimal absorption probability.

`import bsbound` loads no submodule: the package resolves its names on
first use (PEP 562).  `bsbound.<module>` imports that module and what it
imports; the first other public name, `__all__`, `dir(bsbound)` or
`from bsbound import *` imports the four modules below and binds every
name of their `__all__` here, so `bsbound.<name> is bsbound.<module>.<name>`
as after an eager import.  So a `bsbound` command that solves nothing
loads no solver.
"""

__version__ = "0.1.0"

# the modules whose __all__, in this order, follows __version__ in the package's
_EXPORTERS = ("dielectric", "slab", "optimizer", "linewidth")


def _export() -> None:
    """Import the exporting modules and bind their public names here, once."""
    if "__all__" in globals():
        return
    names = ["__version__"]
    for module in map(__getattr__, _EXPORTERS):
        globals().update((name, getattr(module, name)) for name in module.__all__)
        names += module.__all__
    globals()["__all__"] = names


def __getattr__(name: str):
    if name in _EXPORTERS or name == "cli":
        __import__(f"{__name__}.{name}")  # binds the module here as it loads
    elif name == "__all__" or not name.startswith("_"):
        _export()
    try:
        return globals()[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None


def __dir__() -> list:
    _export()
    return sorted(globals())
