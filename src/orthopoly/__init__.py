"""Numerical workbench for orthogonal polynomial systems.

The namespace is lazy (PEP 562): `import orthopoly` loads no submodule,
and a submodule or a re-exported name is imported on first access, so a
command line run loads only the modules its subcommand uses.
"""

import sys as _sys

__version__ = "0.1.0"

_SUBMODULES = ("cli", "discrete", "errors", "families", "identities", "io",
               "kernels", "measures", "momentprob", "qseries", "recurrence")
# re-exported name -> the submodule that defines it
_EXPORTS = {"FamilySpec": "families", "Measure": "measures",
            "MomentSequence": "measures", "NormData": "recurrence",
            "QuadratureRule": "kernels", "RecurrenceSystem": "recurrence"}

__all__ = [*_EXPORTS, *_SUBMODULES]


def __getattr__(name: str):
    if name in _SUBMODULES:
        # unlike importlib.import_module, __import__ shows in
        # `python -X importtime`
        __import__(f"{__name__}.{name}")
        return _sys.modules[f"{__name__}.{name}"]
    if name in _EXPORTS:
        return getattr(__getattr__(_EXPORTS[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
