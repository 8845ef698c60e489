"""Reproduction of "Characterizing and Optimizing Realistic Workloads on a
Commercial Compute-in-SRAM Device" (MICRO 2025).

Subpackages:

* :mod:`repro.core` -- the analytical framework (the paper's primary
  contribution): cost tables, ``LatencyEstimator``, Eq. 1 reduction
  model, roofline, design-space exploration.
* :mod:`repro.apu` -- the GSI-APU simulator: bit-processor microcode,
  memory hierarchy, DMA/PIO, GVML, energy model.
* :mod:`repro.opt` -- the three optimizations: communication-aware
  reduction mapping, DMA coalescing, broadcast-friendly layouts, and
  the binary-matmul kernels that realize them.
* :mod:`repro.hbm` -- the simulated HBM2e / DDR4 off-chip memory.
* :mod:`repro.baselines` -- Xeon 6230R / RTX A6000 models and a
  FAISS-like exact index.
* :mod:`repro.phoenix` -- the Phoenix benchmark suite on the APU.
* :mod:`repro.rag` -- retrieval-augmented generation end to end.
* :mod:`repro.serve`, :mod:`repro.scale` and the layers under them
  (``simcore``, ``faults``, ``integrity``, ``ecc``, ``obs``,
  ``telemetry``, ``monitor``) -- the sharded serving simulator.

Every package exports lazily (PEP 562): its ``__init__`` calls
:func:`lazy_exports` with a table naming each public name once, under
the submodule that defines it, and a name's submodule loads on first
access (``from repro.apu import APUDevice``, ``repro.apu.APUDevice``,
star-imports).  Importing a package therefore runs only its
``__init__``, and code inside ``repro`` imports from the defining
submodule (``from ..apu.device import APUDevice``).  ``repro.scale``
alone imports eagerly: it is the serving entry point, so importing it
loads the whole serving stack up front.
"""

import importlib
import sys
from typing import Any, Callable, List, Mapping, Sequence, Tuple


def lazy_exports(package: str, table: Mapping[str, Sequence[str]],
                 submodules: Sequence[str] = ()
                 ) -> Tuple[List[str], Callable[[str], Any],
                            Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package``.

    ``table`` maps each submodule to the names it exports;
    ``submodules`` are exported as modules themselves.  A resolved name
    is cached on the package, so later lookups are plain attribute
    reads; an unknown one raises :class:`AttributeError`.
    """
    owners = {name: module for module, names in table.items()
              for name in names}

    def __getattr__(name: str) -> Any:
        if name in owners:
            value = getattr(importlib.import_module(
                f"{package}.{owners[name]}"), name)
        elif name in submodules:
            value = importlib.import_module(f"{package}.{name}")
        else:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted({*vars(sys.modules[package]), *owners, *submodules})

    exported = [name for names in table.values() for name in names]
    return exported + list(submodules), __getattr__, __dir__


__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(__name__, {}, submodules=(
    "apu", "baselines", "core", "hbm", "opt", "phoenix", "rag"))
__all__.append("__version__")
