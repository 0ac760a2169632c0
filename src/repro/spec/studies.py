"""The shipped studies: each one a JSON document, defined nowhere else.

Every paper figure and table (``fig4``, ``fig5``, ``fig6``, ``table1``,
``headline``), the serving and design-space studies behind
``repro experiments``, and the walk-through ``examples/`` scripts are
committed as :class:`~repro.spec.StudySpec` documents in the package-data
directory ``shipped/`` next to this module.  The registry scans that
directory at import and registers each file under its stem, with ``_``
turned into ``-`` (``serving_capacity.json`` is ``serving-capacity``); a
file is decoded only when :func:`get_study` asks for it.  ``repro
studies`` lists the registry; ``repro study run <name>`` executes an
entry by name.

Like the strategy/policy/searcher registries, this one is open: register
your own study factory with :func:`register_study` and it becomes
runnable from the CLI by name.
"""

from __future__ import annotations

from functools import partial
from pathlib import Path
from typing import Callable, Dict, List

from ..errors import ConfigurationError
from .specs import StudySpec, load_spec

__all__ = ["SHIPPED_DIR", "get_study", "list_studies", "register_study"]

#: The package-data directory holding one JSON document per shipped study.
SHIPPED_DIR = Path(__file__).resolve().parent / "shipped"

#: Study name -> StudySpec factory.
_STUDIES: Dict[str, Callable[[], StudySpec]] = {}


def register_study(name: str, factory: Callable[[], StudySpec]) -> None:
    """Register a study factory under ``name``.

    The study's description is its spec's ``description`` field.

    Raises:
        ConfigurationError: If the name is already registered.
    """
    key = name.strip().lower()
    if not key:
        raise ConfigurationError("study name must be non-empty")
    if key in _STUDIES:
        raise ConfigurationError(f"study {name!r} is already registered")
    _STUDIES[key] = factory


def get_study(name: str) -> StudySpec:
    """Build the study spec registered under ``name``.

    Raises:
        ConfigurationError: If no study with that name is registered.
    """
    key = name.strip().lower()
    if key not in _STUDIES:
        known = ", ".join(sorted(_STUDIES)) or "<none>"
        raise ConfigurationError(
            f"unknown study {name!r}; registered studies: {known}"
        )
    return _STUDIES[key]()


def list_studies() -> List[str]:
    """Sorted names of all registered studies."""
    return sorted(_STUDIES)


for _path in sorted(SHIPPED_DIR.glob("*.json")):
    register_study(_path.stem.replace("_", "-"), partial(load_spec, _path))
