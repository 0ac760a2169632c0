"""One name registry for every kind of plugin.

Partitioning strategies, scheduling policies, fleet routers, searchers,
objectives and platform presets are each looked up by name through one
:class:`Registry`.  :func:`instantiate` is the first check of every
``register_*`` call that takes a plugin class (a platform preset is a
plain value, and its name gets :func:`require_name` alone); what a kind
asks beyond it (a policy's ``order_key``, an objective's ``sense``) stays
in its module.
"""

from __future__ import annotations

from typing import Dict, Generic, List, Type, TypeVar

from .errors import ConfigurationError

T = TypeVar("T")


class Registry(Generic[T]):
    """The entries of one plugin kind, by canonical name and alias.

    Args:
        kind: What the kind's messages call an entry (``"partitioning
            strategy"``).
        error: The kind's error for a name nobody registered.
        taken: What a taken-name message calls a name, if not
            ``"<kind> name"`` (``"strategy name"``).
    """

    __slots__ = ("kind", "_error", "_taken", "_entries", "_aliases")

    def __init__(
        self, kind: str, error: Type[ConfigurationError], taken: str = ""
    ) -> None:
        self.kind = kind
        self._error = error
        self._taken = taken or f"{kind} name"
        self._entries: Dict[str, T] = {}
        self._aliases: Dict[str, str] = {}  # alias -> canonical name

    def add(self, plugin, entry=None) -> None:
        """Register ``entry`` (default ``plugin``) under ``plugin``'s names.

        The names are ``plugin.name`` and those of its optional
        ``aliases`` tuple.

        Raises:
            ConfigurationError: If ``aliases`` is a string or holds
                anything but non-empty strings, or a name is taken; the
                registry is then unchanged.
        """
        name, aliases = plugin.name, getattr(plugin, "aliases", ())
        if isinstance(aliases, str) or not all(
            isinstance(alias, str) and alias for alias in aliases
        ):
            raise ConfigurationError(
                f"{self.kind} {name!r} must list its aliases as a tuple of "
                f"non-empty strings, not {aliases!r}"
            )
        for key in (name, *aliases):
            if key in self._entries or key in self._aliases:
                raise ConfigurationError(f"{self._taken} {key!r} already registered")
        self._entries[name] = plugin if entry is None else entry
        self._aliases.update(dict.fromkeys(aliases, name))

    def remove(self, name: str) -> None:
        """Remove the entry named ``name`` (or an alias), aliases included.

        An unknown name raises the kind's error, as :meth:`get` does.
        """
        canonical = self._aliases.get(name, name)
        if canonical not in self._entries:
            raise self._unknown_name(name)
        del self._entries[canonical]
        for alias in [a for a, owner in self._aliases.items() if owner == canonical]:
            del self._aliases[alias]

    def get(self, name: str) -> T:
        """The entry registered under ``name`` or an alias of it.

        One alias probe plus one dict access; an unknown name raises the
        kind's error, which lists the registered names.
        """
        try:
            return self._entries[self._aliases.get(name, name)]
        except KeyError:
            raise self._unknown_name(name) from None

    def names(self) -> List[str]:
        """Sorted canonical names of every entry, without aliases."""
        return sorted(self._entries)

    def _unknown_name(self, name: str) -> ConfigurationError:
        known = ", ".join(self.names()) or "<none>"
        return self._error(f"unknown {self.kind} {name!r}; registered: {known}")


def instantiate(plugin, kind: str, protocol: type):
    """The instance a ``register_*`` call registers, checked.

    That is ``plugin()`` for a plugin class, else ``plugin`` itself.

    Raises:
        ConfigurationError: If the instance has no non-empty string
            ``name`` or does not implement the ``runtime_checkable``
            ``protocol``; the message lists the protocol's members.
    """
    instance = plugin() if isinstance(plugin, type) else plugin
    name = getattr(instance, "name", None)
    require_name(name, kind)
    if not isinstance(instance, protocol):
        methods = [k for k, v in vars(protocol).items() if callable(v) and k[0] != "_"]
        members = ", ".join([*protocol.__annotations__, *methods])
        raise ConfigurationError(
            f"{kind} {name!r} does not implement the {protocol.__name__} "
            f"protocol ({members})"
        )
    return instance


def require_name(name: object, kind: str) -> None:
    """Raise :class:`ConfigurationError` unless ``name`` is a non-empty string."""
    if not name or not isinstance(name, str):
        article = "an" if kind[0] in "aeiou" else "a"
        raise ConfigurationError(
            f"{article} {kind} must define a non-empty string `name` attribute"
        )
