"""The one dict codec of every declarative spec dataclass.

A scenario spec is a tree of frozen dataclasses (topology, stragglers,
failure trace, elastic and serving sections, each with nested events or
tenants).  :class:`SpecCodec` derives their ``to_dict`` / ``from_dict`` pair
from the dataclass fields, so adding a field to a spec is the whole change:
no hand-written serializer restates its name and default.

* **Encoding** writes every field by name; nested specs become dicts and
  tuples become lists, so the result is JSON-safe.
* **Decoding** rebuilds a field that holds a spec, or a tuple of specs, from
  its type hint; every other value goes to the constructor as is (the
  spec's ``__post_init__`` restores tuple shapes).  A missing key takes the
  dataclass default, and an unknown key raises the constructor's
  ``TypeError``.

The module imports nothing from :mod:`repro`, so every spec module can use
it without an import cycle.
"""

from __future__ import annotations

import dataclasses
import functools
import typing
from typing import Callable, Dict, Mapping, Optional, Type, TypeVar

__all__ = ["SpecCodec"]

_Spec = TypeVar("_Spec", bound="SpecCodec")


def _encode(value: object) -> object:
    if isinstance(value, SpecCodec):
        return value.to_dict()
    if isinstance(value, (list, tuple)):
        return [_encode(item) for item in value]
    return value


def _is_spec(hint: object) -> bool:
    return isinstance(hint, type) and issubclass(hint, SpecCodec)


def _decoder(hint: object) -> Optional[Callable[[object], object]]:
    """How to rebuild a field of type ``hint``; None passes the value as is."""
    if _is_spec(hint):
        return hint.from_dict
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple and args[1:] == (Ellipsis,) \
            and _is_spec(args[0]):
        item = args[0].from_dict
        return lambda values: tuple(item(value) for value in values)
    return None


@functools.lru_cache(maxsize=None)
def _decoders(cls: type) -> Dict[str, Callable[[object], object]]:
    """The decoders of ``cls``'s spec-valued fields, by field name."""
    decoders = {}
    for name, hint in typing.get_type_hints(cls).items():
        decoder = _decoder(hint)
        if decoder is not None:
            decoders[name] = decoder
    return decoders


class SpecCodec:
    """Mixin giving a spec dataclass its lossless dict form."""

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form (JSON-safe); inverse of :meth:`from_dict`."""
        return {spec_field.name: _encode(getattr(self, spec_field.name))
                for spec_field in dataclasses.fields(self)}

    @classmethod
    def from_dict(cls: Type[_Spec], data: Mapping[str, object]) -> _Spec:
        """Rebuild a spec from :meth:`to_dict` output (lossless)."""
        decoders = _decoders(cls)
        return cls(**{name: decoders[name](value) if name in decoders else value
                      for name, value in data.items()})
