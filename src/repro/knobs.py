"""Declared domains for configuration knobs.

Each field of a config dataclass states once, with :func:`knob`, the
values it may take: choices, bounds (each open or closed) and, for tuple
fields, the domain of the items. ``X | None`` in the annotation allows
None; numbers must be finite. Everything else reads that declaration:
:func:`check` validates an instance (the ``__post_init__`` of every
declared class, before its hand-written cross-field rules),
:func:`from_dict` rebuilds one from its ``asdict`` form, and the CLI
turns knobs that carry ``help`` into flags.

This module imports nothing else from the package, so every config
module can use it.
"""

from __future__ import annotations

import dataclasses
import enum
import math
import types
import typing

from repro.errors import ConfigError

_METADATA_KEY = "repro.knobs"


@dataclasses.dataclass(frozen=True)
class Domain:
    """The values one field, or one item of a tuple field, may take.

    ``choices`` is a tuple, or a callable returning the current choices
    (a registry). ``items`` gives a tuple field's items one domain, or
    one per position. ``help`` marks a knob the CLI maps onto a flag.
    """

    choices: tuple | typing.Callable[[], typing.Sequence] | None = None
    ge: float | None = None
    gt: float | None = None
    le: float | None = None
    lt: float | None = None
    items: "Domain | tuple[Domain, ...] | None" = None
    help: str | None = None


def knob(default: typing.Any = dataclasses.MISSING, **domain: typing.Any):
    """A dataclass field whose domain is ``Domain(**domain)``."""
    return dataclasses.field(
        default=default, metadata={_METADATA_KEY: Domain(**domain)}
    )


class Knob:
    """One field's declared domain, resolved against its annotation.

    Tuple fields hold one knob per position in ``items``, or a single
    knob for every item when ``variadic`` (``tuple[T, ...]``).
    """

    def __init__(
        self, name: str, hint: typing.Any, domain: Domain, default: typing.Any
    ) -> None:
        self.name, self.domain, self.default = name, domain, default
        options = typing.get_args(hint)
        self.optional = (
            typing.get_origin(hint) in (typing.Union, types.UnionType)
            and type(None) in options
        )
        if self.optional:
            (hint,) = [option for option in options if option is not type(None)]
        self.kind = hint
        self.items: tuple[Knob, ...] = ()
        self.variadic = False
        if typing.get_origin(hint) is tuple:
            self.kind, args = tuple, typing.get_args(hint)
            self.variadic = args[-1] is Ellipsis
            if self.variadic:
                args = args[:1]
            items = domain.items
            if not isinstance(items, tuple):
                items = (items or Domain(),) * len(args)
            self.items = tuple(
                Knob(name, arg, item, None) for arg, item in zip(args, items)
            )
        self.is_enum = isinstance(self.kind, type) and issubclass(self.kind, enum.Enum)
        self.nested = dataclasses.is_dataclass(self.kind)
        inf = math.inf
        self.low = (domain.gt, True) if domain.gt is not None else (
            (domain.ge, False) if domain.ge is not None else (-inf, True)
        )
        self.high = (domain.lt, True) if domain.lt is not None else (
            (domain.le, False) if domain.le is not None else (inf, True)
        )

    def choices(self) -> tuple | None:
        """The allowed values, or None when any value of the type goes."""
        if self.is_enum:
            return tuple(self.kind)
        choices = self.domain.choices
        return tuple(choices()) if callable(choices) else choices

    def check(self, value: typing.Any, label: str | None = None) -> None:
        """Raise :class:`ConfigError`, naming ``label``, unless ``value``
        is in the domain."""
        label = label or self.name
        if value is None:
            if not self.optional:
                raise ConfigError(f"{label} must not be None")
        elif self.kind is tuple:
            items = self.items * len(value) if self.variadic else self.items
            if len(value) != len(items):
                raise ConfigError(
                    f"{label} must have {len(items)} items, got {value!r}"
                )
            for index, (item, entry) in enumerate(zip(items, value)):
                item.check(entry, f"{label}[{index}]")
        elif self.kind in (int, float):
            (low, low_open), (high, high_open) = self.low, self.high
            try:  # one chained comparison: NaN fails it, inf meets a bound
                inside = (low < value if low_open else low <= value) and (
                    value < high if high_open else value <= high
                )
            except TypeError:
                raise ConfigError(
                    f"{label} must be a number, got {value!r}"
                ) from None
            if not inside:
                bounds = "finite" if not math.isfinite(value) else self.bounds()
                raise ConfigError(f"{label} must be {bounds}, got {value}")
        elif self.nested:
            if not isinstance(value, self.kind):
                raise ConfigError(
                    f"{label} must be a {self.kind.__name__}, got {value!r}"
                )
        else:
            choices = self.choices()
            if choices is not None and value not in choices:
                raise ConfigError(
                    f"{label} must be {self.describe()}, got {value!r}"
                )

    def bounds(self) -> str:
        """``>= 1``, ``> 0``, ``in [0, 1)`` or ``finite``."""
        (low, low_open), (high, high_open) = self.low, self.high
        if math.isinf(low) and math.isinf(high):
            return "finite"
        if math.isinf(high):
            return f"{'>' if low_open else '>='} {_number(low)}"
        if math.isinf(low):
            return f"{'<' if high_open else '<='} {_number(high)}"
        return (
            f"in {'(' if low_open else '['}{_number(low)}, "
            f"{_number(high)}{')' if high_open else ']'}"
        )

    def describe(self) -> str:
        """The domain in words, e.g. ``an integer >= 0``."""
        choices = self.choices()
        if choices is not None:
            return f"one of {tuple(getattr(c, 'value', c) for c in choices)}"
        noun = "an integer" if self.kind is int else "a number"
        return noun if self.bounds() == "finite" else f"{noun} {self.bounds()}"

    def read(self, value: typing.Any) -> typing.Any:
        """Convert a value of the field's ``asdict`` form back to its type."""
        if value is None:
            return None
        if self.kind is tuple:
            items = self.items * len(value) if self.variadic else self.items
            if len(value) != len(items):
                return tuple(value)  # check() reports the arity
            return tuple(item.read(entry) for item, entry in zip(items, value))
        if self.nested and isinstance(value, dict):
            return from_dict(self.kind, value)
        return self.kind(value) if self.is_enum else value


def _number(value: float) -> str:
    return str(int(value)) if float(value).is_integer() else str(value)


#: Declared class -> field name -> knob, resolved once, at import.
_KNOBS: dict[type, dict[str, Knob]] = {}


def declared(cls: type) -> type:
    """Class decorator (on top of ``@dataclasses.dataclass``): resolve
    each field's :class:`Knob` and check its default.

    A field declared without :func:`knob` gets an empty domain: its type
    alone constrains it.
    """
    hints = typing.get_type_hints(cls)
    _KNOBS[cls] = {
        field.name: Knob(
            field.name,
            hints[field.name],
            field.metadata.get(_METADATA_KEY, Domain()),
            field.default,
        )
        for field in dataclasses.fields(cls)
    }
    for spec in _KNOBS[cls].values():
        if spec.default is not dataclasses.MISSING:
            spec.check(spec.default)
    return cls


def of(cls: type) -> dict[str, Knob]:
    """Field name -> :class:`Knob` for a :func:`declared` class."""
    return _KNOBS[cls]


def check(instance: typing.Any) -> None:
    """Validate each field of ``instance`` against its declared domain.

    A field still holding its (already checked) default is skipped. A
    tuple field given as a list is stored as a tuple, so equal configs
    compare and hash equal however they were spelled.
    """
    values = instance.__dict__
    for name, spec in _KNOBS[type(instance)].items():
        value = values[name]
        if value is spec.default:
            continue
        if spec.kind is tuple and isinstance(value, list):
            value = tuple(value)
            object.__setattr__(instance, name, value)
        spec.check(value)


def from_dict(cls: type, record: dict) -> typing.Any:
    """Rebuild a :func:`declared` dataclass from its ``asdict`` form.

    Lists become tuples, enum values members, and nested records their
    dataclasses; keys that are not fields raise :class:`ConfigError`.
    Validation re-runs on construction.
    """
    specs = _KNOBS[cls]
    unknown = sorted(set(record) - set(specs))
    if unknown:
        noun = cls.__name__.removesuffix("Spec").removesuffix("Config").lower()
        raise ConfigError(f"unknown {noun} field(s) in record: {unknown}")
    return cls(**{name: specs[name].read(value) for name, value in record.items()})
