"""Declared wire records: a record states its fields once.

:func:`record` makes a class of annotated fields a frozen dataclass and
derives the rest from the annotations, as plain functions compiled once
per class at import: a construction-time check (``__post_init__`` raises
:class:`~repro.errors.ProtocolError` for a field of the wrong kind, so a
malformed record cannot exist and no handler has to look inside one) and
``size_bytes()``, the record's share of the byte-size model
(:mod:`repro.netsim.messages`): its fixed ``overhead`` plus what each
field's kind contributes. The annotation *is* the kind:

=========================== ====================================== ====================
annotation                  accepts                                bytes
=========================== ====================================== ====================
``str``                     text                                   its length
``int``                     a count: an ``int`` >= 0, no ``bool``  (in the overhead)
``float``                   a number: ``int`` or ``float``, no     (in the overhead)
                            ``bool``, no NaN (``inf`` is one)
:data:`Seconds`             a requested duration: finite, > 0      (in the overhead)
``bool``                    a flag                                 (in the overhead)
``X | None``                ``None`` or an ``X``                   0, or X's
``tuple[X, ...]``           a tuple of ``X``                       X's + :class:`PerItem`, each
``tuple[X, Y]``             a row of exactly that shape            its parts'
a class with ``size_bytes`` a nested record                        its ``size_bytes()``
``X | Y | Z`` of such       one of several records (a description  its ``size_bytes()``
classes                     or a query, whichever model's)
=========================== ====================================== ====================

A description or query slot (:data:`repro.descriptions.Description`,
:data:`~repro.descriptions.Query`) checks the *shape*, some model's record;
the node's model registry checks the *owner*, the named model's own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import UnionType
from typing import (Annotated, Any, Callable, NamedTuple, Union, get_args, get_origin,
                    get_type_hints)

from repro.errors import ProtocolError


class PerItem(NamedTuple):
    """``Annotated[tuple[X, ...], PerItem(n)]``: ``n`` framing bytes per item."""

    overhead: int


class _Scalar(NamedTuple):
    """One scalar kind: its check and size as source templates over ``{v}``."""

    noun: str
    check: str
    size: str = ""


#: A duration somebody *asks* for (a lease, a subscription): a sign and
#: finiteness bound, not a cap — ``nan`` would never lapse, ``0`` never hold.
Seconds = Annotated[float, _Scalar("finite seconds > 0",
                                   "{v}.__class__ in _REAL and 0 < {v} < _INF")]

_SCALARS = {
    str: _Scalar("text", "isinstance({v}, str)", "len({v})"),
    int: _Scalar("a count (int >= 0)", "{v}.__class__ is int and {v} >= 0"),
    float: _Scalar("a number", "{v}.__class__ in _REAL and {v} == {v}"),
    bool: _Scalar("a flag", "{v}.__class__ is bool"),
}


def _compile(hint: Any, v: str, ns: dict[str, Any], *, per_item: int = 0,
             depth: int = 0) -> tuple[str, str, str]:
    """``(noun, check, size)`` of kind ``hint`` as source over the value
    expression ``v``; an empty size is 0."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is Annotated:
        extras = {type(extra): extra for extra in hint.__metadata__}
        if _Scalar not in extras:
            return _compile(args[0], v, ns, per_item=extras[PerItem].overhead, depth=depth)
        scalar = extras[_Scalar]
    else:
        scalar = _SCALARS.get(hint)
    if scalar is not None:
        return scalar.noun, scalar.check.format(v=v), scalar.size.format(v=v)
    if origin in (Union, UnionType) and len(args) == 2 and args[1] is type(None):
        noun, check, size = _compile(args[0], v, ns, depth=depth)
        return (f"None or {noun}", f"({v} is None or {check})",
                size and f"(0 if {v} is None else {size})")
    if origin is tuple and args[-1] is Ellipsis:
        item = f"x{depth}"
        noun, check, size = _compile(args[0], item, ns, depth=depth + 1)
        each = " + ".join(filter(None, (size, str(per_item or ""))))
        return (f"a tuple of {noun}",
                f"{v}.__class__ is tuple and all({check} for {item} in {v})",
                each and f"sum({each} for {item} in {v})")
    if origin is tuple:
        nouns, checks, sizes = zip(*(_compile(arg, f"{v}[{i}]", ns, depth=depth)
                                     for i, arg in enumerate(args)))
        return (f"a row ({', '.join(nouns)})",
                " and ".join((f"{v}.__class__ is tuple and len({v}) == {len(args)}", *checks)),
                " + ".join(filter(None, sizes)))
    members = args if origin in (Union, UnionType) else (hint,)
    if all(isinstance(m, type) and hasattr(m, "size_bytes") for m in members):
        names = [m.__name__ for m in members]
        ns["_" + "_".join(names)] = members if len(members) > 1 else hint
        noun = names[0] if len(names) == 1 else f"one of {', '.join(names)}"
        return noun, f"isinstance({v}, _{'_'.join(names)})", f"{v}.size_bytes()"
    raise TypeError(f"no record kind for annotation {hint!r}")


def record(*, overhead: int, correlation: str = "") -> Callable[[type], type]:
    """Class decorator: a frozen dataclass checked and sized from its
    annotations (see the module docstring). ``correlation`` names the text
    field an answer that carries no record of its own — a ``BUSY`` — echoes
    so the sender finds its bookkeeping; it is kept as ``cls.correlation``.
    """

    def declare(cls: type) -> type:
        ns: dict[str, Any] = {"_Error": ProtocolError, "_REAL": (int, float),
                              "_INF": math.inf}
        hints = get_type_hints(cls, include_extras=True)
        if correlation and hints.get(correlation) is not str:
            raise TypeError(f"{cls.__name__}: correlation {correlation!r} is not a text field")
        checks, sizes = [], [str(overhead)]
        for name, hint in hints.items():
            noun, check, _ = _compile(hint, "v", ns)
            checks.append(f"    v = self.{name}\n    if not ({check}):\n        raise _Error("
                          f"'{cls.__name__}.{name} must be {noun}, got ' + repr(v))\n")
            sizes.append(_compile(hint, f"self.{name}", ns)[2])
        exec(  # as dataclasses builds __init__: source once, no interpretation per call
            f"def __post_init__(self):\n{''.join(checks) or '    pass'}\n"
            f"def size_bytes(self):\n"
            f"    '''Bytes on the wire, derived from the field declarations.'''\n"
            f"    return {' + '.join(filter(None, sizes))}\n", ns)
        cls.__post_init__ = ns["__post_init__"]
        cls.size_bytes = ns["size_bytes"]
        cls.correlation = correlation
        return dataclass(frozen=True)(cls)

    return declare
