"""Data-only codec of one persisted memo table (the store file body).

The persistent design-point store (:mod:`repro.engine.store`) keeps the
``optimizations`` memo table of an engine: keys are nested tuples of
``str`` / ``int`` / ``bool`` (see :mod:`repro.engine.fingerprint`), values
are ``None`` or a :class:`~repro.core.decision.RedundancyDecision` whose
:class:`~repro.scheduling.schedule.Schedule` holds
:class:`~repro.scheduling.schedule.ScheduledProcess` and
:class:`~repro.scheduling.schedule.ScheduledMessage` entries.  This module
maps such a table to a JSON-ready *section* and back, building only those
types: decoding never runs code named by the data.

Section layout (all lists, so ``json`` keeps every order)::

    {"keys":      [node, ...],        # atom, or list of earlier node indices
     "processes": [[process, node, start, finish], ...],
     "messages":  [[message, source_process, destination_process,
                    source_node, destination_node, start, finish], ...],
     "entries":   [[key node index, value], ...]}   # memo order

    value    = null | [hardening, reexecutions, schedule, cost,
                       schedule_length, meets_deadline, meets_reliability]
    schedule = [process row indices, message row indices,
                node_recovery_slack, reexecutions, hardening, length | null]

``keys`` stores every distinct key atom and sub-tuple once (the keys of
one context share their evaluator prefix and their ``(process, node)``
pairs), and the two row tables store every distinct schedule entry once.
Floats go through :func:`repr`, so they round-trip bit-exactly, ``inf``
included; ``int`` and ``float`` stay apart because their JSON texts do.

:func:`decode_table` checks every shape and type and raises
:class:`CodecError` on the first mismatch; the store then treats the file
as not cached.
"""

from __future__ import annotations

from math import copysign
from operator import attrgetter
from typing import Any, Dict, Hashable, List, Mapping, Tuple

#: Types a key atom may have.  ``bool`` is listed apart from ``int``: the
#: type checks compare exact types, so a bool never passes as an int.
_KEY_ATOMS = (str, int, bool)

#: Types a numeric field may decode to (``bool`` excluded, see above).
_NUMBERS = (float, int)

#: Field names of the schedule entries, in row order.
_PROCESS_FIELDS = ("process", "node", "start", "finish")
_MESSAGE_FIELDS = (
    "message",
    "source_process",
    "destination_process",
    "source_node",
    "destination_node",
    "start",
    "finish",
)

#: Bypass for the frozen-dataclass ``__setattr__`` when handing a decoded
#: ``__dict__`` to a ``__new__``-allocated entry (the scheduler kernels'
#: idiom; the result equals a constructor-built entry).
_SET_ATTR = object.__setattr__


class CodecError(ValueError):
    """A persisted section does not match the schema."""


# ----------------------------------------------------------------------
# encoding
# ----------------------------------------------------------------------
class _KeyTable:
    """Interning table of key atoms and sub-tuples (the ``keys`` list)."""

    def __init__(self) -> None:
        self.items: List[Any] = []
        # Strings are indexed by value; other atoms by (type, value) so
        # ``True`` and ``1`` stay apart; tuples by their child indices,
        # which are exact already.  Tuples of strings only (the mapping's
        # ``(process, node)`` pairs) are also indexed by value: no other
        # tuple compares equal to one, so the shortcut is exact.
        self._strings: Dict[str, int] = {}
        self._atoms: Dict[Tuple[type, Any], int] = {}
        self._tuples: Dict[Tuple[int, ...], int] = {}
        self._string_tuples: Dict[Tuple[str, ...], int] = {}

    def add(self, node: Tuple[Any, ...]) -> int:
        """Index of the tuple ``node``, interning its atoms and sub-tuples."""
        strings = self._strings
        string_tuples = self._string_tuples
        children = []
        only_strings = True
        for child in node:
            kind = type(child)
            if kind is str:
                index = strings.get(child)
                if index is None:
                    index = strings[child] = self._append(child)
                children.append(index)
                continue
            only_strings = False
            if kind is tuple:
                index = string_tuples.get(child)
                if index is None:
                    index = self.add(child)
            else:
                if kind not in _KEY_ATOMS:
                    raise CodecError(f"key atom of type {kind.__name__}")
                index = self._atoms.get((kind, child))
                if index is None:
                    index = self._atoms[(kind, child)] = self._append(child)
            children.append(index)
        signature = tuple(children)
        index = self._tuples.get(signature)
        if index is None:
            index = self._tuples[signature] = self._append(children)
            if only_strings:
                string_tuples[node] = index
        return index

    def _append(self, item: Any) -> int:
        self.items.append(item)
        return len(self.items) - 1


def _number(value: Any) -> Any:
    """A float or int field value, exact type kept (float subclasses
    such as ``numpy.float64`` become plain floats of the same value)."""
    kind = type(value)
    if kind is float or kind is int:
        return value
    if isinstance(value, float):
        return float(value)
    raise CodecError(f"number field of type {kind.__name__}")


def _integer(value: Any) -> int:
    if type(value) is not int:
        raise CodecError(f"int field of type {type(value).__name__}")
    return value


class _RowTable:
    """Interning table of schedule entries (``processes`` / ``messages``)."""

    def __init__(self, fields: Tuple[str, ...]) -> None:
        self._fields = attrgetter(*fields)
        self.rows: List[List[Any]] = []
        self._index: Dict[Tuple[Any, ...], int] = {}

    def add_all(self, entries: Mapping[str, Any]) -> List[int]:
        """Row indices of a schedule's ``{name: entry}`` table, in order."""
        fields = self._fields
        known = self._index
        indices = []
        for name, entry in entries.items():
            row = fields(entry)
            start, finish = row[-2], row[-1]
            # Equal numbers of equal type and sign have equal bits (NaN
            # never compares equal to another NaN object): sharing is exact.
            marker = (
                name,
                row,
                type(start),
                type(finish),
                start or copysign(1.0, start),
                finish or copysign(1.0, finish),
            )
            index = known.get(marker)
            if index is None:
                index = known[marker] = self._append(name, row)
            indices.append(index)
        return indices

    def _append(self, name: str, row: Tuple[Any, ...]) -> int:
        if row[0] != name:
            raise CodecError("schedule entry filed under another name")
        for field in row[:-2]:
            if type(field) is not str:
                raise CodecError("schedule entry name of a non-str type")
        self.rows.append([*row[:-2], _number(row[-2]), _number(row[-1])])
        return len(self.rows) - 1


def _name_map(mapping: Mapping[Any, Any], field: Any) -> Dict[str, Any]:
    """A copy of a ``{name: value}`` dict, each value passed through ``field``."""
    out: Dict[str, Any] = {}
    for name, value in mapping.items():
        if type(name) is not str:
            raise CodecError(f"map key of type {type(name).__name__}")
        out[name] = field(value)
    return out


def _encode_value(
    value: Any, processes: _RowTable, messages: _RowTable
) -> Any:
    from repro.core.decision import RedundancyDecision
    from repro.scheduling.schedule import Schedule

    if value is None:
        return None
    if type(value) is not RedundancyDecision or type(value.schedule) is not Schedule:
        raise CodecError(f"value of type {type(value).__name__}")
    schedule = value.schedule
    length = schedule._length
    if type(value.meets_deadline) is not bool or type(value.meets_reliability) is not bool:
        raise CodecError("flag field of a non-bool type")
    return [
        _name_map(value.hardening, _integer),
        _name_map(value.reexecutions, _integer),
        [
            processes.add_all(schedule._processes),
            messages.add_all(schedule._messages),
            _name_map(schedule.node_recovery_slack, _number),
            _name_map(schedule.reexecutions, _integer),
            _name_map(schedule.hardening, _integer),
            None if length is None else _number(length),
        ],
        _number(value.cost),
        _number(value.schedule_length),
        value.meets_deadline,
        value.meets_reliability,
    ]


def encode_table(entries: Mapping[Hashable, Any]) -> Tuple[Dict[str, Any], int]:
    """JSON-ready section of ``entries`` and the number of entries in it.

    An entry whose key or value falls outside the schema is left out (a
    cache may always forget).  Rows and key nodes it added before the
    mismatch stay in the tables unreferenced, which decoding tolerates.
    """
    keys = _KeyTable()
    processes = _RowTable(_PROCESS_FIELDS)
    messages = _RowTable(_MESSAGE_FIELDS)
    encoded: List[List[Any]] = []
    for key, value in entries.items():
        try:
            if type(key) is not tuple:
                raise CodecError(f"key of type {type(key).__name__}")
            encoded.append([keys.add(key), _encode_value(value, processes, messages)])
        except (CodecError, TypeError):
            continue
    section = {
        "keys": keys.items,
        "processes": processes.rows,
        "messages": messages.rows,
        "entries": encoded,
    }
    return section, len(encoded)


# ----------------------------------------------------------------------
# decoding
# ----------------------------------------------------------------------
def _list(value: Any, length: int) -> List[Any]:
    if type(value) is not list or len(value) != length:
        raise CodecError(f"expected a list of {length} fields")
    return value


def _indices(value: Any, limit: int) -> List[int]:
    if type(value) is not list:
        raise CodecError("expected a list of row indices")
    for index in value:
        if type(index) is not int or not 0 <= index < limit:
            raise CodecError("row index out of range")
    return value


def _number_field(value: Any) -> Any:
    if type(value) not in _NUMBERS:
        raise CodecError(f"number field of type {type(value).__name__}")
    return value


def _map_field(value: Any, value_types: Tuple[type, ...]) -> Dict[str, Any]:
    # JSON object keys are always str; only the values need checking.
    if type(value) is not dict:
        raise CodecError("expected a {name: value} object")
    for item in value.values():
        if type(item) not in value_types:
            raise CodecError(f"map value of type {type(item).__name__}")
    return value


def _decode_keys(items: Any) -> List[Any]:
    if type(items) is not list:
        raise CodecError("expected a list of key nodes")
    nodes: List[Any] = []
    for item in items:
        kind = type(item)
        if kind is list:
            limit = len(nodes)
            for index in item:
                if type(index) is not int or not 0 <= index < limit:
                    raise CodecError("key node index out of range")
            nodes.append(tuple([nodes[index] for index in item]))
        elif kind in _KEY_ATOMS:
            nodes.append(item)
        else:
            raise CodecError(f"key atom of type {kind.__name__}")
    return nodes


def _decode_processes(items: Any) -> List[Tuple[str, Any]]:
    """``(name, ScheduledProcess)`` pairs of the ``processes`` table."""
    from repro.scheduling.schedule import ScheduledProcess

    if type(items) is not list:
        raise CodecError("expected a list of process rows")
    new = ScheduledProcess.__new__
    pairs: List[Tuple[str, Any]] = []
    for row in items:
        process, node, start, finish = _list(row, 4)
        if (
            type(process) is not str
            or type(node) is not str
            or type(start) not in _NUMBERS
            or type(finish) not in _NUMBERS
        ):
            raise CodecError("process row field of a wrong type")
        entry = new(ScheduledProcess)
        _SET_ATTR(entry, "__dict__", {
            "process": process, "node": node, "start": start, "finish": finish,
        })
        pairs.append((process, entry))
    return pairs


def _decode_messages(items: Any) -> List[Tuple[str, Any]]:
    """``(name, ScheduledMessage)`` pairs of the ``messages`` table."""
    from repro.scheduling.schedule import ScheduledMessage

    if type(items) is not list:
        raise CodecError("expected a list of message rows")
    new = ScheduledMessage.__new__
    pairs: List[Tuple[str, Any]] = []
    for row in items:
        message, source, destination, source_node, destination_node, start, finish = (
            _list(row, 7)
        )
        if (
            type(message) is not str
            or type(source) is not str
            or type(destination) is not str
            or type(source_node) is not str
            or type(destination_node) is not str
            or type(start) not in _NUMBERS
            or type(finish) not in _NUMBERS
        ):
            raise CodecError("message row field of a wrong type")
        entry = new(ScheduledMessage)
        _SET_ATTR(entry, "__dict__", {
            "message": message,
            "source_process": source,
            "destination_process": destination,
            "source_node": source_node,
            "destination_node": destination_node,
            "start": start,
            "finish": finish,
        })
        pairs.append((message, entry))
    return pairs


def _entry_table(value: Any, rows: List[Tuple[str, Any]]) -> Dict[str, Any]:
    table = dict([rows[index] for index in _indices(value, len(rows))])
    if len(table) != len(value):
        raise CodecError("schedule lists one entry twice")
    return table


def decode_table(section: Any) -> Dict[Hashable, Any]:
    """Entries of a section written by :func:`encode_table`.

    Raises :class:`CodecError` on any shape or type mismatch; a well-formed
    section decodes to entries equal to the encoded ones, float bits and
    dict orders included.
    """
    from repro.core.decision import RedundancyDecision
    from repro.scheduling.schedule import Schedule

    if type(section) is not dict or set(section) != {"keys", "processes", "messages", "entries"}:
        raise CodecError("expected a table section")
    nodes = _decode_keys(section["keys"])
    processes = _decode_processes(section["processes"])
    messages = _decode_messages(section["messages"])
    entries = section["entries"]
    if type(entries) is not list:
        raise CodecError("expected a list of entries")
    ints = (int,)
    out: Dict[Hashable, Any] = {}
    for entry in entries:
        key_index, value = _list(entry, 2)
        if type(key_index) is not int or not 0 <= key_index < len(nodes):
            raise CodecError("key index out of range")
        key = nodes[key_index]
        if type(key) is not tuple:
            raise CodecError("key is not a tuple")
        if value is None:
            out[key] = None
            continue
        hardening, reexecutions, schedule, cost, length, deadline, reliability = _list(value, 7)
        process_rows, message_rows, slack, budgets, levels, seeded = _list(schedule, 6)
        if type(deadline) is not bool or type(reliability) is not bool:
            raise CodecError("flag field of a non-bool type")
        decoded = Schedule.from_kernel(
            _entry_table(process_rows, processes),
            _entry_table(message_rows, messages),
            _map_field(slack, _NUMBERS),
            _map_field(budgets, ints),
            _map_field(levels, ints),
        )
        if seeded is not None:
            decoded.seed_worst_case_length(_number_field(seeded))
        out[key] = RedundancyDecision(
            hardening=_map_field(hardening, ints),
            reexecutions=_map_field(reexecutions, ints),
            schedule=decoded,
            cost=_number_field(cost),
            schedule_length=_number_field(length),
            meets_deadline=deadline,
            meets_reliability=reliability,
        )
    return out
