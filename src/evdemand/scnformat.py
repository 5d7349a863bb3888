"""Line-oriented section/key-value syntax for scenario and dataset files.

The format is UTF-8 text, read line by line. A line is one of

* blank, or a comment: ``#`` to end of line;
* ``[name]``, which opens a section;
* ``key = value``, an entry of the section opened above it,

and a section or entry line may end in a comment. A name or key is
``[A-Za-z_][A-Za-z0-9_-]*``. Whitespace is Unicode whitespace, the
characters ``str.strip`` removes, and may stand around every part of a line.
A value is one of:

* a quantity literal (``4055 TWh``, ``61 %``): a decimal number (digits
  ``0-9``) with an optional exponent, optional whitespace, and a unit;
* a bare decimal (dimensionless);
* a double-quoted string (no escapes; a ``#`` inside it is kept);
* an identifier (``shares``, ``catalog-median``, ``fleet.fuel_share``), or
* a comma-separated list of those (not a string).

This module reads and writes the syntax, one value at a time included
(``number``, ``literal``); meaning is assigned by the scenario loader.
"""

import re
from typing import NamedTuple, Union

from .errors import EvDemandError, ParseError, UnquotableText, UnwritableScenario
from .quantities import (CANONICAL_UNIT, CATALOG, NUMBER_RE, PARSE_UNITS, Dimension, Quantity,
                         parse_quantity)

__all__ = ["RawValue", "Entry", "Section", "Document", "parse_document", "number", "quoted",
           "text_literal", "is_ident", "literal", "write_document"]

_NAME = "[A-Za-z_][A-Za-z0-9_-]*"
_IDENT = "[A-Za-z_][A-Za-z0-9_.-]*"  # identifier values may carry dots (sweep paths)
_KEY_RE, _IDENT_RE = re.compile(_NAME), re.compile(_IDENT)
# A scalar value: a number with an optional unit, a string, or an identifier.
_SCALAR = rf"""(?P<number>{NUMBER_RE.pattern})(?:\s*(?P<unit>[^\s"\#]+))?
  | "(?P<string>[^"]*)" | (?P<ident>{_IDENT})"""
# One line, matched whole: blank or a comment, a section, or an entry whose
# value is a scalar; ``_read_entry`` reads every other line.
_LINE = re.compile(rf"""\s*(?:(?:
    \[(?P<section>{_NAME})\]
  | (?P<key>{_NAME})\s*=\s*(?P<value>{_SCALAR})
)\s*)?(?:\#.*)?""", re.VERBOSE).fullmatch
# what precedes a comment: a ``#`` in a string, open or closed, is kept. Only
# ``_read_entry`` matches it or a lone _SCALAR, so ``re`` compiles them on first use.
_BEFORE_COMMENT = r'(?:[^"#]|"[^"]*"?)*'
_UNITS = {name: CATALOG.units[name] for name in PARSE_UNITS}
# units written in preference to the canonical one, when they reparse exactly
_PRETTY_UNITS = {Dimension.ENERGY: ("TWh", "kWh"), Dimension.POWER: ("kW",),
                 Dimension.MASS: ("Mt", "kg")}
_new = tuple.__new__  # builds a record from its fields in order, unchecked


class RawValue(NamedTuple):
    """A parsed value: ``kind`` is quantity, number, string, ident, or list.

    ``payload`` is already converted: a number's is a ``float``, a
    quantity's a ``Quantity``, a string's (unquoted) or an identifier's a
    ``str``, and a list's a tuple of scalar RawValues (comma-separated
    source). ``text`` is the value as written.
    """

    kind: str
    text: str
    payload: Union[Quantity, float, str, tuple]
    line: int
    column: int


class Entry(NamedTuple):
    key: str
    value: RawValue


class Section(NamedTuple):
    name: str
    line: int
    entries: tuple[Entry, ...]

    def keys(self) -> tuple[str, ...]:
        return tuple(e.key for e in self.entries)

    def get(self, key: str) -> RawValue | None:
        for e in self.entries:
            if e.key == key:
                return e.value
        return None


class Document(NamedTuple):
    sections: tuple[Section, ...]


def _scalar(number: str | None, unit: str | None, string: str | None, ident: str | None,
            text: str, line_no: int, column: int) -> RawValue | None:
    """The value of a ``_SCALAR`` match's groups; None for a unit no file reads."""
    if number is not None:
        if unit is None:
            return _new(RawValue, ("number", text, float(number), line_no, column))
        if (u := _UNITS.get(unit)) is None:
            return None
        try:
            q = Quantity(u.to_canonical(float(number)), u.dimension)
        except EvDemandError as exc:
            raise ParseError(f"bad quantity literal {text!r}: {exc}",
                             line=line_no, column=column) from exc
        return _new(RawValue, ("quantity", text, q, line_no, column))
    if string is not None:
        return _new(RawValue, ("string", text, string, line_no, column))
    return _new(RawValue, ("ident", text, ident, line_no, column))


def _read_entry(raw_line: str, line_no: int, in_section: bool) -> tuple[str, RawValue]:
    """The key and list of a line ``_LINE`` and ``_scalar`` do not read; else :class:`ParseError`
    for its missing ``=``, bad key, missing section or value, or bad value or item."""
    line = re.match(_BEFORE_COMMENT, raw_line).group().strip()
    key, eq, text = line.partition("=")
    key, text = key.strip(), text.strip()
    if not eq:
        raise ParseError(f"expected 'key = value' or '[section]', got {line!r}",
                         line=line_no, column=1)
    if not _KEY_RE.fullmatch(key):
        raise ParseError(f"bad key {key!r}", line=line_no, column=1)
    if not in_section:
        raise ParseError(f"entry {key!r} appears before any section", line=line_no, column=1)
    if not text:
        raise ParseError(f"missing value for key {key!r}", line=line_no, column=1)
    column = raw_line.find(text, raw_line.index("=") + 1) + 1
    items, offset = [], 0
    for piece in [text] if text.startswith('"') else text.split(","):  # a string is no list
        if not (item := piece.strip()):
            raise ParseError("empty item in value list", line=line_no, column=column + offset)
        at = column + offset + len(piece) - len(piece.lstrip())
        if (not (m := re.fullmatch(_SCALAR, item, re.VERBOSE))
                or not (value := _scalar(*m.groups(), item, line_no, at))):
            if item.startswith('"'):
                raise ParseError(f"unterminated or malformed string {item!r}",
                                 line=line_no, column=at)
            if NUMBER_RE.match(item):
                try:
                    parse_quantity(item)
                except EvDemandError as exc:
                    raise ParseError(f"bad quantity literal {item!r}: {exc}",
                                     line=line_no, column=at) from exc
            raise ParseError(f"unrecognized value {item!r}", line=line_no, column=at)
        items.append(value)
        offset += len(piece) + 1
    return key, RawValue("list", text, tuple(items), line_no, column)


def parse_document(text: str) -> Document:
    """Parse file text into ordered sections of ordered entries.

    Raises :class:`ParseError` (with line/column) for anything malformed:
    entries before the first section, duplicate sections, duplicate keys
    within a section, or garbled lines. An input with no sections at all is
    also an error; these files always declare at least one.
    """
    sections: list[tuple[str, int, list[Entry]]] = []
    seen_sections: set[str] = set()
    seen_keys: set[str] = set()  # of the section now open
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        m = _LINE(raw_line)
        if m is None:
            key, value = _read_entry(raw_line, line_no, bool(sections))
        else:
            name, key, value_text, number, unit, string, ident = m.groups()
            if key is None:
                if name is not None:
                    if name in seen_sections:
                        raise ParseError(f"duplicate section [{name}]", line=line_no, column=1)
                    seen_sections.add(name)
                    seen_keys = set()
                    entries: list[Entry] = []
                    sections.append((name, line_no, entries))
                continue
            value = sections and _scalar(number, unit, string, ident, value_text, line_no,
                                         m.start(3) + 1)
            if not value:  # no section above it, or a number with a unit no file reads
                key, value = _read_entry(raw_line, line_no, bool(sections))
        if key in seen_keys:
            raise ParseError(f"duplicate key {key!r} in section [{sections[-1][0]}]",
                             line=line_no, column=1)
        seen_keys.add(key)
        entries.append(_new(Entry, (key, value)))
    if not sections:
        raise ParseError("no sections found", line=1, column=1)
    return Document(sections=tuple(
        Section(name=n, line=ln, entries=tuple(es)) for n, ln, es in sections))


def number(text: str) -> float:
    """``text`` read as a file reads a bare number; :class:`ParseError` otherwise."""
    stripped = text.strip()
    if not NUMBER_RE.fullmatch(stripped):
        raise ParseError(f"expected a bare number, got {text!r}")
    return float(stripped)


def quoted(text: str) -> str:
    """``text`` as a double-quoted string value. Strings have no escapes, so
    text with a ``"`` or a line break raises :class:`UnquotableText`."""
    if '"' in text or _breaks_line(text):
        raise UnquotableText(f"cannot write {text!r} as a quoted string: "
                             "it holds a '\"' or a line break")
    return f'"{text}"'


def _breaks_line(text: str) -> bool:
    """Whether ``text`` holds a line break, as the reader splits lines."""
    return len(f"{text}.".splitlines()) > 1


def text_literal(text: str) -> str:
    """A string value in file syntax: bare when it reads back as an
    identifier, double-quoted otherwise."""
    return text if is_ident(text) else quoted(text)


def is_ident(text: str) -> bool:
    """Whether ``text`` reads back as an identifier value."""
    return _IDENT_RE.fullmatch(text) is not None


def literal(value: float | Quantity) -> str:
    """A number (an infinity as ``1e400``) or the shortest quantity literal that reads
    back bit-identical; :class:`UnwritableScenario` for what is not an int, a float
    or a Quantity (a bool included), a NaN, an int no float holds, or a count
    quantity, which a file writes bare."""
    if not isinstance(value, Quantity):
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise UnwritableScenario(f"{value!r} is not a number")
        try:
            if float(value) == value:  # not a NaN, nor an int a float does not hold
                return repr(float(value)).replace("inf", "1e400")
        except OverflowError:
            pass
        raise UnwritableScenario(f"number {value!r} has no literal")
    canonical = value.canonical
    if value.dimension is Dimension.COUNT:
        raise UnwritableScenario(f"count quantity {canonical!r} has no literal")
    if value.dimension is Dimension.VOLUME and canonical >= 1e9:
        mantissa = repr(canonical / 1e9)
        if "e" not in mantissa and float(f"{mantissa}e9") == canonical:  # not "1e+16e9"
            return f"{mantissa}e9 gal"
    for unit in _PRETTY_UNITS.get(value.dimension, ()):
        u = CATALOG.units[unit]  # a repr reads back as the same float
        if u.to_canonical(scaled := u.from_canonical(canonical)) == canonical:
            return f"{scaled!r} {unit}"
    return f"{canonical!r} {CANONICAL_UNIT[value.dimension]}"


def write_document(sections: list[tuple[str, list[tuple[str, str]]]],
                   header_comments: list[str] | None = None) -> str:
    """Render sections back to file text. Values must be pre-rendered strings;
    a comment of more than one line, a key the reader would not read back, or
    one given twice within a section, raises :class:`UnwritableScenario`."""
    lines: list[str] = []
    for comment in header_comments or []:
        if _breaks_line(comment):
            raise UnwritableScenario(f"comment {comment!r} holds a line break, and a "
                                     "comment is one line")
        lines.append(f"# {comment}" if comment else "#")
    if header_comments:
        lines.append("")
    for i, (name, entries) in enumerate(sections):
        if i or header_comments:
            if lines and lines[-1] != "":
                lines.append("")
        lines.append(f"[{name}]")
        seen = set()
        for key, value in entries:
            if not _KEY_RE.fullmatch(key):
                raise UnwritableScenario(f"[{name}] {key!r} is not a key a file reads back")
            if key in seen:
                raise UnwritableScenario(f"[{name}] {key!r} is given twice, and a file "
                                         f"reads each key once")
            seen.add(key)
            lines.append(f"{key} = {value}")
    lines.append("")
    return "\n".join(lines)
