"""Line-oriented section/key-value syntax for scenario and dataset files.

The format is UTF-8 text. ``#`` starts a comment to end of line (outside
quoted strings), ``[section-name]`` lines open sections, and entries are
``key = value``. A value is one of:

* a quantity literal (``4055 TWh``, ``61 %``),
* a bare decimal (dimensionless),
* a double-quoted string (no escapes), or
* an identifier (``shares``, ``catalog-median``).

This module only tokenizes and structures the text; meaning is assigned by
the scenario loader.
"""

import re
from typing import NamedTuple, Union

from .errors import EvDemandError, ParseError, UnquotableText
from .quantities import NUMBER_RE, Quantity, parse_quantity

__all__ = ["RawValue", "Entry", "Section", "Document", "parse_document", "quoted",
           "text_literal", "write_document"]

_SECTION_RE = re.compile(r"^\[([A-Za-z_][A-Za-z0-9_-]*)\]$")
_KEY_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_-]*$")
# identifier values may carry dots (sweep parameter paths)
_IDENT_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_.-]*$")


class RawValue(NamedTuple):
    """A parsed value: ``kind`` is quantity, number, string, ident, or list.

    A list payload is a tuple of scalar RawValues (comma-separated source).
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


def _strip_comment(line: str) -> str:
    if '"' not in line:
        return line.partition("#")[0]
    in_string = False
    for i, ch in enumerate(line):
        if ch == '"':
            in_string = not in_string
        elif ch == "#" and not in_string:
            return line[:i]
    return line


def _parse_value(text: str, line_no: int, column: int) -> RawValue:
    if "," in text and not text.startswith('"'):
        items = []
        offset = 0
        for piece in text.split(","):
            stripped = piece.strip()
            if not stripped:
                raise ParseError("empty item in value list", line=line_no,
                                 column=column + offset)
            items.append(_parse_value(stripped, line_no, column + offset))
            offset += len(piece) + 1
        return RawValue("list", text, tuple(items), line_no, column)
    if text.startswith('"'):
        if len(text) < 2 or not text.endswith('"') or text.count('"') != 2:
            raise ParseError(f"unterminated or malformed string {text!r}",
                             line=line_no, column=column)
        return RawValue("string", text, text[1:-1], line_no, column)
    number = NUMBER_RE.match(text)
    if number and number.end() == len(text):
        return RawValue("number", text, float(text), line_no, column)
    if number:
        try:
            q = parse_quantity(text)
        except EvDemandError as exc:
            raise ParseError(f"bad quantity literal {text!r}: {exc}",
                             line=line_no, column=column) from exc
        return RawValue("quantity", text, q, line_no, column)
    if _IDENT_RE.match(text):
        return RawValue("ident", text, text, line_no, column)
    raise ParseError(f"unrecognized value {text!r}", line=line_no, column=column)


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
        line = _strip_comment(raw_line).strip()
        if not line:
            continue
        m = _SECTION_RE.match(line)
        if m:
            name = m.group(1)
            if name in seen_sections:
                raise ParseError(f"duplicate section [{name}]", line=line_no, column=1)
            seen_sections.add(name)
            seen_keys = set()
            sections.append((name, line_no, []))
            continue
        if "=" not in line:
            raise ParseError(f"expected 'key = value' or '[section]', got {line!r}",
                             line=line_no, column=1)
        key_part, _, value_part = line.partition("=")
        key = key_part.strip()
        value_text = value_part.strip()
        if not _KEY_RE.match(key):
            raise ParseError(f"bad key {key!r}", line=line_no, column=1)
        if not sections:
            raise ParseError(f"entry {key!r} appears before any section",
                             line=line_no, column=1)
        if not value_text:
            raise ParseError(f"missing value for key {key!r}", line=line_no, column=1)
        column = raw_line.find(value_text, raw_line.index("=") + 1) + 1  # not in the key
        value = _parse_value(value_text, line_no, column)
        name, sec_line, entries = sections[-1]
        if key in seen_keys:
            raise ParseError(f"duplicate key {key!r} in section [{name}]",
                             line=line_no, column=1)
        seen_keys.add(key)
        entries.append(Entry(key=key, value=value))
    if not sections:
        raise ParseError("no sections found", line=1, column=1)
    return Document(sections=tuple(
        Section(name=n, line=ln, entries=tuple(es)) for n, ln, es in sections))


def quoted(text: str) -> str:
    """``text`` as a double-quoted string value. Strings have no escapes, so
    text with a ``"`` or a line break raises :class:`UnquotableText`."""
    if '"' in text or len(f"{text}.".splitlines()) > 1:
        raise UnquotableText(f"cannot write {text!r} as a quoted string: "
                             "it holds a '\"' or a line break")
    return f'"{text}"'


def text_literal(text: str) -> str:
    """A string value in file syntax: bare when it reads back as an
    identifier, double-quoted otherwise."""
    return text if _IDENT_RE.fullmatch(text) else quoted(text)


def write_document(sections: list[tuple[str, list[tuple[str, str]]]],
                   header_comments: list[str] | None = None) -> str:
    """Render sections back to file text. Values must be pre-rendered strings."""
    lines: list[str] = []
    for comment in header_comments or []:
        lines.append(f"# {comment}" if comment else "#")
    if header_comments:
        lines.append("")
    for i, (name, entries) in enumerate(sections):
        if i or header_comments:
            if lines and lines[-1] != "":
                lines.append("")
        lines.append(f"[{name}]")
        for key, value in entries:
            lines.append(f"{key} = {value}")
    lines.append("")
    return "\n".join(lines)
