"""``parse_document`` sorts each line with one pattern. On any text it gives
the document, or the error (class, message, line and column), that the
line-by-line tokenizer it replaced gives; that tokenizer is kept here as the
reference, with a list item's column pointing at the item."""

import re
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from evdemand.errors import EvDemandError, ParseError
from evdemand.quantities import NUMBER_RE, PARSE_UNITS, parse_quantity
from evdemand.scenario import BUILTIN_SCENARIOS, builtin_scenario_text
from evdemand.scnformat import Document, Entry, RawValue, Section, parse_document

_KEY = r"[A-Za-z_][A-Za-z0-9_-]*"
_SECTION_RE = re.compile(rf"^\[({_KEY})\]$")
_KEY_RE = re.compile(rf"^{_KEY}$")
_IDENT_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_.-]*$")


def _strip_comment(line):
    if '"' not in line:
        return line.partition("#")[0]
    in_string = False
    for i, ch in enumerate(line):
        if ch == '"':
            in_string = not in_string
        elif ch == "#" and not in_string:
            return line[:i]
    return line


def _reference_value(text, line_no, column):
    if "," in text and not text.startswith('"'):
        items = []
        offset = 0
        for piece in text.split(","):
            stripped = piece.strip()
            if not stripped:
                raise ParseError("empty item in value list", line=line_no,
                                 column=column + offset)
            lead = len(piece) - len(piece.lstrip())
            items.append(_reference_value(stripped, line_no, column + offset + lead))
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


def _reference_document(text):
    sections = []
    seen_sections = set()
    seen_keys = set()
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
        column = raw_line.find(value_text, raw_line.index("=") + 1) + 1
        value = _reference_value(value_text, line_no, column)
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


def outcome(parse, text):
    """``repr`` of the document, or the error's class, message, line and column."""
    try:
        return repr(parse(text))
    except ParseError as exc:
        return type(exc).__name__, str(exc), exc.line, exc.column


# Every branch of a line: Unicode whitespace (and \x0c, \r, which end a line),
# quotes, comments inside and outside strings, commas, every unit, exponents,
# digits outside ASCII, headers, and names that repeat.
WHITESPACE = [" ", "\t", "\xa0", "\u3000", "\x1f", "\x0c", "\r"]
PIECES = [*WHITESPACE, '"', "#", ",", "=", "[", "]", "[a]", "[b]", "k", "x.y", "é",
          "٣", "1", "0.5", ".", "e3", "E-2", "+", "-", "_", "nan", "1e999",
          *PARSE_UNITS, "count", "furlong", "TWh extra"]
soup = st.lists(st.sampled_from(PIECES), max_size=7).map("".join)
space = st.lists(st.sampled_from(WHITESPACE[:5]), max_size=2).map("".join)
items = st.one_of(
    st.builds("{}{}{}".format, st.sampled_from(["1", "-2.5", ".5e3", "1e999", "٣", "1."]), space,
              st.sampled_from([*PARSE_UNITS, "count", "furlong", ""])),
    soup.map('"{}"'.format),
    st.sampled_from(["k", "x.y", "_a-b", "nan"]),
    soup,
)
values = st.builds("{}{}{}".format, items, st.sampled_from(["", ",", ", ", " ,", " "]),
                   st.lists(items, max_size=2).map(",".join))
lines = st.one_of(
    soup,
    st.builds("{}[{}]{}{}".format, space, st.sampled_from(["a", "b", "1a", ""]), space, soup),
    st.builds("{}{}{}={}{}{}{}".format, space, st.sampled_from(["k", "k2", "a-b", "1k", ""]),
              space, space, values, space, st.sampled_from(["", "# c", '#"', ""]) | soup),
)
texts = st.builds("{}{}".format, st.sampled_from(["", "[a]\n", "# c\n[a]\nk = 1\n"]),
                  st.lists(lines, max_size=6).map("\n".join))


@settings(max_examples=500, deadline=None)
@given(text=texts)
def test_parse_document_matches_the_line_by_line_tokenizer(text):
    assert outcome(parse_document, text) == outcome(_reference_document, text)


SCN_FILES = sorted(Path(__file__).parent.rglob("*.scn"))


def test_fixtures_and_scenario_files_parse_as_the_reference_does():
    texts = [builtin_scenario_text(name) for name in BUILTIN_SCENARIOS]
    texts += [p.read_text(encoding="utf-8") for p in SCN_FILES]
    assert len(texts) > len(BUILTIN_SCENARIOS)
    for text in texts:
        assert outcome(parse_document, text) == outcome(_reference_document, text)


CASES = [
    '[s]\nk = "a # b"  # c "d',
    '[s]\nk = "a" "b"',
    '[s]\nk = "open',
    '[s]\nk = "a,b", "c"',
    "[s]\nk = 1,,2",
    "[s]\nk = 1, ,2",
    "[s]\nk = 5\xa0TWh\u3000# c",
    "[s]\nk = 1e999 TWh",
    "[s]\nk = 1e999",
    "[s]\nk = -1 TWh",
    "[s]\nk = 150 %",
    "[s]\nk = 1.2.3",
    "[s]\nk = 1 2 TWh",
    "[s]\nk = 5 Btu gal",
    "[s]\nk = a=b",
    "[s]\n[s]",
    "[s]\nk = 1\nk = 2",
    "[s]\nk = bad value\nk = 2",
    "k =",
    "1k = 1",
    "[s]\nk =  # only a comment",
    "[s] x",
    "\ufeff[s]",
    "",
]


def test_edge_cases_parse_as_the_reference_does():
    for text in CASES:
        assert outcome(parse_document, text) == outcome(_reference_document, text), text
