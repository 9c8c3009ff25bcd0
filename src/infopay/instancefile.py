"""Structured text files for model instances.

Flat, diff-friendly sections; numbers are decimals or exact fractions
``a/b``.  A file describes one of three things:

* a firm alone: ``[firm]`` with one task vector per line;
* a population: ``[skill_space]``, two ``[distribution <name>]``
  sections, one ``[signal_structure <name>]``, and a ``[population]``
  section referencing them by name;
* a two-population scenario: as above with three distributions, two
  structures, a ``[firm]`` and a ``[scenario]`` section (references
  ``p``, ``q_i``, ``q_j``, ``coarse``, ``fine``).

The table ``_TOPS`` is the one description of the two top sections: the
class each builds and the keys it takes, with the kind of part each key
names.  ``loads_instance`` resolves and refuses references from it, and
``serialize_instance`` writes from it.

A ``[signal_structure]`` section starts with a ``signals:`` line, an
optional ``values:`` line, then one likelihood row per type.  Blank
lines and whole-line ``#`` comments are ignored; a ``#`` after data is
data (a signal label may hold one).  ``[skill_space]`` precedes every
distribution and structure, and a file holds at most one ``[scenario]``
or ``[population]``.  A ``[firm]`` goes with a ``[scenario]`` or stands
alone: beside a ``[population]`` it is refused, and a firm-only file
holds no other section.  A refusal of what a section holds names a
line: the header line of the section when a value class refuses it.
``serialize_instance`` emits a canonical form (sections in fixed order,
canonical reference names, reduced fractions) that reparses to an equal
object and survives a serialize-parse-serialize round trip
byte-identically.
"""

from __future__ import annotations

from .discrimination import GapScenario
from .errors import InputError, ParseError
from .model import Dist, Firm, Population, SignalStructure, SkillSpace, Task
from .numeric import Number, check_mode, format_number, parse_exact, parse_float

__all__ = [
    "load_instance",
    "loads_instance",
    "save_instance",
    "serialize_instance",
]

# the named section kinds, each with the words its refusals use
_NAMED_KINDS = {"distribution": "distribution", "signal_structure": "signal structure"}

# Each top section's class and the kind of every part it names, by key,
# in the order the canonical form writes them.  A class with a ``firm``
# field needs the file's [firm]; the others take none.
_TOPS = {
    "scenario": (GapScenario, {
        "p": "distribution", "q_i": "distribution", "q_j": "distribution",
        "coarse": "signal_structure", "fine": "signal_structure",
    }),
    "population": (Population, {
        "p": "distribution", "q": "distribution", "sig": "signal_structure",
    }),
}
_SECTION_KINDS = ("skill_space", "firm", *_NAMED_KINDS, *_TOPS)


class _Section:
    def __init__(self, kind: str, name: str | None, header_line: int):
        self.kind = kind
        self.name = name
        self.header_line = header_line
        self.lines: list[tuple[int, str]] = []


def _split_sections(text: str) -> list[_Section]:
    sections: list[_Section] = []
    current: _Section | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ParseError(f"line {lineno}: malformed section header {raw.strip()!r}")
            head = line[1:-1].strip()
            parts = head.split(None, 1)
            kind = parts[0] if parts else ""
            name = parts[1].strip() if len(parts) > 1 else None
            if kind not in _SECTION_KINDS:
                raise ParseError(f"line {lineno}: unknown section kind {kind!r}")
            if kind in _NAMED_KINDS and not name:
                raise ParseError(f"line {lineno}: section [{kind}] needs a name")
            if kind not in _NAMED_KINDS and name:
                raise ParseError(f"line {lineno}: section [{kind}] takes no name")
            current = _Section(kind, name, lineno)
            sections.append(current)
        else:
            if current is None:
                raise ParseError(f"line {lineno}: data outside any section")
            current.lines.append((lineno, line))
    return sections


def _numbers(lineno: int, line: str, parse) -> list[Number]:
    out = []
    for tok in line.split():
        try:
            out.append(parse(tok))
        except InputError:
            raise ParseError(f"line {lineno}: not a number: {tok!r}") from None
    return out


def _key_values(section: _Section) -> dict[str, str]:
    refs: dict[str, str] = {}
    for lineno, line in section.lines:
        if ":" not in line:
            raise ParseError(f"line {lineno}: expected 'key: name', got {line!r}")
        key, _, value = line.partition(":")
        key, value = key.strip(), value.strip()
        if not value:
            raise ParseError(f"line {lineno}: empty reference for {key!r}")
        if key in refs:
            raise ParseError(f"line {lineno}: duplicate key {key!r}")
        refs[key] = value
    return refs


def _build(section: _Section, cls, *args, **fields):
    """``cls(*args, **fields)``; a refusal names ``section``'s header line."""
    try:
        return cls(*args, **fields)
    except InputError as exc:
        raise InputError(f"line {section.header_line}: {exc}") from None


def _parse_part(section: _Section, space: SkillSpace, parse) -> Dist | SignalStructure:
    """The distribution or signal structure a named section holds."""
    at = f"line {section.header_line}: {_NAMED_KINDS[section.kind]} {section.name!r}"
    lines = list(section.lines)
    if section.kind == "distribution":
        if len(lines) != 1:
            raise ParseError(f"{at} needs one line")
        return _build(section, Dist, space, tuple(_numbers(*lines[0], parse)))
    if not lines or not lines[0][1].startswith("signals:"):
        raise ParseError(f"{at} must start with a 'signals:' line")
    lineno, line = lines.pop(0)
    labels = tuple(line.partition(":")[2].split())
    if not labels:
        raise ParseError(f"line {lineno}: empty signal list")
    values = None
    if lines and lines[0][1].startswith("values:"):
        lineno, line = lines.pop(0)
        values = tuple(_numbers(lineno, line.partition(":")[2], parse))
    if len(lines) != space.size:
        raise ParseError(f"{at} has {len(lines)} likelihood rows for {space.size} types")
    rows = tuple(tuple(_numbers(n, text, parse)) for n, text in lines)
    return _build(section, SignalStructure, space, labels, rows, values=values)


def loads_instance(text: str, mode: str = "rational"):
    """Parse instance text into a GapScenario, Population, or Firm."""
    check_mode(mode)
    parse = parse_exact if mode == "rational" else parse_float
    sections = _split_sections(text)
    if not sections:
        raise ParseError("empty instance file")

    space: SkillSpace | None = None
    parts: dict[str, dict] = {kind: {} for kind in _NAMED_KINDS}  # by kind, then name
    firm: Firm | None = None
    top: _Section | None = None  # the one [scenario] or [population]

    for sec in sections:
        at = f"line {sec.header_line}:"
        if sec.kind == "skill_space":
            if space is not None:
                raise ParseError(f"{at} duplicate [skill_space]")
            if len(sec.lines) != 1:
                raise ParseError(f"{at} [skill_space] needs exactly one line")
            space = _build(sec, SkillSpace, tuple(_numbers(*sec.lines[0], parse)))
        elif sec.kind in _NAMED_KINDS:
            what = _NAMED_KINDS[sec.kind]
            if space is None:
                raise ParseError(f"{at} [skill_space] must precede {what}s")
            if sec.name in parts[sec.kind]:
                raise ParseError(f"{at} duplicate {what} {sec.name!r}")
            parts[sec.kind][sec.name] = _parse_part(sec, space, parse)
        elif sec.kind == "firm":
            if firm is not None:
                raise ParseError(f"{at} duplicate [firm]")
            if not sec.lines:
                raise ParseError(f"{at} [firm] needs task rows")
            tasks = [Task(tuple(_numbers(n, text, parse))) for n, text in sec.lines]
            firm = _build(sec, Firm, tasks)
        elif top is not None:
            raise ParseError(
                f"{at} duplicate [{sec.kind}]" if top.kind == sec.kind else
                f"{at} a file holds one [scenario] or [population], not both"
            )
        else:
            top = sec
        if firm is not None and top is not None and "firm" not in _TOPS[top.kind][0]._fields:
            raise ParseError(f"{at} a [{top.kind}] takes no [firm]")

    if top is not None:
        cls, kinds = _TOPS[top.kind]
        at = f"line {top.header_line}:"
        fields = {}
        if "firm" in cls._fields:
            if firm is None:
                raise ParseError(f"{at} [{top.kind}] needs a [firm]")
            fields["firm"] = firm
        refs = _key_values(top)
        extra = set(refs) - set(kinds)
        if extra:
            raise ParseError(f"{at} unknown {top.kind} keys {sorted(extra)}")
        for key, kind in kinds.items():
            if key not in refs:
                raise ParseError(f"{at} [{top.kind}] is missing {key!r}")
            if refs[key] not in parts[kind]:
                raise ParseError(
                    f"{at} unknown {_NAMED_KINDS[kind]} {refs[key]!r} (for {key!r})"
                )
            fields[key] = parts[kind][refs[key]]
        return _build(top, cls, **fields)
    if firm is None:
        raise ParseError("instance file has no [scenario], [population], or [firm]")
    for sec in sections:
        if sec.kind != "firm":  # a skill space, distribution or structure
            raise ParseError(f"line {sec.header_line}: a [firm] alone takes no [{sec.kind}]")
    return firm


def load_instance(path: str, mode: str = "rational"):
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text at byte {exc.start}") from None
    return loads_instance(text, mode=mode)


def _fmt_line(values) -> str:
    return " ".join(format_number(v) for v in values)


def _check_label(label: str) -> str:
    if not label or any(ch.isspace() for ch in label) or label.startswith("["):
        raise InputError(f"signal label {label!r} cannot be serialized")
    return label


def _firm_block(firm: Firm) -> list[str]:
    return ["[firm]"] + [_fmt_line(task.surplus) for task in firm.tasks]


def serialize_instance(obj) -> str:
    """Canonical text form of a GapScenario, Population, or Firm."""
    if isinstance(obj, Firm):
        return "\n".join(_firm_block(obj)) + "\n"
    for kind, (cls, kinds) in _TOPS.items():
        if isinstance(obj, cls):
            break
    else:
        raise InputError(f"cannot serialize {type(obj).__name__}")
    blocks = [["[skill_space]", _fmt_line(obj.p.space.thetas)]]
    for key, part_kind in kinds.items():
        part = getattr(obj, key)
        block = [f"[{part_kind} {key}]"]
        if part_kind == "distribution":
            block.append(_fmt_line(part.probs))
        else:
            block.append("signals: " + " ".join(_check_label(s) for s in part.signals))
            if part.values is not None:
                block.append("values: " + _fmt_line(part.values))
            block.extend(_fmt_line(row) for row in part.likelihood)
        blocks.append(block)
    if "firm" in cls._fields:
        blocks.append(_firm_block(obj.firm))
    blocks.append([f"[{kind}]"] + [f"{key}: {key}" for key in kinds])
    return "\n\n".join("\n".join(b) for b in blocks) + "\n"


def save_instance(obj, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(serialize_instance(obj))
