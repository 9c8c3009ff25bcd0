"""Structured text files for model instances.

Flat, diff-friendly sections; numbers are decimals or exact fractions
``a/b``.  A file describes one of three things:

* a firm alone: ``[firm]`` with one task vector per line;
* a population: ``[skill_space]``, two ``[distribution <name>]``
  sections, one ``[signal_structure <name>]``, and a ``[population]``
  section referencing them by name;
* a two-population scenario: as above with four distributions / two
  structures and a ``[scenario]`` section (references ``p``, ``q_i``,
  ``q_j``, ``coarse``, ``fine``).

A ``[signal_structure]`` section starts with a ``signals:`` line, an
optional ``values:`` line, then one likelihood row per type.  Blank
lines and whole-line ``#`` comments are ignored; a ``#`` after data is
data (a signal label may hold one).  ``[skill_space]`` precedes every
distribution and structure, and a file holds at most one ``[scenario]``
or ``[population]``.  A ``[firm]`` goes with a ``[scenario]`` or stands
alone: beside a ``[population]`` it is refused, and a firm-only file
holds no other section.  ``serialize_instance`` emits a canonical form
(sections in fixed order, canonical reference names, reduced fractions)
that reparses to an equal object and survives a serialize-parse-serialize
round trip byte-identically.
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

_SECTION_KINDS = ("skill_space", "distribution", "signal_structure", "firm",
                  "population", "scenario")
_NAMED_KINDS = ("distribution", "signal_structure")


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


def _parse_structure(section: _Section, space: SkillSpace, parse) -> SignalStructure:
    lines = list(section.lines)
    if not lines or not lines[0][1].startswith("signals:"):
        raise ParseError(
            f"line {section.header_line}: signal structure {section.name!r} "
            f"must start with a 'signals:' line"
        )
    lineno, line = lines.pop(0)
    labels = tuple(line.partition(":")[2].split())
    if not labels:
        raise ParseError(f"line {lineno}: empty signal list")
    values = None
    if lines and lines[0][1].startswith("values:"):
        lineno, line = lines.pop(0)
        values = tuple(_numbers(lineno, line.partition(":")[2], parse))
    if len(lines) != space.size:
        raise ParseError(
            f"line {section.header_line}: signal structure {section.name!r} "
            f"has {len(lines)} likelihood rows for {space.size} types"
        )
    rows = tuple(tuple(_numbers(n, text, parse)) for n, text in lines)
    return SignalStructure(space, labels, rows, values=values)


def loads_instance(text: str, mode: str = "rational"):
    """Parse instance text into a GapScenario, Population, or Firm."""
    check_mode(mode)
    parse = parse_exact if mode == "rational" else parse_float
    sections = _split_sections(text)
    if not sections:
        raise ParseError("empty instance file")

    space: SkillSpace | None = None
    dists: dict[str, Dist] = {}
    structs: dict[str, SignalStructure] = {}
    firm: Firm | None = None
    top: _Section | None = None  # the one [scenario] or [population]

    for sec in sections:
        if sec.kind == "skill_space":
            if space is not None:
                raise ParseError(f"line {sec.header_line}: duplicate [skill_space]")
            if len(sec.lines) != 1:
                raise ParseError(
                    f"line {sec.header_line}: [skill_space] needs exactly one line"
                )
            lineno, line = sec.lines[0]
            space = SkillSpace(tuple(_numbers(lineno, line, parse)))
        elif sec.kind == "distribution":
            if space is None:
                raise ParseError(
                    f"line {sec.header_line}: [skill_space] must precede distributions"
                )
            if sec.name in dists:
                raise ParseError(
                    f"line {sec.header_line}: duplicate distribution {sec.name!r}"
                )
            if len(sec.lines) != 1:
                raise ParseError(
                    f"line {sec.header_line}: distribution {sec.name!r} needs one line"
                )
            lineno, line = sec.lines[0]
            dists[sec.name] = Dist(space, tuple(_numbers(lineno, line, parse)))
        elif sec.kind == "signal_structure":
            if space is None:
                raise ParseError(
                    f"line {sec.header_line}: [skill_space] must precede signal structures"
                )
            if sec.name in structs:
                raise ParseError(
                    f"line {sec.header_line}: duplicate signal structure {sec.name!r}"
                )
            structs[sec.name] = _parse_structure(sec, space, parse)
        elif sec.kind == "firm":
            if firm is not None:
                raise ParseError(f"line {sec.header_line}: duplicate [firm]")
            if not sec.lines:
                raise ParseError(f"line {sec.header_line}: [firm] needs task rows")
            firm = Firm(
                tuple(Task(tuple(_numbers(n, text, parse))) for n, text in sec.lines)
            )
        else:  # population or scenario
            if top is not None:
                raise ParseError(
                    f"line {sec.header_line}: duplicate [{sec.kind}]"
                    if top.kind == sec.kind else
                    f"line {sec.header_line}: a file holds one [scenario] or "
                    "[population], not both"
                )
            top = sec
        if firm is not None and top is not None and top.kind == "population":
            raise ParseError(f"line {sec.header_line}: a [population] takes no [firm]")

    def resolve(sec, refs, key, table, what):
        if key not in refs:
            raise ParseError(f"line {sec.header_line}: [{sec.kind}] is missing {key!r}")
        name = refs[key]
        if name not in table:
            raise ParseError(
                f"line {sec.header_line}: unknown {what} {name!r} (for {key!r})"
            )
        return table[name]

    if top is not None and top.kind == "scenario":
        if firm is None:
            raise ParseError(f"line {top.header_line}: [scenario] needs a [firm]")
        refs = _key_values(top)
        extra = set(refs) - {"p", "q_i", "q_j", "coarse", "fine"}
        if extra:
            raise ParseError(
                f"line {top.header_line}: unknown scenario keys {sorted(extra)}"
            )
        return GapScenario(
            firm=firm,
            p=resolve(top, refs, "p", dists, "distribution"),
            q_i=resolve(top, refs, "q_i", dists, "distribution"),
            q_j=resolve(top, refs, "q_j", dists, "distribution"),
            coarse=resolve(top, refs, "coarse", structs, "signal structure"),
            fine=resolve(top, refs, "fine", structs, "signal structure"),
        )
    if top is not None:
        refs = _key_values(top)
        extra = set(refs) - {"p", "q", "sig"}
        if extra:
            raise ParseError(
                f"line {top.header_line}: unknown population keys {sorted(extra)}"
            )
        return Population(
            p=resolve(top, refs, "p", dists, "distribution"),
            q=resolve(top, refs, "q", dists, "distribution"),
            sig=resolve(top, refs, "sig", structs, "signal structure"),
        )
    if firm is not None:
        for sec in sections:
            if sec.kind != "firm":  # a skill space, distribution or structure
                raise ParseError(
                    f"line {sec.header_line}: a [firm] alone takes no [{sec.kind}]"
                )
        return firm
    raise ParseError("instance file has no [scenario], [population], or [firm]")


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


def _structure_block(name: str, sig: SignalStructure) -> list[str]:
    lines = [f"[signal_structure {name}]"]
    lines.append("signals: " + " ".join(_check_label(s) for s in sig.signals))
    if sig.values is not None:
        lines.append("values: " + _fmt_line(sig.values))
    lines.extend(_fmt_line(row) for row in sig.likelihood)
    return lines


def _firm_block(firm: Firm) -> list[str]:
    return ["[firm]"] + [_fmt_line(task.surplus) for task in firm.tasks]


def serialize_instance(obj) -> str:
    """Canonical text form of a GapScenario, Population, or Firm."""
    blocks: list[list[str]] = []
    if isinstance(obj, GapScenario):
        blocks.append(["[skill_space]", _fmt_line(obj.p.space.thetas)])
        for name, dist in (("p", obj.p), ("q_i", obj.q_i), ("q_j", obj.q_j)):
            blocks.append([f"[distribution {name}]", _fmt_line(dist.probs)])
        blocks.append(_structure_block("coarse", obj.coarse))
        blocks.append(_structure_block("fine", obj.fine))
        blocks.append(_firm_block(obj.firm))
        blocks.append(
            ["[scenario]", "p: p", "q_i: q_i", "q_j: q_j", "coarse: coarse",
             "fine: fine"]
        )
    elif isinstance(obj, Population):
        blocks.append(["[skill_space]", _fmt_line(obj.p.space.thetas)])
        for name, dist in (("p", obj.p), ("q", obj.q)):
            blocks.append([f"[distribution {name}]", _fmt_line(dist.probs)])
        blocks.append(_structure_block("sig", obj.sig))
        blocks.append(["[population]", "p: p", "q: q", "sig: sig"])
    elif isinstance(obj, Firm):
        blocks.append(_firm_block(obj))
    else:
        raise InputError(f"cannot serialize {type(obj).__name__}")
    return "\n\n".join("\n".join(b) for b in blocks) + "\n"


def save_instance(obj, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(serialize_instance(obj))
