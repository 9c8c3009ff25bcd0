"""Instance file parsing, validation diagnostics, and round trips."""

import io
import os
import tempfile
import time
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infopay import (
    Dist,
    Firm,
    GapScenario,
    InputError,
    ParseError,
    Population,
    SignalStructure,
    SkillSpace,
    Task,
    binary_symmetric_structure,
    narrowing_counterexamples,
    uninformative_structure,
)
from infopay.cli import main
from infopay.generators import (
    random_dist,
    random_firm,
    random_garbling_pair,
    random_signal_structure,
    random_skill_space,
    trial_rng,
)
from infopay.instancefile import (
    load_instance,
    loads_instance,
    save_instance,
    serialize_instance,
)
from infopay.numeric import parse_exact

BIN = SkillSpace((0, 1))

SCENARIO_TEXT = """\
# showcase instance
[skill_space]
0 1

[distribution p]
1/2 1/2

[distribution q_I]
0.25 3/4

[distribution q_J]
3/4 1/4

[signal_structure coarse]
signals: s0 s1
values: 0 1
9/13 4/13
4/13 9/13

[signal_structure fine]
signals: s0 s1
values: 0 1
4/5 1/5
1/5 4/5

[firm]
0 1
-4 4

[scenario]
p: p
q_i: q_I
q_j: q_J
coarse: coarse
fine: fine
"""


def showcase_scenario() -> GapScenario:
    return GapScenario(
        firm=Firm((Task((0, 1)), Task((-4, 4)))),
        p=Dist(BIN, (F(1, 2), F(1, 2))),
        q_i=Dist(BIN, (F(1, 4), F(3, 4))),
        q_j=Dist(BIN, (F(3, 4), F(1, 4))),
        coarse=binary_symmetric_structure(BIN, F(9, 13)),
        fine=binary_symmetric_structure(BIN, F(4, 5)),
    )


def test_scenario_parses_exactly():
    scenario = loads_instance(SCENARIO_TEXT)
    assert scenario == showcase_scenario()
    assert isinstance(scenario.q_i.probs[0], F)  # decimal text stays exact


def test_serialize_parse_round_trip_is_byte_identical():
    scenario = showcase_scenario()
    text = serialize_instance(scenario)
    assert loads_instance(text) == scenario
    assert serialize_instance(loads_instance(text)) == text


def test_population_round_trip():
    pop = Population(
        p=Dist(BIN, (F(1, 2), F(1, 2))),
        q=Dist(BIN, (F(1, 4), F(3, 4))),
        sig=uninformative_structure(BIN),
    )
    text = serialize_instance(pop)
    assert loads_instance(text) == pop
    assert serialize_instance(loads_instance(text)) == text


def test_firm_round_trip():
    firm = Firm((Task((0, 1, 2)), Task((-1, 0, 4))))
    text = serialize_instance(firm)
    assert loads_instance(text) == firm
    assert serialize_instance(loads_instance(text)) == text


def test_file_round_trip(tmp_path):
    path = str(tmp_path / "scenario.txt")
    save_instance(showcase_scenario(), path)
    assert load_instance(path) == showcase_scenario()


def test_non_utf8_file_names_file_and_byte(tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes("[firm]\n0 1\n# caf\u00e9\n".encode("latin-1"))
    with pytest.raises(ParseError, match=r"latin1\.txt: not UTF-8 text at byte 16$"):
        load_instance(str(path))


def test_crlf_file_loads(tmp_path):
    path = tmp_path / "crlf.txt"
    path.write_bytes(serialize_instance(showcase_scenario()).replace("\n", "\r\n").encode())
    assert load_instance(str(path)) == showcase_scenario()


def test_float_mode_parses_floats():
    pop = loads_instance(
        "[skill_space]\n0 1\n"
        "[distribution p]\n1/2 1/2\n"
        "[distribution q]\n1/4 3/4\n"
        "[signal_structure sig]\nsignals: u0\n1\n1\n"
        "[population]\np: p\nq: q\nsig: sig\n",
        mode="float",
    )
    assert isinstance(pop.p.probs[0], float)
    assert pop.q.probs == (0.25, 0.75)


@pytest.mark.parametrize("token", ["inf", "-inf", "nan", "1e400", "1" + "0" * 400 + "/3"])
def test_float_mode_rejects_non_finite(token):
    with pytest.raises(ParseError, match="line 2: not a number"):
        loads_instance(f"[firm]\n0 {token}\n", mode="float")


def test_data_outside_section():
    with pytest.raises(ParseError, match="line 1"):
        loads_instance("1/2 1/2\n")


def test_unknown_section_kind():
    with pytest.raises(ParseError, match="unknown section kind"):
        loads_instance("[bogus]\n1 2\n")


def test_bad_number_names_line():
    with pytest.raises(ParseError, match="line 2.*1/x"):
        loads_instance("[skill_space]\n0 1/x\n")


@pytest.mark.parametrize(
    "text, value",
    [
        ("1e-10000", F(1, 10**10000)),  # the largest exponent accepted
        ("2.5E+3", 2500),
        ("-1_0e-0_2", F(-1, 10)),
        ("0.000125", F(1, 8000)),
        ("3/4", F(3, 4)),
    ],
)
def test_decimal_numbers_parse_as_before(text, value):
    assert parse_exact(text) == value


@pytest.mark.parametrize("text", ["1e10001", "1e-100000000", "-2.5E+99999999999"])
def test_huge_exponents_are_refused_before_building(text):
    start = time.perf_counter()
    with pytest.raises(InputError, match="exponent larger than 10000 in size"):
        parse_exact(text)
    assert time.perf_counter() - start < 1


def test_huge_exponent_in_a_file_exits_2_at_once(tmp_path, capsys):
    path = tmp_path / "huge.inst"
    path.write_text(SCENARIO_TEXT.replace("0.25 3/4", "1e-100000000 3/4"))
    start = time.perf_counter()
    assert main(["check", str(path), "--claim", "invariants"]) == 2
    assert time.perf_counter() - start < 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert err == "error: line 9: not a number: '1e-100000000'\n"


def test_non_stochastic_row_names_type():
    text = (
        "[skill_space]\n0 1\n"
        "[distribution p]\n1/2 1/2\n"
        "[distribution q]\n1/4 3/4\n"
        "[signal_structure sig]\nsignals: a b\n1/2 1/2\n2/3 2/3\n"
        "[population]\np: p\nq: q\nsig: sig\n"
    )
    with pytest.raises(InputError, match="type index 1"):
        loads_instance(text)


def test_missing_scenario_key():
    text = SCENARIO_TEXT.replace("fine: fine\n", "")
    with pytest.raises(ParseError, match="missing 'fine'"):
        loads_instance(text)


def test_unknown_reference():
    text = SCENARIO_TEXT.replace("fine: fine", "fine: nope")
    with pytest.raises(ParseError, match="unknown signal structure 'nope'"):
        loads_instance(text)


def test_duplicate_distribution():
    text = SCENARIO_TEXT.replace("[distribution q_J]", "[distribution q_I]")
    with pytest.raises(ParseError, match="duplicate distribution"):
        loads_instance(text)


def test_row_count_mismatch():
    text = SCENARIO_TEXT.replace("4/13 9/13\n\n[signal_structure fine]",
                                 "\n[signal_structure fine]", 1)
    with pytest.raises(ParseError, match="1 likelihood rows for 2 types"):
        loads_instance(text)


def test_no_terminal_section():
    with pytest.raises(ParseError, match="no \\[scenario\\]"):
        loads_instance("[skill_space]\n0 1\n")


def population_text() -> str:
    s = showcase_scenario()
    return serialize_instance(Population(s.p, s.q_i, s.coarse))


def next_line(text: str) -> int:
    return text.count("\n") + 1


SCENARIO_HEAD, SCENARIO_SECTION = SCENARIO_TEXT.split("[scenario]")
SCENARIO_SECTION = "[scenario]" + SCENARIO_SECTION
FIRM_SECTION = "[firm]\n0 1\n-4 4\n"
POPULATION_HEAD = SCENARIO_HEAD.replace(FIRM_SECTION, "")  # no [firm]
POPULATION_SECTION = "[population]\np: p\nq: q_I\nsig: fine\n"

# (a valid file, a valid section appended to it, the refusal at the
# section's header line); the later section used to win, or the scenario
REFUSED_TOP_SECTIONS = {
    "second-scenario": (
        SCENARIO_TEXT, SCENARIO_SECTION.replace("q_I\n", "q_J\n", 1),
        "duplicate [scenario]",
    ),
    "second-population": (
        population_text(), "[population]\np: q\nq: p\nsig: sig\n",
        "duplicate [population]",
    ),
    "population-after-scenario": (
        SCENARIO_TEXT, POPULATION_SECTION,
        "a file holds one [scenario] or [population], not both",
    ),
    "scenario-after-population": (
        POPULATION_HEAD + POPULATION_SECTION, SCENARIO_SECTION,
        "a file holds one [scenario] or [population], not both",
    ),
}


@pytest.mark.parametrize("case", REFUSED_TOP_SECTIONS, ids=str)
def test_one_scenario_or_population_per_file(case):
    text, extra, message = REFUSED_TOP_SECTIONS[case]
    loads_instance(text)
    with pytest.raises(ParseError) as exc:
        loads_instance(text + extra)
    assert str(exc.value) == f"line {next_line(text)}: {message}"


STRUCTURE = "[signal_structure sig]\nsignals: a b\n1 0\n0 1\n"
DISTRIBUTION = "[distribution p]\n1/2 1/2\n"
POPULATION_BODY = (
    STRUCTURE + DISTRIBUTION + "[distribution q]\n1/4 3/4\n"
    "[population]\np: p\nq: q\nsig: sig\n"
)


@pytest.mark.parametrize(
    "section, what",
    [(STRUCTURE, "signal structures"), (DISTRIBUTION, "distributions")],
    ids=["structure", "distribution"],
)
def test_skill_space_precedes_structures_and_distributions(section, what):
    # after [skill_space] the section parses (here first in a population);
    # before it, its header line is refused, ahead of any later section
    loads_instance("[skill_space]\n0 1\n" + section + POPULATION_BODY.replace(section, ""))
    text = "[firm]\n0 1\n" + section + "[skill_space]\n0 1\n[firm]\n0 1\n"
    with pytest.raises(ParseError) as exc:
        loads_instance(text)
    assert str(exc.value) == f"line 3: [skill_space] must precede {what}"


# (a file, the refusal); each used to load, dropping the firm or the
# sections a firm-only file has no use for
REFUSED_FIRMS = {
    "firm-after-population": (
        population_text() + FIRM_SECTION,
        f"line {next_line(population_text())}: a [population] takes no [firm]",
    ),
    "population-after-firm": (
        SCENARIO_HEAD + POPULATION_SECTION,
        f"line {next_line(SCENARIO_HEAD)}: a [population] takes no [firm]",
    ),
    "firm-with-skill-space": (
        FIRM_SECTION + "[skill_space]\n0 1\n",
        "line 4: a [firm] alone takes no [skill_space]",
    ),
    "firm-with-distribution": (
        "[skill_space]\n0 1\n" + DISTRIBUTION + FIRM_SECTION,
        "line 1: a [firm] alone takes no [skill_space]",
    ),
    "firm-with-structure": (
        FIRM_SECTION + "[skill_space]\n0 1\n" + STRUCTURE,
        "line 4: a [firm] alone takes no [skill_space]",
    ),
}


@pytest.mark.parametrize("case", REFUSED_FIRMS, ids=str)
def test_firm_goes_with_a_scenario_or_alone(case):
    text, message = REFUSED_FIRMS[case]
    with pytest.raises(ParseError) as exc:
        loads_instance(text)
    assert str(exc.value) == message


def test_only_whole_line_comments_are_ignored():
    assert loads_instance("# a firm\n[firm]\n  # flat\n0 1\n") == Firm((Task((0, 1)),))
    # a '#' after data is data: signal labels may hold one
    with pytest.raises(ParseError, match="line 2: not a number: '#'"):
        loads_instance("[firm]\n0 1  # flat\n")
    pop = loads_instance(population_text().replace("signals: s0 s1", "signals: #0 s#1"))
    assert pop.sig.signals == ("#0", "s#1")
    assert loads_instance(serialize_instance(pop)) == pop


REFUSED_FILES = {
    **{
        case: (text + extra, f"line {next_line(text)}: {message}")
        for case, (text, extra, message) in REFUSED_TOP_SECTIONS.items()
    },
    **REFUSED_FIRMS,
    # a structure no section names, refused only for its place
    "structure-before-skill-space": (
        STRUCTURE.replace(" sig]", " early]") + population_text(),
        "line 1: [skill_space] must precede signal structures",
    ),
}


@pytest.mark.parametrize("case", REFUSED_FILES, ids=str)
def test_refused_file_exits_2_with_one_error_line(case, tmp_path, capsys):
    text, message = REFUSED_FILES[case]
    path = tmp_path / "refused.inst"
    path.write_text(text)
    assert main(["check", str(path), "--claim", "invariants"]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")



# -- every refusal of the parser, pinned ----------------------------------------

POPULATION_TEXT = (
    "[skill_space]\n0 1\n"  # lines 1-2
    "[distribution p]\n1/2 1/2\n"  # lines 3-4
    "[distribution q]\n1/4 3/4\n"  # lines 5-6
    "[signal_structure sig]\nsignals: a b\n1 0\n0 1\n"  # lines 7-10
    "[population]\np: p\nq: q\nsig: sig\n"  # lines 11-14
)
POP = POPULATION_TEXT
NO_FIRM = SCENARIO_TEXT.replace(FIRM_SECTION, "")  # its [scenario] on line 27

# (a file, its exact refusal); SCENARIO_TEXT has [firm] on line 26 and
# [scenario] on line 30.  Several cases pin which of two faults is named.
# A refusal that quotes a number gives (rational, float) messages: each
# mode quotes the number in its own notation.
REFUSALS = {
    "empty-file": ("", "empty instance file"),
    "comments-only": ("# nothing\n\n  # here\n", "empty instance file"),
    "data-outside-any-section": ("0 1\n[firm]\n0 1\n", "line 1: data outside any section"),
    "malformed-header": ("[firm\n0 1\n", "line 1: malformed section header '[firm'"),
    "empty-header": ("[ ]\n0 1\n", "line 1: unknown section kind ''"),
    "unknown-kind": ("[firms]\n0 1\n", "line 1: unknown section kind 'firms'"),
    "unnamed-distribution": (
        POP.replace("[distribution q]", "[distribution]"),
        "line 5: section [distribution] needs a name",
    ),
    "unnamed-structure": (
        POP.replace(" sig]", "]"), "line 7: section [signal_structure] needs a name",
    ),
    "named-firm": ("[firm f]\n0 1\n", "line 1: section [firm] takes no name"),
    "named-population": (
        POP.replace("[population]", "[population all]"),
        "line 11: section [population] takes no name",
    ),
    "not-a-number": ("[firm]\n0 1\n1 x\n", "line 3: not a number: 'x'"),
    "no-top-section": (
        "[skill_space]\n0 1\n[distribution p]\n1/2 1/2\n",
        "instance file has no [scenario], [population], or [firm]",
    ),
    "duplicate-skill-space": (
        POP.replace("[distribution q]", "[skill_space]\n0 1\n[distribution q]"),
        "line 5: duplicate [skill_space]",
    ),
    "skill-space-two-lines": (
        POP.replace("0 1\n", "0 1\n0 1\n", 1), "line 1: [skill_space] needs exactly one line",
    ),
    "skill-space-no-line": (
        POP.replace("0 1\n", "", 1), "line 1: [skill_space] needs exactly one line",
    ),
    "distribution-before-skill-space": (
        "[distribution p]\n1/2 1/2\n" + POP, "line 1: [skill_space] must precede distributions",
    ),
    "structure-before-skill-space": (
        "[signal_structure s]\nsignals: a\n" + POP,
        "line 1: [skill_space] must precede signal structures",
    ),
    "duplicate-distribution": (
        POP.replace("[distribution q]", "[distribution p]"), "line 5: duplicate distribution 'p'",
    ),
    "duplicate-distribution-before-its-lines": (
        POP.replace("[distribution q]\n1/4 3/4", "[distribution p]\n1/4 3/4\n1/4 3/4"),
        "line 5: duplicate distribution 'p'",
    ),
    "distribution-two-lines": (
        POP.replace("1/4 3/4\n", "1/4 3/4\n1/4 3/4\n"), "line 5: distribution 'q' needs one line",
    ),
    "distribution-no-line": (
        POP.replace("1/4 3/4\n", ""), "line 5: distribution 'q' needs one line",
    ),
    "duplicate-structure": (
        POP.replace("[population]", "[signal_structure sig]\nsignals: a\n1\n1\n[population]"),
        "line 11: duplicate signal structure 'sig'",
    ),
    "structure-without-signals": (
        POP.replace("signals: a b\n", ""),
        "line 7: signal structure 'sig' must start with a 'signals:' line",
    ),
    "structure-values-before-signals": (
        POP.replace("signals: a b\n", "values: 0 1\nsignals: a b\n"),
        "line 7: signal structure 'sig' must start with a 'signals:' line",
    ),
    "empty-signal-list": (POP.replace("signals: a b", "signals:"), "line 8: empty signal list"),
    "structure-row-missing": (
        POP.replace("0 1\n[population]", "[population]"),
        "line 7: signal structure 'sig' has 1 likelihood rows for 2 types",
    ),
    "structure-row-extra": (
        POP.replace("0 1\n[population]", "0 1\n0 1\n[population]"),
        "line 7: signal structure 'sig' has 3 likelihood rows for 2 types",
    ),
    "values-not-a-number": (
        POP.replace("signals: a b\n", "signals: a b\nvalues: 0 y\n"), "line 9: not a number: 'y'",
    ),
    "duplicate-firm": (
        SCENARIO_TEXT.replace("[scenario]", FIRM_SECTION + "[scenario]"),
        "line 30: duplicate [firm]",
    ),
    "firm-without-rows": ("[firm]\n", "line 1: [firm] needs task rows"),
    "duplicate-population": (
        POP + "[population]\np: q\nq: p\nsig: sig\n", "line 15: duplicate [population]",
    ),
    "duplicate-scenario": (
        SCENARIO_TEXT + SCENARIO_SECTION, "line 36: duplicate [scenario]",
    ),
    "scenario-after-population": (
        POP + "[scenario]\n", "line 15: a file holds one [scenario] or [population], not both",
    ),
    "population-takes-no-firm": (
        POP + FIRM_SECTION, "line 15: a [population] takes no [firm]",
    ),
    "firm-rows-before-the-population-rule": (
        POP + "[firm]\n", "line 15: [firm] needs task rows",
    ),
    "scenario-needs-a-firm": (NO_FIRM, "line 27: [scenario] needs a [firm]"),
    "scenario-needs-a-firm-before-its-keys": (
        NO_FIRM.replace("p: p", "p p"), "line 27: [scenario] needs a [firm]",
    ),
    "expected-key-name": (POP.replace("q: q", "q q"), "line 13: expected 'key: name', got 'q q'"),
    "empty-reference": (POP.replace("q: q", "q:"), "line 13: empty reference for 'q'"),
    "duplicate-key": (POP.replace("sig: sig", "q: q"), "line 14: duplicate key 'q'"),
    "duplicate-key-before-unknown-keys": (
        POP.replace("sig: sig", "z: p\nq: q"), "line 15: duplicate key 'q'",
    ),
    "unknown-population-keys": (
        POP + "z: p\nfine: sig\n", "line 11: unknown population keys ['fine', 'z']",
    ),
    "unknown-scenario-keys": (
        SCENARIO_TEXT + "q: p\n", "line 30: unknown scenario keys ['q']",
    ),
    "unknown-keys-before-missing-ones": (
        POP.replace("sig: sig", "s: sig"), "line 11: unknown population keys ['s']",
    ),
    "population-missing-key": (
        POP.replace("sig: sig\n", ""), "line 11: [population] is missing 'sig'",
    ),
    "scenario-missing-key": (
        SCENARIO_TEXT.replace("q_j: q_J\n", ""), "line 30: [scenario] is missing 'q_j'",
    ),
    "unknown-distribution": (
        POP.replace("q: q", "q: r"), "line 11: unknown distribution 'r' (for 'q')",
    ),
    "unknown-signal-structure": (
        SCENARIO_TEXT.replace("coarse: coarse", "coarse: sig"),
        "line 30: unknown signal structure 'sig' (for 'coarse')",
    ),
    "reference-to-another-kind": (
        POP.replace("sig: sig", "sig: p"), "line 11: unknown signal structure 'p' (for 'sig')",
    ),
    "unknown-before-a-later-missing-key": (
        SCENARIO_TEXT.replace("p: p", "p: nope").replace("fine: fine\n", ""),
        "line 30: unknown distribution 'nope' (for 'p')",
    ),
    "missing-before-a-later-unknown-key": (
        SCENARIO_TEXT.replace("p: p\n", "").replace("fine: fine", "fine: nope"),
        "line 30: [scenario] is missing 'p'",
    ),
    "firm-alone-with-skill-space": (
        "[firm]\n0 1\n[skill_space]\n0 1\n", "line 3: a [firm] alone takes no [skill_space]",
    ),
    # a value class refuses what a section holds: its header line is named
    "skill-levels-not-increasing": (
        POP.replace("0 1\n", "1 0\n", 1), "line 1: skill levels must be strictly increasing",
    ),
    "one-type-skill-space": (
        "[skill_space]\n0\n[firm]\n0\n", "line 1: skill space needs at least two types",
    ),
    "distribution-entries-for-types": (
        POP.replace("1/4 3/4", "1/4 1/4 1/2"), "line 5: distribution has 3 entries for 2 types",
    ),
    "distribution-sum": (
        POP.replace("1/4 3/4", "1/4 1/4"),
        ("line 5: distribution: entries sum to 1/2, expected 1",
         "line 5: distribution: entries sum to 0.5, expected 1"),
    ),
    "distribution-negative-entry": (
        POP.replace("1/4 3/4", "-1/4 5/4"),
        ("line 5: distribution: entry 0 is negative (-1/4)",
         "line 5: distribution: entry 0 is negative (-0.25)"),
    ),
    "likelihood-row-width": (
        POP.replace("0 1\n[population]", "0 1 0\n[population]"),
        "line 7: likelihood row for type index 1 has wrong width",
    ),
    "duplicate-signal-labels": (
        POP.replace("signals: a b", "signals: a a"), "line 7: signal labels must be unique",
    ),
    "signal-values-not-increasing": (
        POP.replace("signals: a b\n", "signals: a b\nvalues: 1 0\n"),
        "line 7: signal values must be strictly increasing",
    ),
    "zero-likelihood-signal": (
        POP.replace("signals: a b\n1 0\n0 1", "signals: a b c\n1 0 0\n0 1 0"),
        "line 7: signal 'c' has zero likelihood everywhere",
    ),
    "firm-rows-of-two-widths": (
        "[firm]\n0 1\n0 1 2\n", "line 1: all tasks in a firm must cover the same types",
    ),
    "scenario-firm-width": (
        SCENARIO_TEXT.replace(FIRM_SECTION, "[firm]\n0 1 2\n"),
        "line 29: firm tasks and scenario cover different type counts",
    ),
    "scenario-perception-without-full-support": (
        SCENARIO_TEXT.replace("0.25 3/4", "0 1"), "line 30: q_i distribution must have full support",
    ),
    "population-truth-without-full-support": (
        POP.replace("1/2 1/2", "1 0"), "line 11: true distribution must have full support",
    ),
    "population-perception-without-full-support": (
        POP.replace("1/4 3/4", "0 1"), "line 11: perceived distribution must have full support",
    ),
}


@pytest.mark.parametrize("case", REFUSALS, ids=str)
def test_refusal_is_pinned_to_its_line(case, tmp_path, capsys):
    text, message = REFUSALS[case]
    messages = (message, message) if isinstance(message, str) else message
    for mode, want in zip(("rational", "float"), messages):
        with pytest.raises(InputError) as exc:
            loads_instance(text, mode=mode)
        assert str(exc.value) == want
    path = tmp_path / "refused.inst"
    path.write_text(text)
    assert main(["check", str(path), "--claim", "invariants"]) == 2
    assert capsys.readouterr() == ("", f"error: {messages[0]}\n")

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_readme_instance_samples_load():
    # every fenced block of README's "Instance files" section is a file
    # that loads, in both modes
    with open(README, encoding="utf-8") as fh:
        section = fh.read().split("\n## Instance files\n", 1)[1].split("\n## ", 1)[0]
    blocks = section.split("```")[1::2]
    assert blocks
    for block in blocks:
        for mode in ("rational", "float"):
            assert isinstance(loads_instance(block, mode=mode), GapScenario)


# -- properties ------------------------------------------------------------------

SEEDS = st.integers(0, 2**32 - 1)
MODES = st.sampled_from(("rational", "float"))


def random_instance(seed, kind, mode):
    rng = trial_rng(seed, 0)
    space = random_skill_space(rng)
    obj = random_firm(rng, space.size)
    if kind != "firm":
        p, q, q_j = (random_dist(rng, space) for _ in range(3))
        sig = random_signal_structure(rng, space)
        if seed % 2 == 0:
            sig = SignalStructure(
                sig.space, sig.signals, sig.likelihood, tuple(range(sig.n_signals))
            )
        obj = Population(p, q, sig)
        if kind == "scenario":
            fine, coarse, _ = random_garbling_pair(rng, space)
            obj = GapScenario(random_firm(rng, space.size), p, q, q_j, coarse, fine)
    return obj if mode == "rational" else obj.to_float()


@given(SEEDS, st.sampled_from(("firm", "population", "scenario")), MODES)
@settings(max_examples=60, deadline=None)
def test_serialize_then_parse_gives_back_the_instance(seed, kind, mode):
    obj = random_instance(seed, kind, mode)
    text = serialize_instance(obj)
    back = loads_instance(text, mode=mode)
    assert back == obj
    assert serialize_instance(back) == text


NOT_NUMBERS = ("x", "1/0", "nan", "inf", "1//2", "--1", "0x10", "1,5", "\u00bd")


@st.composite
def malformed_texts(draw):
    """A valid scenario's text with one edit that no valid file has."""
    seed, mode = draw(SEEDS), draw(MODES)
    lines = serialize_instance(random_instance(seed, "scenario", mode)).splitlines()
    numeric = [
        i for i, line in enumerate(lines)
        if (line and not line.startswith("[") and ":" not in line)
        or line.startswith("values:")
    ]
    headers = [i for i, line in enumerate(lines) if line.startswith("[")]
    edit = draw(st.sampled_from(("token", "extra", "drop", "header", "outside")))
    if edit == "token":  # one number becomes a non-number
        i = draw(st.sampled_from(numeric))
        tokens = lines[i].split()
        k = draw(st.integers(1 if tokens[0] == "values:" else 0, len(tokens) - 1))
        tokens[k] = draw(st.sampled_from(NOT_NUMBERS))
        lines[i] = " ".join(tokens)
    elif edit == "extra":  # one numeric line gets one entry too many
        i = draw(st.sampled_from(numeric))
        lines[i] += " " + lines[i].split()[-1]
    elif edit == "drop":  # a number or reference line goes missing; not a
        # firm row, since a firm with one task fewer is still valid
        firm = lines.index("[firm]")
        i = draw(st.sampled_from([
            i for i, line in enumerate(lines)
            if line and not line.startswith(("[", "signals:", "values:"))
            and not firm < i < lines.index("", firm)
        ]))
        del lines[i]
    elif edit == "header":  # one section header is mangled
        i = draw(st.sampled_from(headers))
        lines[i] = draw(st.sampled_from(("[", lines[i][:-1], "[nonsense]",
                                         "[distribution]", "[firm extra]")))
    else:  # data before any section
        lines.insert(0, draw(st.sampled_from(("0 1", "p: p", "x"))))
    return "\n".join(lines) + "\n", mode


@given(malformed_texts())
@settings(max_examples=150, deadline=None)
def test_malformed_text_raises_input_error(case):
    text, mode = case
    with pytest.raises(InputError):
        loads_instance(text, mode=mode)


@given(st.text(st.sampled_from("[]#:/.-e \n0123456789abdfilnoprstuvy_"), max_size=200),
       MODES)
@settings(max_examples=200, deadline=None)
def test_arbitrary_text_parses_or_raises_input_error(text, mode):
    try:
        loads_instance(text, mode=mode)
    except InputError:
        pass


@given(malformed_texts())
@settings(max_examples=25, deadline=None)
def test_malformed_file_exits_2_through_cli(case):
    text, mode = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "bad.inst")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        with mock.patch("sys.stdout", new_callable=io.StringIO) as out, \
                mock.patch("sys.stderr", new_callable=io.StringIO) as err:
            code = main(["--mode", mode, "check", path, "--claim", "invariants"])
    assert code == 2
    assert out.getvalue() == ""
    assert err.getvalue().startswith("error: ")


def assert_float_parse_is_the_twin(text):
    # check --mode float judges the doubles the float suites judge
    twin = loads_instance(text).to_float()
    floats = loads_instance(text, mode="float")
    assert floats == twin
    assert repr(floats) == repr(twin)


@given(SEEDS, st.sampled_from(("firm", "population", "scenario")))
@settings(max_examples=60, deadline=None)
def test_float_parse_is_the_twin_of_the_exact_parse(seed, kind):
    assert_float_parse_is_the_twin(serialize_instance(random_instance(seed, kind, "rational")))


@pytest.mark.parametrize("counterexample", narrowing_counterexamples(), ids=lambda c: c.name)
def test_float_parse_of_a_counterexample_is_its_twin(counterexample):
    assert_float_parse_is_the_twin(serialize_instance(counterexample.scenario))
