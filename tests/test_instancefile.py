"""Instance file parsing, validation diagnostics, and round trips."""

from fractions import Fraction as F

import pytest

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
    uninformative_structure,
)
from infopay.instancefile import (
    load_instance,
    loads_instance,
    save_instance,
    serialize_instance,
)

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
