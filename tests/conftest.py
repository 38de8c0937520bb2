import pytest

from esakialab.poset_core import FinitePoset

from corpus import posets_by_size

# verdict lines appended by the acceptance tests, replayed after capture ends
ACCEPTANCE_VERDICTS: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_VERDICTS:
        return
    terminalreporter.ensure_newline()
    terminalreporter.section("acceptance criteria", sep="-")
    for line in ACCEPTANCE_VERDICTS:
        terminalreporter.write_line(line)


@pytest.fixture
def p1():
    return FinitePoset(["x"], [], name="P1")


@pytest.fixture
def c2():
    return FinitePoset(["r", "m"], [("r", "m")], name="C2")


@pytest.fixture
def c3():
    return FinitePoset(["x", "y", "z"], [("x", "y"), ("y", "z")], name="C3")


@pytest.fixture
def a2():
    return FinitePoset(["u", "v"], [], name="A2")


@pytest.fixture
def fork():
    return FinitePoset(["r", "a", "b"], [("r", "a"), ("r", "b")], name="V")


@pytest.fixture
def w3():
    return FinitePoset(
        ["r", "m1", "m2", "m3"], [("r", "m1"), ("r", "m2"), ("r", "m3")], name="W3"
    )


@pytest.fixture
def diamond():
    return FinitePoset(
        ["o", "a", "b", "t"], [("o", "a"), ("o", "b"), ("a", "t"), ("b", "t")], name="D4"
    )


@pytest.fixture
def n6():
    # not regularly generated: its regulars close on 12 of the 19 upsets
    # at max rank 1. The closure charges 212: 158 through level 1 and 54
    # for the level-2 least elements, which show that it has stopped growing
    return FinitePoset(
        ["x0", "x1", "x2", "x3", "x4", "x5"],
        [("x0", "x3"), ("x0", "x4"), ("x0", "x5"), ("x1", "x3"), ("x1", "x5"), ("x2", "x4")],
        name="N6",
    )


@pytest.fixture(scope="session")
def corpus_levels():
    # one representative per isomorphism class, levels[k] has k+1 points
    return posets_by_size(7)


@pytest.fixture(scope="session")
def corpus5(corpus_levels):
    return [P for level in corpus_levels[:5] for P in level]


@pytest.fixture(scope="session")
def corpus6(corpus_levels):
    return [P for level in corpus_levels[:6] for P in level]


@pytest.fixture(scope="session")
def corpus7(corpus_levels):
    return [P for level in corpus_levels for P in level]
