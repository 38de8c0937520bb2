import pytest

from esakialab.poset_core import (
    FinitePoset,
    depth_width,
    make_delta0,
    make_delta1,
    make_ladder,
    make_medvedev,
)

from corpus import is_isomorphic


def test_medvedev_sizes():
    for n in range(1, 6):
        P = make_medvedev(n)
        assert len(P) == 2**n - 1
        # maximal points are exactly the singletons
        assert P.maximal_mask.bit_count() == n


def test_medvedev_two_is_the_fork(fork):
    assert is_isomorphic(make_medvedev(2), fork)


def test_medvedev_is_rooted():
    for n in range(1, 5):
        P = make_medvedev(n)
        assert any(P.up[i] == P.full_mask for i in range(len(P)))


def test_medvedev_range_errors():
    with pytest.raises(ValueError):
        make_medvedev(0)
    with pytest.raises(ValueError):
        make_medvedev(6)


def test_fan_tower_shape():
    for n in range(0, 5):
        F = make_delta0(n)
        assert len(F) == 3 * (n + 1) + 1
        assert depth_width(F) == (n + 2, 3)


def test_fan_tower_edges():
    F = make_delta0(1)
    # layer 1 points each sit under two layer 0 points, cyclically
    assert F.leq("a1", "a0") and F.leq("a1", "b0") and not F.leq("a1", "c0")
    assert F.leq("b1", "a0") and F.leq("b1", "c0") and not F.leq("b1", "b0")
    assert F.leq("c1", "b0") and F.leq("c1", "c0") and not F.leq("c1", "a0")
    assert all(F.leq("r", p) for p in F.points)
    # two layers up, a point lies under the whole layer, not under two of it
    F = make_delta0(2)
    assert F.leq("a2", "a1") and F.leq("a2", "b1") and not F.leq("a2", "c1")
    for p in ("a2", "b2", "c2"):
        assert all(F.leq(p, q) for q in ("a0", "b0", "c0"))


def test_fan_tower_rejects_negative():
    with pytest.raises(ValueError):
        make_delta0(-1)


def test_transposition_family_shape():
    for n in (3, 4, 5):
        G = make_delta1(n)
        assert len(G) == 2 * (n + 1) + 1
        assert depth_width(G) == (3, n + 1)


def test_transposition_family_misses():
    G = make_delta1(3)
    misses = {}
    for i in range(4):
        missing = [j for j in range(4) if not G.leq(f"a{i}", f"b{j}")]
        assert len(missing) == 1
        misses[i] = missing[0]
    assert misses == {0: 3, 1: 1, 2: 2, 3: 0}


def test_transposition_family_needs_three():
    with pytest.raises(ValueError):
        make_delta1(2)


def test_ladder_plain_rails():
    R0 = make_ladder("R0", 4)
    assert len(R0) == 8
    for i in range(3):
        assert R0.leq(f"a{i + 1}", f"a{i}")
        assert R0.leq(f"b{i + 1}", f"b{i}")
    # crosses reach into the opposite rail two rows up
    assert R0.leq("a2", "b0") and R0.leq("b2", "a0")
    assert R0.leq("a3", "b1") and R0.leq("b3", "a1")
    assert not R0.leq("a1", "b0") and not R0.leq("b1", "a0")


def test_ladder_single_level_is_antichain(a2):
    assert is_isomorphic(make_ladder("R0", 1), a2)
    # one row leaves nothing to hang the extra point on
    assert len(make_ladder("R1", 1)) == 2


def test_ladder_variants():
    R1 = make_ladder("R1", 8)
    assert len(R1) == 17
    assert R1.leq("a1", "c0") and R1.leq("b1", "c0")
    assert "c0" in [R1.points[i] for i in range(len(R1)) if R1.maximal_mask >> i & 1]

    R2 = make_ladder("R2", 5)
    assert len(R2) == 10 + 8
    for i in range(4):
        assert R2.leq(f"a{i + 1}", f"c{i}")
        assert R2.leq(f"b{i + 1}", f"d{i}")


def test_ladder_errors():
    with pytest.raises(ValueError):
        make_ladder("R0", 0)
    with pytest.raises(ValueError):
        make_ladder("R7", 3)


def test_family_names():
    assert make_medvedev(3).name == "medvedev3"
    assert make_delta0(2).name == "F2"
    assert make_delta1(4).name == "G4"
    assert make_ladder("R1", 8).name == "R1@8"
