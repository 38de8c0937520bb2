import copy
import json
import pickle
import random

import pytest
from hypothesis import given, strategies as st

from esakialab.poset_core import (
    FinitePoset,
    OrderConstructionError,
    UnknownPointError,
    depth_width,
    maximal_of,
    point_depths,
)
from esakialab.poset_core.poset import collapse

from corpus import canonical_key, is_isomorphic, named_frames


def random_poset(seed: int, max_points: int = 7) -> FinitePoset:
    rnd = random.Random(seed)
    n = rnd.randint(1, max_points)
    pts = [f"x{i}" for i in range(n)]
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            # edges only go label-upward, so the relation is acyclic
            if rnd.random() < 0.4:
                pairs.append((pts[i], pts[j]))
    return FinitePoset(pts, pairs)


def test_transitive_closure_from_covers(c3):
    assert c3.leq("x", "z")
    assert c3.leq("x", "x")
    assert not c3.leq("z", "x")


def test_duplicate_points_rejected():
    with pytest.raises(OrderConstructionError):
        FinitePoset(["a", "a"], [])


def test_cycle_rejected():
    with pytest.raises(OrderConstructionError):
        FinitePoset(["a", "b"], [("a", "b"), ("b", "a")])


def test_collapse_orders_blocks_by_their_members(c3):
    # x and z share a block above y's only through x <= y and y <= z
    with pytest.raises(OrderConstructionError, match="cycle"):
        collapse(c3, [0, 1, 0], ["xz", "y"])
    Q = collapse(c3, [0, 0, 1], ["xy", "z"], name="C3/xy")
    assert Q == FinitePoset(["xy", "z"], [("xy", "z")]) and Q.name == "C3/xy"


def test_unknown_point_in_pairs_rejected():
    with pytest.raises(UnknownPointError):
        FinitePoset(["a"], [("a", "zzz")])
    with pytest.raises(UnknownPointError):
        FinitePoset(["a"], [("zzz", "a")])


def test_index_unknown_label(fork):
    with pytest.raises(UnknownPointError):
        fork.index("nope")


def test_equality_ignores_name(fork):
    twin = FinitePoset(["r", "a", "b"], [("r", "a"), ("r", "b")], name="other")
    assert fork == twin
    assert hash(fork) == hash(twin)


def test_maximal_mask(fork, c2, a2):
    assert fork.maximal_mask == (1 << fork.index("a")) | (1 << fork.index("b"))
    assert c2.maximal_mask == 1 << c2.index("m")
    assert a2.maximal_mask == a2.full_mask


def test_upsets_counts(p1, c2, fork, diamond):
    assert len(c2.upsets()) == 3
    assert len(fork.upsets()) == 5
    assert len(diamond.upsets()) == 6
    assert len(p1.upsets()) == 2


def test_upsets_are_upsets(fork):
    for u in fork.upsets():
        assert fork.is_upset(u)


def test_covers_mask(diamond):
    o = diamond.index("o")
    got = sum(1 << c for c in diamond.covers[o])
    want = (1 << diamond.index("a")) | (1 << diamond.index("b"))
    assert got == want


class _CountingRows(tuple):
    """Up-rows that count the rows read by index."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def test_covers_of_a_chain_read_one_row_per_point():
    # listed top first, the lowest point of a strict up-set is the farthest
    # one, and taking it first read every point above
    points = [f"c{i}" for i in range(300)]
    top_first = FinitePoset(points, zip(points[1:], points))
    bottom_first = FinitePoset(points, zip(points, points[1:]))
    for chain, step in ((top_first, -1), (bottom_first, 1)):
        chain.up = _CountingRows(chain.up)
        covers = chain.covers
        assert chain.up.reads == 299
        masks = tuple(sum(1 << c for c in row) for row in covers)
        assert masks == tuple(1 << i + step if 0 <= i + step < 300 else 0 for i in range(300))


def test_immediate_successors(diamond):
    a, b = diamond.index("a"), diamond.index("b")
    assert diamond.covers[diamond.index("o")] == tuple(sorted((a, b)))
    assert diamond.covers[diamond.index("t")] == ()


def test_closures_on_fixture(diamond):
    a = 1 << diamond.index("a")
    up = diamond.up_mask_of(a)
    assert up == a | (1 << diamond.index("t"))
    down = diamond.down_mask_of(a)
    assert down == a | (1 << diamond.index("o"))
    assert maximal_of(diamond, diamond.full_mask) == diamond.maximal_mask


def test_closures_reject_bits_beyond_the_poset(fork):
    for closure in (fork.up_mask_of, fork.down_mask_of, lambda m: maximal_of(fork, m)):
        with pytest.raises(UnknownPointError, match="bits beyond the poset"):
            closure(1 << len(fork))


def test_point_depths_and_shape(c3, diamond):
    d = point_depths(c3)
    assert d == {"x": 2, "y": 1, "z": 0}
    assert depth_width(c3) == (3, 1)
    assert depth_width(diamond) == (3, 2)


def test_width_takes_an_augmenting_path_longer_than_the_frame_limit():
    # a_k sits below b_k and b_(k+1), z below b_0 only: matching a_k to b_k
    # first leaves z an augmenting path through all 1,200 a's to b_1200
    n = 1200
    points = [f"b{k}" for k in range(n + 1)] + [f"a{k}" for k in range(n)] + ["z"]
    pairs = [(f"a{k}", f"b{k + d}") for k in range(n) for d in (0, 1)] + [("z", "b0")]
    assert depth_width(FinitePoset(points, pairs)) == (2, n + 1)


def test_components(fork):
    two = FinitePoset(["a", "b", "c"], [("a", "b")])
    comps = two.components()
    assert len(comps) == 2
    assert len(fork.components()) == 1


def test_induced_subposet(diamond):
    mask = diamond.full_mask & ~(1 << diamond.index("o"))
    Q = diamond.induced(mask)
    assert len(Q) == 3
    assert Q.leq("a", "t") and not Q.leq("a", "b")


def test_json_round_trip(fork):
    again = FinitePoset.from_json(fork.to_json())
    assert again == fork
    assert again.name == "V"
    obj = json.loads(fork.to_json())
    assert set(obj) == {"name", "points", "leq"}


def test_dot_output(fork):
    dot = fork.to_dot()
    assert dot.startswith('digraph "V"')
    assert '"r" -> "a";' in dot
    assert dot.count("->") == 2


def test_dot_escapes_quotes_and_backslashes(fork):
    # labels without a quote or backslash print unescaped
    assert fork.to_dot() == (
        'digraph "V" {\n  rankdir=BT;\n  "r";\n  "a";\n  "b";\n  "r" -> "a";\n  "r" -> "b";\n}\n'
    )
    P = FinitePoset(['a"b', "c\\d", "e"], [('a"b', "e")], name='x"y')
    assert P.to_dot() == (
        'digraph "x\\"y" {\n'
        "  rankdir=BT;\n"
        '  "a\\"b";\n'
        '  "c\\\\d";\n'
        '  "e";\n'
        '  "a\\"b" -> "e";\n'
        "}\n"
    )


def test_canonical_key_invariant_under_relabeling():
    P = FinitePoset(["r", "a", "b"], [("r", "a"), ("r", "b")])
    Q = FinitePoset(["b", "r", "a"], [("r", "a"), ("r", "b")])
    assert canonical_key(P) == canonical_key(Q)
    assert is_isomorphic(P, Q)
    chain = FinitePoset(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert not is_isomorphic(P, chain)


@given(st.integers(0, 2000))
def test_upset_closure_is_a_closure_operator(seed):
    P = random_poset(seed)
    rnd = random.Random(seed + 1)
    mask = rnd.randrange(1 << len(P))
    up = P.up_mask_of(mask)
    assert up & mask == mask
    assert P.up_mask_of(up) == up
    assert P.is_upset(up)


@given(st.integers(0, 2000))
def test_upset_downset_duality(seed):
    P = random_poset(seed)
    rnd = random.Random(seed + 2)
    mask = rnd.randrange(1 << len(P))
    # complement of a downset is an upset and vice versa
    down = P.down_mask_of(mask)
    assert P.is_upset(P.full_mask & ~down)
    up = P.up_mask_of(mask)
    assert P.down_mask_of(P.full_mask & ~up) == P.full_mask & ~up


@given(st.integers(0, 2000))
def test_every_point_sees_a_maximal(seed):
    P = random_poset(seed)
    for i in range(len(P)):
        assert P.m_mask(i)


def test_copies_and_pickles_pass_closed_rows(monkeypatch, fork):
    frames = named_frames() + [fork]
    closes = []
    close = FinitePoset._close

    def counted(*args):
        closes.append(args)
        return close(*args)

    monkeypatch.setattr(FinitePoset, "_close", counted)
    for P in frames:
        for Q in (copy.copy(P), copy.deepcopy(P), pickle.loads(pickle.dumps(P))):
            assert Q == P and Q is not P
            assert (Q.down, Q.name, Q.maximal_mask) == (P.down, P.name, P.maximal_mask)
    assert not closes
