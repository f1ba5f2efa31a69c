"""Derandomized property tests over D alone: the closed forms against the
bar-complex oracle, and the spec format's round trip."""

import string

from hypothesis import example, given, settings, strategies as st

from blockext.extengine import (abelian_context, ext_abelian_closed,
                                ext_abelian_oracle)
from blockext.groups import LinearChar
from blockext.specfile import (OPTION_KEYS, BlockSpec, parse_spec,
                               serialize_spec)

SETTINGS = settings(derandomize=True, deadline=None, database=None)


@st.composite
def abelian_groups(draw):
    """(p, orders) with p in {2, 3, 5}, rank 1 to 3 and |D| <= 64."""
    p = draw(st.sampled_from([2, 3, 5]))
    orders, total = [], 0
    for _ in range(draw(st.integers(1, 3))):
        room = 0
        while p ** (total + room + 1) <= 64:
            room += 1
        if not room:
            break
        orders.append(draw(st.integers(1, room)))
        total += orders[-1]
    return p, tuple(orders)


@st.composite
def character_pairs(draw):
    """(p, orders, v1, v2): a group as above and two of its characters,
    by exponent vectors."""
    p, orders = draw(abelian_groups())
    char = st.tuples(*(st.integers(0, p ** n - 1) for n in orders))
    return p, orders, draw(char), draw(char)


@settings(SETTINGS, max_examples=12)  # Ext^2 at |D| = 64: up to 2 s a run
@example(case=(3, (1, 1, 1), (1, 2, 0), (0, 1, 1)))  # rank 3 every run
@example(case=(2, (2, 1, 1), (3, 1, 0), (1, 0, 1)))
@given(case=character_pairs())
def test_closed_equals_oracle_over_d(case):
    p, orders, v1, v2 = case
    D = abelian_context(p, orders).G.D
    l1, l2 = LinearChar(D, v1), LinearChar(D, v2)
    for N in (None, max(orders) + 1):  # the default and the least precision
        for i in (0, 1, 2):
            assert ext_abelian_closed(D, l1, l2, i) == \
                ext_abelian_oracle(D, l1, l2, i, precision=N), (N, i)


NAMES = st.text(string.ascii_letters + string.digits + "-_", min_size=1,
                max_size=8)


@st.composite
def block_specs(draw):
    p, orders = draw(abelian_groups())
    t = len(orders)
    ints = st.integers(-30, 30)
    gens = []
    for name in draw(st.lists(NAMES, min_size=1, max_size=3, unique=True)):
        perm = tuple(draw(st.permutations(range(draw(st.integers(1, 6))))))
        action = tuple(tuple(draw(ints) for _ in range(t)) for _ in range(t))
        gens.append((name, perm, action))
    opts = draw(st.dictionaries(st.sampled_from(OPTION_KEYS), ints))
    return BlockSpec(draw(NAMES), p, orders, tuple(gens),
                     tuple(sorted(opts.items())))


@settings(SETTINGS, max_examples=100)
@given(spec=block_specs())
def test_spec_round_trip(spec):
    assert parse_spec(serialize_spec(spec)) == spec
