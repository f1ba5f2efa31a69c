"""Spec file grammar: round trips, rejection messages, option plumbing."""

from pathlib import Path

import pytest

from blockext.chars import build_irr_B
from blockext.errors import SpecValidationError
from blockext.extengine import ext_block
from blockext.specfile import (BlockSpec, load_spec, parse_spec,
                               serialize_spec, to_context)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

GOOD = """format: blockspec 1
name: demo
p: 3
d_orders: 1 1

[generator e]
perm: 1 2 3 0
action: -1 0; 0 1

[options]
phi_exponent: 1
precision: 4
"""


def test_parse_fields():
    s = parse_spec(GOOD)
    assert s.name == "demo" and s.p == 3 and s.d_orders == (1, 1)
    assert s.generators == (("e", (1, 2, 3, 0), ((-1, 0), (0, 1))),)
    assert s.option("precision") == 4
    assert s.option("enum_bound") is None


def test_round_trip():
    s = parse_spec(GOOD)
    assert parse_spec(serialize_spec(s)) == s


@pytest.mark.parametrize("name", ["example-a", "example-b", "example-c",
                                  "c9", "c3x3", "c3x9", "c8", "c4x4", "a4",
                                  "q8-c3xc3", "q8z-c3xc3", "c5x5-c4"])
def test_corpus_round_trip(name):
    s = load_spec(CORPUS / f"{name}.blockspec")
    assert s.name == name
    assert parse_spec(serialize_spec(s)) == s


@pytest.mark.parametrize("mangle, fragment", [
    (lambda t: t.replace("blockspec 1", "blockspec 9"), "unsupported format"),
    (lambda t: t + "extra: 3\n", "unknown option"),
    (lambda t: t.replace("name: demo", "title: demo"), "unknown key"),
    (lambda t: t.replace("[options]", "[settings]"), "unknown section"),
    (lambda t: t.replace("perm: 1 2 3 0", "perm: 1 2 x 0"), "not an integer"),
    (lambda t: t.replace("p: 3", "p: 3\np: 3"), "duplicate"),
    (lambda t: t.replace("precision: 4", "precision: 4\nprecision: 4"),
     "duplicate"),
    (lambda t: t.replace("action: -1 0; 0 1\n", ""), "needs both"),
    (lambda t: t.replace("format: blockspec 1\n", ""), "missing required"),
    (lambda t: t.replace("d_orders: 1 1", "d_orders"), "expected 'key"),
])
def test_rejections(mangle, fragment):
    with pytest.raises(SpecValidationError, match=fragment):
        parse_spec(mangle(GOOD))


def test_line_numbers_reported():
    with pytest.raises(SpecValidationError, match="line 3"):
        parse_spec("format: blockspec 1\nname: x\nwhat: 1\n")


def test_comments_and_blank_lines_ignored():
    text = "# banner\n\n" + GOOD.replace("p: 3", "p: 3   # the prime")
    assert parse_spec(text) == parse_spec(GOOD)


def test_no_generator_rejected():
    with pytest.raises(SpecValidationError, match="generator"):
        parse_spec("format: blockspec 1\nname: x\np: 3\nd_orders: 1\n")


def test_missing_file():
    with pytest.raises(SpecValidationError, match="cannot read"):
        load_spec("/nonexistent/nope.blockspec")


def test_to_context_builds_group():
    ctx = to_context(parse_spec(GOOD))
    assert ctx.G.D.order == 9 and ctx.G.E.n == 4
    assert ctx.options["precision"] == 4


def test_override_beats_spec_option():
    ctx = to_context(parse_spec(GOOD), {"precision": 9, "size_guard": 77})
    assert ctx.options["precision"] == 9
    assert ctx.options["size_guard"] == 77


def test_options_stay_the_users_and_read_only():
    ctx = to_context(parse_spec(GOOD), {"size_guard": 100000})
    irr = build_irr_B(ctx)
    ext_block(ctx, irr[0], irr[1], 2)
    # derived state goes to the cache, never into the options
    assert ctx.options == {"precision": 4, "size_guard": 100000}
    assert "irr_B" in ctx.cache
    with pytest.raises(TypeError):
        ctx.options["precision"] = 6


def test_order_bound_enforced():
    with pytest.raises(SpecValidationError, match="order bound"):
        to_context(parse_spec(GOOD), {"order_bound": 3})


def test_serialize_is_canonical():
    s = parse_spec(GOOD)
    jumbled = BlockSpec(s.name, s.p, s.d_orders, s.generators,
                        tuple(sorted(s.options, reverse=True)))
    # options re-sort on parse, so both serialize to the same canonical text
    assert parse_spec(serialize_spec(jumbled)) == s
