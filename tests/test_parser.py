from hypothesis import given
import pytest

from piwb import (
    NIL,
    ParseError,
    MalformedSum,
    TAU,
    alpha_equivalent,
    parse,
    pretty,
)
from piwb.parser import action_text, tokenize
from piwb.syntax import (
    BoundOut,
    FreeOut,
    In,
    Input,
    Output,
    Par,
    Prefixed,
    Repl,
    Restrict,
    Sum,
    TAU_ACT,
)

from conftest import processes


def test_parse_nil():
    assert parse("0") == NIL


def test_parse_norm_example():
    p = parse("new z.(a!z.0) | a?(x).x!a.0")
    assert isinstance(p, Par)
    assert isinstance(p.left, Restrict)
    assert isinstance(p.right, Prefixed)
    assert p.right.prefix == Input("a", "x")


def test_parse_tau_chain():
    p = parse("tau.x!y.0")
    assert p == Prefixed(TAU, Prefixed(Output("x", "y"), NIL))


def test_parse_match_guards():
    p = parse("[x=y][a=a]tau.0")
    from piwb.syntax import Match

    assert p.prefix == Match("x", "y", Match("a", "a", TAU))


def test_parse_precedence():
    # prefix > + > |
    p = parse("a!a.0 + b!b.0 | c!c.0")
    assert isinstance(p, Par)
    assert isinstance(p.left, Sum)


def test_parse_replication_and_new_extend_right():
    p = parse("new z.a!z.b!z.0")
    assert isinstance(p, Restrict)
    assert free_depth(p.body) == 2
    q = parse("!a?(x).x!b.0")
    assert isinstance(q, Repl)


def free_depth(p):
    n = 0
    while isinstance(p, Prefixed):
        n += 1
        p = p.cont
    return n


def test_whitespace_and_comments():
    text = """
    # a worked example
    new z.( a!z.0 )  # trailing
      | a?(x).x!a.0
    """
    assert alpha_equivalent(parse(text), parse("new z.(a!z.0)|a?(x).x!a.0"))


def test_parse_error_span_and_expected():
    with pytest.raises(ParseError) as err:
        parse("a!b.0 +")
    assert err.value.span.start == 7
    assert err.value.expected


def test_parse_error_bad_character():
    with pytest.raises(ParseError):
        parse("a @ b")


def test_malformed_sum_surfaces_from_validate():
    with pytest.raises(MalformedSum):
        parse("new z.z!a.0 + b!b.0")


def test_reserved_words_not_names():
    with pytest.raises(ParseError):
        parse("new!a.0")
    with pytest.raises(ParseError):
        parse("tau!a.0")


def test_pretty_nil():
    assert pretty(NIL) == "0"


def test_pretty_minimal_parens():
    assert pretty(parse("(a!a.0 + b!b.0) | c!c.0")) == "a!a.0 + b!b.0 | c!c.0"
    assert pretty(parse("a?(x).(x!b.0 + tau.c!b.0)")) == "a?(v0).(v0!b.0 + tau.c!b.0)"


def test_pretty_right_nested_operators_keep_parens():
    text = pretty(Par(parse("a!a.0"), Par(parse("b!b.0"), parse("c!c.0"))))
    assert text == "a!a.0 | (b!b.0 | c!c.0)"


def test_round_trip_examples():
    for text in [
        "0",
        "new z.(a!z.0) | a?(x).x!a.0",
        "a?(x).(x!b.0 + tau.c!b.0)",
        "tau.x!y.0",
        "!a?(x).(x!b.0 | new w.w!x.0)",
        "[a=b]a!b.0 + tau.0",
    ]:
        p = parse(text)
        assert alpha_equivalent(parse(pretty(p)), p)


@given(processes())
def test_round_trip_generated(p):
    assert alpha_equivalent(parse(pretty(p)), p)


@given(processes())
def test_pretty_deterministic_for_alpha_variants(p):
    from piwb import alpha_canonical

    assert pretty(p) == pretty(alpha_canonical(p))


def test_action_text_bound_output():
    assert action_text(BoundOut("x", "z")) == "x!(z)"
    assert action_text(FreeOut("x", "y")) == "x!y"
    assert action_text(In("x", "y")) == "x?y"
    assert action_text(TAU_ACT) == "tau"


def test_tokenizer_spans():
    tokens = tokenize("a!b")
    assert [t[0] for t in tokens] == ["name", "!", "name", "eof"]
    assert tokens[1][2].start == 1


def test_pretty_of_deep_terms():
    # Rendering takes no frame per term level.
    chain = NIL
    for _ in range(3000):
        chain = Prefixed(Output("a", "a"), chain)
    assert pretty(chain) == "a!a." * 3000 + "0"
    leaf = Prefixed(Output("a", "b"), NIL)
    right = leaf
    left = leaf
    for _ in range(3000):
        right = Par(leaf, right)
        left = Sum(left, leaf)
    assert pretty(right) == "a!b.0 | (" * 2999 + "a!b.0 | a!b.0" + ")" * 2999
    assert pretty(left) == " + ".join(["a!b.0"] * 3001)
    assert pretty(Prefixed(TAU, left)) == "tau.(" + pretty(left) + ")"
