"""Tests for the KQML message model and wire syntax."""

import re

import pytest
from hypothesis import given, strategies as st

from repro.kqml import (
    KqmlError,
    KqmlMessage,
    KqmlParseError,
    PERFORMATIVES,
    Performative,
    dumps,
    loads,
    parse_sexpr,
    render_sexpr,
)


SEXPR_ATOMS = (
    st.text(max_size=8)
    | st.sampled_from(["ask-all", ":content", "42", "-1.5", "nan", "()", 'a"b', "a\\b", ""])
    | st.integers()
    | st.floats()
    | st.booleans()
)
SEXPR_TREES = st.recursive(SEXPR_ATOMS, lambda children: st.lists(children, max_size=5),
                           max_leaves=40)


def reference_render(expr):
    """The recursive renderer the iterative one replaced."""
    if isinstance(expr, list):
        return "(" + " ".join(reference_render(e) for e in expr) + ")"
    if isinstance(expr, bool):
        return "true" if expr else "false"
    if isinstance(expr, (int, float)):
        return repr(expr)
    if expr and re.fullmatch(r"""[^\s()"]+""", expr):
        try:
            float(expr)
        except ValueError:
            return expr
    escaped = expr.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def ask(content="select * from C2", **kw):
    defaults = dict(sender="user1", receiver="broker1", language="SQL 2.0")
    defaults.update(kw)
    return KqmlMessage(Performative.ASK_ALL, content=content, **defaults)


class TestMessage:
    def test_requires_sender_and_receiver(self):
        with pytest.raises(KqmlError):
            KqmlMessage(Performative.TELL, sender="", receiver="b")
        with pytest.raises(KqmlError):
            KqmlMessage(Performative.TELL, sender="a", receiver="")

    def test_performative_type_checked(self):
        with pytest.raises(KqmlError):
            KqmlMessage("ask-all", sender="a", receiver="b")

    def test_ask_gets_fresh_reply_with(self):
        a, b = ask(), ask()
        assert a.reply_with and b.reply_with
        assert a.reply_with != b.reply_with

    def test_tell_gets_no_automatic_reply_with(self):
        m = KqmlMessage(Performative.TELL, sender="a", receiver="b")
        assert m.reply_with is None

    def test_reply_threads_conversation(self):
        query = ask()
        answer = query.reply(Performative.TELL, content="rows")
        assert answer.sender == "broker1"
        assert answer.receiver == "user1"
        assert answer.in_reply_to == query.reply_with
        assert answer.language == "SQL 2.0"

    def test_reply_with_extras(self):
        answer = ask().reply(Performative.TELL, content="x", hops=3)
        assert answer.extra("hops") == 3
        assert answer.extra("missing", "default") == "default"

    def test_forward_to(self):
        query = ask()
        forwarded = query.forward_to("broker2")
        assert forwarded.receiver == "broker2"
        assert forwarded.sender == "broker1"
        assert forwarded.content == query.content
        assert forwarded.reply_with == query.reply_with

    def test_expects_reply(self):
        assert ask().expects_reply()
        assert not ask().reply(Performative.TELL).expects_reply()

    def test_extras_mapping_normalized(self):
        m = KqmlMessage(Performative.TELL, sender="a", receiver="b",
                        extras={"z": 1, "a": 2})
        assert m.extras == (("a", 2), ("z", 1))


class TestSexpr:
    def test_parse_atoms(self):
        assert parse_sexpr("hello") == "hello"
        assert parse_sexpr("42") == 42
        assert parse_sexpr("-1.5") == -1.5

    def test_parse_nested(self):
        assert parse_sexpr("(a (b 1) c)") == ["a", ["b", 1], "c"]

    def test_parse_string_with_escapes(self):
        assert parse_sexpr(r'"say \"hi\""') == 'say "hi"'

    def test_parse_errors(self):
        for bad in ["(a", "a)", '"unterminated', "(a) b", ""]:
            with pytest.raises(KqmlParseError):
                parse_sexpr(bad)

    def test_parse_error_messages(self):
        for bad, message in [("(a", "unterminated list"),
                             ("", "unexpected end of input"),
                             (")", "unbalanced ')'"),
                             ("(a (b", "unterminated list")]:
            with pytest.raises(KqmlParseError, match=re.escape(message)):
                parse_sexpr(bad)

    @pytest.mark.parametrize("depth", [5_000, 200_000])
    def test_deep_nesting_parses_or_raises_parse_error(self, depth):
        """Regression: the recursive parser hit RecursionError at depth
        5,000.  Deep input must parse, or fail as a KqmlParseError —
        through parse_sexpr and through loads."""
        nested = "(" * depth + "leaf" + ")" * depth
        expr = parse_sexpr(nested)
        for _ in range(depth):
            assert isinstance(expr, list) and len(expr) == 1
            expr = expr[0]
        assert expr == "leaf"
        for bad in ("(" * depth, "(" * depth + ")" * (depth + 1)):
            with pytest.raises(KqmlParseError):
                parse_sexpr(bad)
        message = loads(f"(tell :sender a :receiver b :content {nested})")
        assert message.sender == "a" and isinstance(message.content, list)
        for bad in (nested, "(tell :sender a :content " + "(" * depth):
            with pytest.raises(KqmlParseError):
                loads(bad)

    def test_render_roundtrip(self):
        expr = ["ask-all", ":content", "select * from C2", ":n", 3]
        assert parse_sexpr(render_sexpr(expr)) == expr

    def test_render_quotes_strings_with_spaces(self):
        assert render_sexpr("two words") == '"two words"'
        assert render_sexpr("oneword") == "oneword"

    @given(SEXPR_TREES)
    def test_render_matches_recursive_reference(self, expr):
        """The iterative renderer writes exactly what the recursive one
        did: journal lines and wire text depend on it."""
        assert render_sexpr(expr) == reference_render(expr)

    @given(SEXPR_TREES)
    def test_render_parse_render_is_stable(self, expr):
        text = render_sexpr(expr)
        assert render_sexpr(parse_sexpr(text)) == text

    @pytest.mark.parametrize("depth", [5_000, 200_000])
    def test_deep_nesting_renders(self, depth):
        """Regression: the recursive renderer hit RecursionError at
        depth 5,000 on content that parse_sexpr accepts."""
        text = "(" * depth + "leaf" + ")" * depth
        assert render_sexpr(parse_sexpr(text)) == text
        message = loads(f"(tell :sender a :receiver b :content {text})")
        assert dumps(message) == f"(tell :sender a :receiver b :content {text})"

    def test_render_shared_sublist_twice(self):
        shared = ["x", 1]
        assert render_sexpr([shared, [shared]]) == "((x 1) ((x 1)))"

    def test_render_self_containing_list_raises(self):
        loop = ["a"]
        loop.append(loop)
        with pytest.raises(KqmlParseError):
            render_sexpr(loop)
        deep_loop = inner = []
        for _ in range(3_000):
            inner.append([])
            inner = inner[0]
        inner.append(deep_loop)
        with pytest.raises(KqmlParseError):
            render_sexpr(deep_loop)

    def test_render_unsupported_type_raises(self):
        with pytest.raises(KqmlParseError):
            render_sexpr(["a", ("tuple",)])

    def test_render_quotes_numeric_looking_strings(self):
        # "42" the string must not come back as 42 the int.
        assert parse_sexpr(render_sexpr(["x", "42"])) == ["x", "42"]

    def test_render_rejects_unrenderable(self):
        with pytest.raises(KqmlParseError):
            render_sexpr(object())


class TestWireRoundTrip:
    def test_dumps_loads_roundtrip(self):
        msg = ask()
        again = loads(dumps(msg))
        assert again == msg

    def test_roundtrip_with_extras_and_ontology(self):
        msg = KqmlMessage(
            Performative.RECOMMEND_ALL,
            sender="a", receiver="b",
            content="agent query", ontology="service",
            extras={"hop-count": 2},
        )
        again = loads(dumps(msg))
        assert again == msg
        assert again.extra("hop-count") == 2

    def test_loads_rejects_unknown_performative(self):
        with pytest.raises(KqmlParseError):
            loads("(do-magic :sender a :receiver b)")

    def test_loads_requires_sender_receiver(self):
        with pytest.raises(KqmlParseError):
            loads("(tell :sender a :content hi)")

    def test_loads_rejects_bad_structure(self):
        for bad in ["42", "()", "(tell :sender)", "(tell sender a)"]:
            with pytest.raises(KqmlParseError):
                loads(bad)

    def test_paper_style_message(self):
        text = ('(ask-all :sender mhn-user-agent :receiver broker-1 '
                ':reply-with id7 :language "SQL 2.0" '
                ':content "select * from C2")')
        msg = loads(text)
        assert msg.performative is Performative.ASK_ALL
        assert msg.content == "select * from C2"
        assert msg.language == "SQL 2.0"

    def test_all_performatives_roundtrip(self):
        for name in sorted(PERFORMATIVES):
            msg = KqmlMessage(Performative.from_name(name), sender="a", receiver="b",
                              content="c")
            assert loads(dumps(msg)).performative.value == name


printable_text = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126), min_size=1
)


@given(
    performative=st.sampled_from(sorted(PERFORMATIVES)),
    sender=printable_text.filter(lambda s: s.strip()),
    receiver=printable_text.filter(lambda s: s.strip()),
    content=st.one_of(printable_text, st.integers(), st.floats(allow_nan=False, allow_infinity=False)),
)
def test_property_wire_roundtrip(performative, sender, receiver, content):
    msg = KqmlMessage(
        Performative.from_name(performative),
        sender=sender, receiver=receiver, content=content,
    )
    assert loads(dumps(msg)) == msg
