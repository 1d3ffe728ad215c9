"""KQML wire syntax: parenthesized s-expressions.

The classic form::

    (ask-all :sender mhn-user-agent :receiver broker-1
             :reply-with id7 :language SQL
             :content "select * from C2")

``parse_sexpr``/``render_sexpr`` handle generic s-expressions (nested
lists of atoms/strings/numbers); ``loads``/``dumps`` convert between the
wire text and :class:`~repro.kqml.message.KqmlMessage`.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Any, List, Tuple, Union

from repro.kqml.errors import KqmlParseError
from repro.kqml.message import KqmlMessage
from repro.kqml.performatives import Performative

Sexpr = Union[str, int, float, list]

_ATOM_RE = re.compile(r"""[^\s()"]+""")


def parse_sexpr(text: str) -> Sexpr:
    """Parse one s-expression from *text* (which must hold exactly one)."""
    expr, pos = _parse(text, _skip_ws(text, 0))
    pos = _skip_ws(text, pos)
    if pos != len(text):
        raise KqmlParseError(f"trailing input after s-expression: {text[pos:]!r}")
    return expr


def _skip_ws(text: str, pos: int) -> int:
    while pos < len(text) and text[pos].isspace():
        pos += 1
    return pos


def _parse(text: str, pos: int) -> Tuple[Sexpr, int]:
    """The s-expression starting at *pos*, and the position after it.

    Iterative, with the open lists on an explicit stack: nesting depth
    is bounded by memory, never by the interpreter's recursion limit,
    so hostile input fails with :class:`KqmlParseError` or parses.
    """
    open_lists: List[List[Sexpr]] = []
    while True:
        if pos >= len(text):
            raise KqmlParseError(
                "unterminated list" if open_lists else "unexpected end of input"
            )
        ch = text[pos]
        if ch == "(":
            open_lists.append([])
            pos = _skip_ws(text, pos + 1)
            continue
        if ch == ")":
            if not open_lists:
                raise KqmlParseError("unbalanced ')'")
            expr, pos = open_lists.pop(), pos + 1
        elif ch == '"':
            expr, pos = _parse_string(text, pos)
        else:
            m = _ATOM_RE.match(text, pos)
            if not m:
                raise KqmlParseError(f"cannot parse at {text[pos:pos + 10]!r}")
            expr, pos = _coerce_atom(m.group()), m.end()
        if not open_lists:
            return expr, pos
        open_lists[-1].append(expr)
        pos = _skip_ws(text, pos)


def _parse_string(text: str, pos: int) -> Tuple[str, int]:
    chars = []
    pos += 1
    while pos < len(text):
        ch = text[pos]
        if ch == "\\":
            if pos + 1 >= len(text):
                raise KqmlParseError("dangling escape in string")
            chars.append(text[pos + 1])
            pos += 2
        elif ch == '"':
            return "".join(chars), pos + 1
        else:
            chars.append(ch)
            pos += 1
    raise KqmlParseError("unterminated string")


def _coerce_atom(atom: str) -> Sexpr:
    try:
        return int(atom)
    except ValueError:
        pass
    try:
        return float(atom)
    except ValueError:
        pass
    return atom


def render_sexpr(expr: Sexpr) -> str:
    """Serialize a nested list/atom structure back to wire text.

    Iterative, with the open lists' iterators on an explicit stack, so
    anything :func:`parse_sexpr` accepts renders back whatever its
    depth.  A list that contains itself cannot be rendered and raises
    :class:`KqmlParseError`.
    """
    if not isinstance(expr, list):
        return _render_atom(expr)
    out = ["("]
    append = out.append
    stack = [iter(expr)]
    path = [expr]  # the open lists, outermost first
    while stack:
        for item in stack[-1]:
            if out[-1] != "(":
                append(" ")
            if type(item) is str:
                append(_render_str(item))
            elif isinstance(item, list):
                append("(")
                stack.append(iter(item))
                path.append(item)
                # A self-containing list would deepen the path forever;
                # looking for a repeat every 1,024 levels stays O(1)
                # amortized per list.
                if not len(path) % 1024 and len(set(map(id, path))) < len(path):
                    raise KqmlParseError("cannot render a list that contains itself")
                break
            else:
                append(_render_atom(item))
        else:
            stack.pop()
            path.pop()
            append(")")
    return "".join(out)


def _render_atom(expr: Sexpr) -> str:
    if isinstance(expr, bool):
        return "true" if expr else "false"
    if isinstance(expr, (int, float)):
        return repr(expr)
    if isinstance(expr, str):
        return _render_str(expr)
    raise KqmlParseError(f"cannot render {type(expr).__name__} in an s-expression")


@lru_cache(maxsize=4096)
def _render_str(expr: str) -> str:
    """A string as a bare atom, or quoted when it would not parse back
    as the same string.  Cached: messages and journal records repeat
    the same tags and names, and the numeric test is the costly step."""
    if expr and _ATOM_RE.fullmatch(expr) and not _looks_numeric(expr):
        return expr
    escaped = expr.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def brief_sexpr(expr: Any, limit: int = 80) -> str:
    """*expr* as wire text cut to *limit* characters, for error messages.

    ``repr`` recurses, so on deeply nested input it would turn a decode
    error into a :class:`RecursionError`; this does not.
    """
    try:
        text = render_sexpr(expr)
    except KqmlParseError:
        return f"<{type(expr).__name__}>"
    return text if len(text) <= limit else text[:limit] + " ..."


def _looks_numeric(atom: str) -> bool:
    try:
        float(atom)
        return True
    except ValueError:
        return False


# ----------------------------------------------------------------------
# KqmlMessage <-> wire text
# ----------------------------------------------------------------------
_FIELD_TO_KEY = [
    ("sender", ":sender"),
    ("receiver", ":receiver"),
    ("reply_with", ":reply-with"),
    ("in_reply_to", ":in-reply-to"),
    ("language", ":language"),
    ("ontology", ":ontology"),
]


def dumps(message: KqmlMessage) -> str:
    """Serialize *message* to wire text.

    The content must be a string, a number, or a nested s-expression
    list; richer Python payloads are in-process only.
    """
    parts: List[Sexpr] = [message.performative.value]
    for attr, key in _FIELD_TO_KEY:
        value = getattr(message, attr)
        if value is not None:
            parts.extend([key, value])
    for key, value in message.extras:
        parts.extend([f":{key}", value])
    if message.content is not None:
        parts.extend([":content", message.content])
    return render_sexpr(parts)


def loads(text: str) -> KqmlMessage:
    """Parse wire text into a :class:`KqmlMessage`."""
    expr = parse_sexpr(text)
    if not isinstance(expr, list) or not expr or not isinstance(expr[0], str):
        raise KqmlParseError("a KQML message must be a list led by a performative")
    try:
        performative = Performative.from_name(expr[0])
    except ValueError as exc:
        raise KqmlParseError(str(exc)) from None

    fields = {}
    extras = {}
    key_to_field = {key: attr for attr, key in _FIELD_TO_KEY}
    index = 1
    while index < len(expr):
        key = expr[index]
        if not isinstance(key, str) or not key.startswith(":"):
            raise KqmlParseError(f"expected a :keyword, got {key!r}")
        if index + 1 >= len(expr):
            raise KqmlParseError(f"keyword {key} has no value")
        value = expr[index + 1]
        if key == ":content":
            fields["content"] = value
        elif key in key_to_field:
            fields[key_to_field[key]] = value
        else:
            extras[key[1:]] = value
        index += 2

    if "sender" not in fields or "receiver" not in fields:
        raise KqmlParseError("KQML message requires :sender and :receiver")
    return KqmlMessage(
        performative=performative,
        extras=tuple(sorted(extras.items())),
        **fields,
    )
