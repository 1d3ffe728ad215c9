"""Advertisements: service descriptions as stored by a broker.

An :class:`Advertisement` wraps the agent's
:class:`~repro.ontology.service.ServiceDescription` with broker-side
metadata: when it arrived, which broker it was advertised to, its
nominal size (the paper's broker reasoning cost is charged per megabyte
of stored advertisements), and the advertiser's per-round sequence
number (the replication/journal ordering key).

The module also provides a full s-expression codec
(:func:`advertisement_to_sexpr` / :func:`advertisement_from_sexpr`):
the durable advertisement journal and any on-the-wire advertisement
exchange need a lossless textual form, and the KQML s-expression
grammar is the system's native one.  The codec round-trips every field,
including constraint domains with open/infinite interval endpoints and
boolean slot values (which the raw s-expression atom syntax cannot
distinguish from the strings ``"true"``/``"false"`` — they are tagged).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

from repro.constraints import (
    Complement,
    Constraint,
    DiscreteSet,
    Interval,
    IntervalSet,
)
from repro.core.errors import BrokeringError
from repro.kqml.sexpr import brief_sexpr
from repro.ontology.service import (
    AgentLocation,
    AgentProperties,
    BrokerExtensions,
    Capabilities,
    ContentInfo,
    ServiceDescription,
    SyntacticInfo,
)

#: Default nominal advertisement size (megabytes).  Sec 5.2.1 sets the
#: scalability experiments' advertisement size to 1 MB; the figure-14
#: population uses 0.1 MB (see DESIGN.md's dropped-parameter table).
DEFAULT_AD_SIZE_MB = 1.0


@dataclass(frozen=True)
class Advertisement:
    """One stored advertisement."""

    description: ServiceDescription
    size_mb: float = DEFAULT_AD_SIZE_MB
    advertised_at: float = 0.0
    home_broker: Optional[str] = None
    #: The advertiser's advertise-round counter when this copy was built.
    #: Together with ``advertised_at`` it forms the last-writer-wins key
    #: used by the journal and the broker anti-entropy protocol; a
    #: restarted advertiser resets its counter, so the (time, seq) pair
    #: — not the bare counter — orders copies across incarnations.
    seq: int = 0

    def __post_init__(self):
        if self.size_mb <= 0:
            raise BrokeringError("advertisement size must be positive")

    @property
    def lww_key(self) -> Tuple[float, int]:
        """Replication ordering: newest advertisement time wins, the
        advertiser's sequence number breaks same-instant ties."""
        return (self.advertised_at, self.seq)

    @property
    def agent_name(self) -> str:
        return self.description.agent_name

    @property
    def agent_type(self) -> str:
        return self.description.agent_type

    def is_broker(self) -> bool:
        return self.description.is_broker()

    def renewed(self, at: float) -> "Advertisement":
        """A copy stamped with a new advertisement time (re-advertising)."""
        return replace(self, advertised_at=at)

    def __repr__(self) -> str:
        return (
            f"Advertisement({self.agent_name!r}, type={self.agent_type!r}, "
            f"{self.size_mb} MB)"
        )


# ----------------------------------------------------------------------
# s-expression codec (journal lines, advertisement exchange)
# ----------------------------------------------------------------------
# Value encoding: numbers and strings are native s-expression atoms and
# round-trip as themselves (the renderer quotes numeric-looking
# strings).  Booleans would render as the atoms ``true``/``false`` and
# parse back as strings, so they are tagged as ``(b 1)`` / ``(b 0)``.
# Optionals are encoded as zero-or-one-element lists: ``()`` for None,
# ``(value)`` otherwise — a bare ``-inf`` atom would coerce to a float.


def _atom(expr) -> str:
    """A string field; nested lists are malformed there."""
    if isinstance(expr, list):
        raise BrokeringError(f"expected an atom: {brief_sexpr(expr)}")
    return str(expr)


def _value_to_sexpr(value):
    if isinstance(value, bool):
        return ["b", 1 if value else 0]
    return value


def _value_from_sexpr(expr):
    if isinstance(expr, list):
        if len(expr) == 2 and expr[0] == "b":
            return bool(expr[1])
        raise BrokeringError(f"malformed constraint value: {brief_sexpr(expr)}")
    return expr


def _opt_to_sexpr(value) -> list:
    return [] if value is None else [_value_to_sexpr(value)]


def _opt_from_sexpr(expr):
    if not isinstance(expr, list) or len(expr) > 1:
        raise BrokeringError(f"malformed optional value: {brief_sexpr(expr)}")
    return _value_from_sexpr(expr[0]) if expr else None


def _domain_to_sexpr(domain) -> list:
    if isinstance(domain, IntervalSet):
        return ["ivs"] + [
            [
                _opt_to_sexpr(iv.lo),
                _opt_to_sexpr(iv.hi),
                1 if iv.lo_open else 0,
                1 if iv.hi_open else 0,
            ]
            for iv in domain.intervals
        ]
    if isinstance(domain, DiscreteSet):
        return ["set"] + sorted(
            (_value_to_sexpr(v) for v in domain.allowed), key=repr
        )
    if isinstance(domain, Complement):
        return ["not"] + sorted(
            (_value_to_sexpr(v) for v in domain.excluded), key=repr
        )
    raise BrokeringError(f"unknown constraint domain {type(domain).__name__}")


def _domain_from_sexpr(expr):
    if not isinstance(expr, list) or not expr:
        raise BrokeringError(f"malformed constraint domain: {brief_sexpr(expr)}")
    tag, rest = expr[0], expr[1:]
    if tag == "ivs":
        return IntervalSet(
            Interval(
                _opt_from_sexpr(iv[0]),
                _opt_from_sexpr(iv[1]),
                bool(iv[2]),
                bool(iv[3]),
            )
            for iv in rest
        )
    if tag == "set":
        return DiscreteSet(frozenset(_value_from_sexpr(v) for v in rest))
    if tag == "not":
        return Complement(frozenset(_value_from_sexpr(v) for v in rest))
    raise BrokeringError(f"unknown constraint domain tag {brief_sexpr(tag)}")


def constraint_to_sexpr(constraint: Constraint) -> list:
    """``(cst (slot domain) ...)``, slots sorted for determinism."""
    return ["cst"] + [
        [slot, _domain_to_sexpr(constraint.domain(slot))]
        for slot in constraint.slots
    ]


def constraint_from_sexpr(expr) -> Constraint:
    if not isinstance(expr, list) or not expr or expr[0] != "cst":
        raise BrokeringError(f"malformed constraint: {brief_sexpr(expr)}")
    return Constraint(
        {slot: _domain_from_sexpr(domain) for slot, domain in expr[1:]}
    )


def _strings(expr) -> Tuple[str, ...]:
    if not isinstance(expr, list):
        raise BrokeringError(f"expected a list of strings: {brief_sexpr(expr)}")
    return tuple(_atom(item) for item in expr)


def advertisement_to_sexpr(ad: Advertisement) -> list:
    """A lossless nested-list form of *ad*, renderable with
    :func:`repro.kqml.sexpr.render_sexpr`."""
    desc = ad.description
    broker_block: list = []
    if desc.broker is not None:
        broker_block = [
            desc.broker.community,
            list(desc.broker.consortia),
            list(desc.broker.specializations),
            list(desc.broker.supported_ontologies),
        ]
    return [
        "ad",
        ["meta", ad.seq, ad.size_mb, ad.advertised_at,
         _opt_to_sexpr(ad.home_broker)],
        ["loc", desc.location.name, desc.location.address,
         desc.location.transport, desc.location.agent_type],
        ["syn", list(desc.syntax.content_languages),
         list(desc.syntax.communication_languages)],
        ["cap", list(desc.capabilities.conversations),
         list(desc.capabilities.functions),
         list(desc.capabilities.restrictions)],
        ["con", desc.content.ontology_name, list(desc.content.classes),
         list(desc.content.slots), list(desc.content.keys),
         constraint_to_sexpr(desc.content.constraints)],
        ["prp", _value_to_sexpr(desc.properties.mobile),
         _value_to_sexpr(desc.properties.cloneable),
         _opt_to_sexpr(desc.properties.estimated_response_time),
         _opt_to_sexpr(desc.properties.throughput)],
        ["brk"] + broker_block,
    ]


def advertisement_from_sexpr(expr) -> Advertisement:
    """Inverse of :func:`advertisement_to_sexpr`.

    Malformed input, however deeply nested, raises
    :class:`BrokeringError`.
    """
    try:
        return _advertisement_from_sexpr(expr)
    except BrokeringError:
        raise
    except (TypeError, ValueError, IndexError) as exc:
        # Wrong arity, a list where a number belongs, unorderable bounds.
        raise BrokeringError(
            f"malformed advertisement s-expression: {exc}"
        ) from exc


def _advertisement_from_sexpr(expr) -> Advertisement:
    if not isinstance(expr, list) or len(expr) != 8 or expr[0] != "ad":
        raise BrokeringError(f"malformed advertisement s-expression: {brief_sexpr(expr)}")
    _tag, meta, loc, syn, cap, con, prp, brk = expr
    for block, tag in ((meta, "meta"), (loc, "loc"), (syn, "syn"),
                       (cap, "cap"), (con, "con"), (prp, "prp"),
                       (brk, "brk")):
        if not isinstance(block, list) or not block or block[0] != tag:
            raise BrokeringError(f"malformed {tag!r} block: {brief_sexpr(block)}")
    broker: Optional[BrokerExtensions] = None
    if len(brk) > 1:
        broker = BrokerExtensions(
            community=_atom(brk[1]),
            consortia=_strings(brk[2]),
            specializations=_strings(brk[3]),
            supported_ontologies=_strings(brk[4]),
        )
    description = ServiceDescription(
        location=AgentLocation(
            name=_atom(loc[1]), address=_atom(loc[2]),
            transport=_atom(loc[3]), agent_type=_atom(loc[4]),
        ),
        syntax=SyntacticInfo(
            content_languages=_strings(syn[1]),
            communication_languages=_strings(syn[2]),
        ),
        capabilities=Capabilities(
            conversations=_strings(cap[1]),
            functions=_strings(cap[2]),
            restrictions=_strings(cap[3]),
        ),
        content=ContentInfo(
            ontology_name=_atom(con[1]),
            classes=_strings(con[2]),
            slots=_strings(con[3]),
            keys=_strings(con[4]),
            constraints=constraint_from_sexpr(con[5]),
        ),
        properties=AgentProperties(
            mobile=bool(_value_from_sexpr(prp[1])),
            cloneable=bool(_value_from_sexpr(prp[2])),
            estimated_response_time=_opt_from_sexpr(prp[3]),
            throughput=_opt_from_sexpr(prp[4]),
        ),
        broker=broker,
    )
    home = _opt_from_sexpr(meta[4])
    return Advertisement(
        description,
        size_mb=float(meta[2]),
        advertised_at=float(meta[3]),
        home_broker=None if home is None else str(home),
        seq=int(meta[1]),
    )
