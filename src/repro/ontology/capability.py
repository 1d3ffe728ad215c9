"""The capability hierarchy (paper Figure 2).

Capabilities are organized by containment: an agent advertising a
general capability can perform every more specific capability beneath
it, but not vice versa.  "If an agent does all query processing, then it
certainly does relational query processing and could process a simple
select query over a single relation.  However, just because an agent can
process a simple select query does not mean that it can do any
relational query."

The broker therefore matches a *requested* capability against an
*advertised* capability when the advertised one is the requested one or
an ancestor of it.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple


class CapabilityError(ValueError):
    """Raised for malformed capability hierarchies."""


class CapabilityHierarchy:
    """A forest of capability names with containment semantics.

    >>> h = default_capability_hierarchy()
    >>> h.covers("query-processing", "select")
    True
    >>> h.covers("select", "relational")
    False
    """

    def __init__(self, edges: Iterable[Tuple[str, str]] = ()):
        #: Monotonic mutation counter (see :attr:`Ontology.version`).
        self.version = 0
        self._parent: Dict[str, Optional[str]] = {}
        # requested-capability -> frozenset of advertised names covering
        # it; invalidated on every hierarchy mutation.
        self._cover_cache: Dict[str, frozenset] = {}
        for parent, child in edges:
            self.add(child, parent)

    def add(self, capability: str, parent: Optional[str] = None) -> None:
        """Register *capability* under *parent* (roots have no parent)."""
        if not capability:
            raise CapabilityError("capability name must be non-empty")
        if capability in self._parent:
            raise CapabilityError(f"capability {capability!r} already defined")
        if parent is not None and parent not in self._parent:
            raise CapabilityError(f"unknown parent capability {parent!r}")
        self._parent[capability] = parent
        self.version += 1
        self._cover_cache.clear()

    def __contains__(self, capability: str) -> bool:
        return capability in self._parent

    def names(self) -> List[str]:
        return sorted(self._parent)

    def ancestors(self, capability: str) -> List[str]:
        """Proper ancestors, nearest first."""
        if capability not in self._parent:
            raise CapabilityError(f"unknown capability {capability!r}")
        chain = []
        current = self._parent[capability]
        while current is not None:
            chain.append(current)
            current = self._parent[current]
        return chain

    def descendants(self, capability: str) -> List[str]:
        if capability not in self._parent:
            raise CapabilityError(f"unknown capability {capability!r}")
        found: Set[str] = set()
        frontier = {capability}
        while frontier:
            frontier = {
                cap for cap, parent in self._parent.items() if parent in frontier
            }
            found |= frontier
        return sorted(found)

    def covers(self, advertised: str, requested: str) -> bool:
        """True when an agent advertising *advertised* can serve *requested*.

        Unknown capability names match only themselves: an open agent
        system must tolerate vocabulary it has not seen, and exact match
        is the safe reading.
        """
        if advertised == requested:
            return True
        if advertised not in self._parent or requested not in self._parent:
            return False
        return advertised in self.ancestors(requested)

    def cover_set(self, requested: str) -> frozenset:
        """Every advertised name that :meth:`covers` *requested*,
        including itself (memoized).

        An unknown capability is covered only by its own name.  The
        columnar plane expands requested capabilities through this
        closure instead of testing :meth:`covers` per advertisement.
        """
        cached = self._cover_cache.get(requested)
        if cached is None:
            names = {requested}
            if requested in self._parent:
                names.update(self.ancestors(requested))
            cached = frozenset(names)
            self._cover_cache[requested] = cached
        return cached

    def prune_redundant(self, capabilities: Iterable[str]) -> List[str]:
        """Drop capabilities already implied by more general members.

        Advertising ``query-processing`` makes a separate ``select``
        advertisement redundant.
        """
        caps = set(capabilities)
        return sorted(
            cap
            for cap in caps
            if not any(other != cap and self.covers(other, cap) for other in caps)
        )


#: Figure 2 of the paper, extended with the other capabilities the
#: example advertisements use (subscription, data mining, brokering).
_DEFAULT_EDGES = [
    ("query-processing", "relational"),
    ("query-processing", "object-oriented"),
    ("relational", "select"),
    ("relational", "project"),
    ("relational", "join"),
    ("relational", "union"),
    ("query-processing", "multiresource-query-processing"),
    ("subscription", "polling"),
    ("subscription", "notification"),
    ("analysis", "data-mining"),
    ("analysis", "statistical-aggregation"),
    ("brokering", "syntactic-brokering"),
    ("brokering", "semantic-brokering"),
]


def default_capability_hierarchy() -> CapabilityHierarchy:
    """The paper's Figure 2 hierarchy plus InfoSleuth's other services."""
    hierarchy = CapabilityHierarchy()
    roots = ["query-processing", "subscription", "analysis", "brokering",
             "user-interface", "ontology-service", "monitoring"]
    for root in roots:
        hierarchy.add(root)
    for parent, child in _DEFAULT_EDGES:
        hierarchy.add(child, parent)
    return hierarchy
