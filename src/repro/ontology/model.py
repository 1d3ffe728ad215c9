"""Domain ontology model: classes, slots, is-a hierarchy, keys.

A domain ontology is the shared vocabulary a community of agents uses to
talk about data ("healthcare" with classes ``patient``, ``diagnosis``).
Resource agents advertise which classes and slots they hold; the broker
reasons over class–subclass relationships when matching.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple


class OntologyError(ValueError):
    """Raised for malformed ontologies (unknown parents, cycles, ...)."""


@dataclass(frozen=True)
class Slot:
    """A named attribute of an ontology class."""

    name: str
    value_type: str = "string"  # "string" | "number" | "bool"
    description: str = ""

    def __post_init__(self):
        if not self.name:
            raise OntologyError("slot name must be non-empty")
        if self.value_type not in ("string", "number", "bool"):
            raise OntologyError(f"unknown slot value type {self.value_type!r}")


@dataclass(frozen=True)
class OntClass:
    """An ontology class: named slots, an optional parent, optional key.

    Slots are the class's *own* slots; inherited slots come from the
    parent chain and are resolved by :meth:`Ontology.slots_of`.
    """

    name: str
    slots: Tuple[Slot, ...] = ()
    parent: Optional[str] = None
    key: Optional[str] = None
    description: str = ""

    def __post_init__(self):
        if not self.name:
            raise OntologyError("class name must be non-empty")
        if not isinstance(self.slots, tuple):
            object.__setattr__(self, "slots", tuple(self.slots))
        names = [s.name for s in self.slots]
        if len(names) != len(set(names)):
            raise OntologyError(f"duplicate slot names in class {self.name!r}")

    def slot_names(self) -> List[str]:
        return [s.name for s in self.slots]


class Ontology:
    """A named collection of classes forming an is-a forest.

    >>> onto = Ontology("demo")
    >>> onto.add_class(OntClass("thing", (Slot("id"),), key="id"))
    >>> onto.add_class(OntClass("animal", (Slot("legs", "number"),), parent="thing"))
    >>> onto.is_subclass("animal", "thing")
    True
    >>> [s.name for s in onto.slots_of("animal")]
    ['id', 'legs']
    """

    def __init__(self, name: str, classes: Iterable[OntClass] = ()):
        if not name:
            raise OntologyError("ontology name must be non-empty")
        self.name = name
        #: Monotonic mutation counter.  The broker repository folds it
        #: into its generation stamp so match caches notice an ontology
        #: reload, not just advertise traffic.
        self.version = 0
        self._classes: Dict[str, OntClass] = {}
        # Hierarchy-walk memos, invalidated whenever a class is added.
        # The columnar plane asks for the same closures on every
        # query, so these are hot.
        self._ancestor_cache: Dict[str, Tuple[str, ...]] = {}
        self._descendant_cache: Dict[str, Tuple[str, ...]] = {}
        self._related_cache: Dict[str, frozenset] = {}
        for cls in classes:
            self.add_class(cls)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_class(self, cls: OntClass) -> None:
        if cls.name in self._classes:
            raise OntologyError(f"class {cls.name!r} already defined")
        if cls.parent is not None and cls.parent not in self._classes:
            raise OntologyError(
                f"class {cls.name!r} extends unknown parent {cls.parent!r}"
            )
        if cls.key is not None:
            own = {s.name for s in cls.slots}
            inherited = (
                {s.name for s in self.slots_of(cls.parent)} if cls.parent else set()
            )
            if cls.key not in own | inherited:
                raise OntologyError(
                    f"key {cls.key!r} of class {cls.name!r} is not a slot"
                )
        self._classes[cls.name] = cls
        self.version += 1
        self._ancestor_cache.clear()
        self._descendant_cache.clear()
        self._related_cache.clear()

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def __contains__(self, class_name: str) -> bool:
        return class_name in self._classes

    def get(self, class_name: str) -> OntClass:
        try:
            return self._classes[class_name]
        except KeyError:
            raise OntologyError(
                f"ontology {self.name!r} has no class {class_name!r}"
            ) from None

    def class_names(self) -> List[str]:
        return sorted(self._classes)

    def key_of(self, class_name: str) -> Optional[str]:
        """The key slot of *class_name*, inherited from ancestors if unset."""
        for name in [class_name, *self.ancestors(class_name)]:
            key = self._classes[name].key
            if key is not None:
                return key
        return None

    # ------------------------------------------------------------------
    # hierarchy
    # ------------------------------------------------------------------
    def ancestors(self, class_name: str) -> List[str]:
        """Proper ancestors of *class_name*, nearest first (memoized)."""
        cached = self._ancestor_cache.get(class_name)
        if cached is not None:
            return list(cached)
        chain = []
        current = self.get(class_name).parent
        while current is not None:
            if current in chain:
                raise OntologyError(f"cycle in class hierarchy at {current!r}")
            chain.append(current)
            current = self._classes[current].parent
        self._ancestor_cache[class_name] = tuple(chain)
        return chain

    def descendants(self, class_name: str) -> List[str]:
        """Proper descendants of *class_name*, sorted (memoized)."""
        cached = self._descendant_cache.get(class_name)
        if cached is not None:
            return list(cached)
        self.get(class_name)
        found: Set[str] = set()
        frontier = {class_name}
        while frontier:
            frontier = {
                cls.name
                for cls in self._classes.values()
                if cls.parent in frontier
            }
            found |= frontier
        result = sorted(found)
        self._descendant_cache[class_name] = tuple(result)
        return result

    def related_closure(self, class_name: str) -> frozenset:
        """All classes related to *class_name* by is-a in either
        direction, *including itself* (memoized).

        This is exactly the set of advertised class names that
        :meth:`repro.core.matcher.MatchContext.classes_related` accepts
        for a query over *class_name*; the repository's class index
        expands requested classes through it.
        """
        cached = self._related_cache.get(class_name)
        if cached is None:
            cached = frozenset(
                {class_name}
                | set(self.ancestors(class_name))
                | set(self.descendants(class_name))
            )
            self._related_cache[class_name] = cached
        return cached

    def is_subclass(self, child: str, parent: str) -> bool:
        """Reflexive-transitive is-a test."""
        if child == parent:
            return self.get(child) is not None
        return parent in self.ancestors(child)

    def slots_of(self, class_name: str) -> List[Slot]:
        """All slots of *class_name*, inherited first, in definition order."""
        slots: List[Slot] = []
        seen: Set[str] = set()
        for name in [*reversed(self.ancestors(class_name)), class_name]:
            for slot in self._classes[name].slots:
                if slot.name not in seen:
                    slots.append(slot)
                    seen.add(slot.name)
        return slots

    def slot_names_of(self, class_name: str) -> List[str]:
        return [s.name for s in self.slots_of(class_name)]

    def roots(self) -> List[str]:
        return sorted(c.name for c in self._classes.values() if c.parent is None)

    def __repr__(self) -> str:
        return f"Ontology({self.name!r}, {len(self._classes)} classes)"
