"""The columnar matchmaking plane: vectorized query evaluation.

The scan matcher (:mod:`repro.core.matcher`) is a per-advertisement
predicate walk — correct, explainable, and O(ads) Python bytecode per
query.  This module keeps a repository's agent advertisements in a
**columnar plane** so a query is answered in three vectorized passes
instead:

1. **Posting intersection.**  Every indexable dimension (agent type,
   languages, conversations, capability names, ontology, classes, slots,
   mobility) becomes a bitset posting list: one Python ``int`` whose bit
   *i* says "advertisement *i* passes this dimension value".  Closure
   expansion (capability cover sets, ontology is-a closures) happens
   per *query*, by OR-ing the posting bitsets of the closure members —
   the plane itself stores only exact names and stays ontology-version
   independent.  A query ANDs the bitsets of the dimensions it
   constrains; everything else never allocates per-ad work.
2. **Interval sweep.**  Advertised constraint domains that are a single
   numeric interval live in parallel ``array('d')`` lo/hi columns (with
   ``±inf`` for the open ends) plus per-ad open-endpoint flag bytes; a
   query whose own domain on that slot is a simple interval sweeps only
   the surviving ids through two float comparisons per ad.  Survivor
   ids come from :func:`_bit_indices` — a chunked walk that costs
   O(ads/64 + survivors), not the O(survivors x ads) of repeated
   lowest-bit extraction on one huge int.
3. **Residual checkers.**  Every remaining advertised domain is grouped
   by its canonical :func:`~repro.constraints.domains.domain_key` and
   compiled once (:func:`~repro.constraints.compile
   .compile_overlap_checker`); each distinct domain is probed **once
   per query** and its verdict applied to the whole group's bitset.

Survivors of all three passes are exactly the advertisements the scan
matcher accepts (the equivalence property tests in
``tests/test_columnar.py`` and ``tests/test_matchmaking_equivalence.py``
assert ranked-identical output); they are then scored and ranked by the
same :func:`~repro.core.scoring.score_match` the scan uses, so scores —
not just match sets — are identical.

The plane is kept current write by write: :meth:`ColumnarPlane.add`
and :meth:`ColumnarPlane.remove` set and clear one advertisement's bit
in every posting list and column it is on, ids freed by a removal are
reused by the next add, and columns grow as ids are handed out.  Since
only exact names are stored, an ontology change never touches the
plane.  :meth:`ColumnarPlane.compile` builds a plane in one pass, for a
repository opened on a store that already holds advertisements.

Explain mode is *not* served here: a verdict trail needs one verdict
per advertisement with the canonical reject reason, which is precisely
the per-ad walk this plane exists to skip.  The repository routes
explain-mode queries through the scan path instead (see
``BrokerRepository._query_explained``).
"""

from __future__ import annotations

from array import array
from heapq import heappop, heappush
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.constraints.compile import (
    compile_overlap_checker,
    simple_numeric_interval,
)
from repro.constraints.domains import Domain, domain_key
from repro.core.advertisement import Advertisement
from repro.core.matcher import Match, MatchContext, MatchStats, _match_slots
from repro.core.query import BrokerQuery
from repro.core.scoring import score_match

_INF = float("inf")


def _bit_indices(mask: int) -> List[int]:
    """Ascending indices of the set bits of *mask*.

    Chunked through a 64-bit memoryview so the cost is
    O(bits/64 + popcount): repeated ``mask & -mask`` extraction on a
    community-sized int is O(popcount x bits/64) — it re-scans the
    whole number for every survivor — and dominated query time at
    50 000 advertisements.
    """
    if not mask:
        return []
    out = []
    n_bytes = (mask.bit_length() + 7) // 8
    data = memoryview(mask.to_bytes(n_bytes + (-n_bytes) % 8, "little"))
    base = 0
    for word in data.cast("Q"):
        while word:
            low = word & -word
            out.append(base + low.bit_length() - 1)
            word ^= low
        base += 64
    return out


def _mask_from_indices(indices: List[int]) -> int:
    """Inverse of :func:`_bit_indices`: OR-free mask reassembly in
    O(max_index/8 + len(indices)) via a byte buffer."""
    if not indices:
        return 0
    buffer = bytearray((indices[-1] >> 3) + 1)
    for i in indices:
        buffer[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(buffer, "little")


class _SlotColumn:
    """Per-slot constraint columns: which ads restrict the slot, their
    simple-interval arrays, and compiled checkers for the rest."""

    __slots__ = (
        "restricted_mask", "simple_mask", "lo", "hi",
        "open_flags", "groups", "simple_groups",
    )

    #: ``open_flags`` bits: the ad's interval is open at that end.
    _LO_OPEN = 1
    _HI_OPEN = 2

    def __init__(self, n: int):
        #: Ads restricting this slot at all (others pass vacuously).
        self.restricted_mask = 0
        #: Ads whose domain is one numeric interval (array-resident).
        self.simple_mask = 0
        self.lo = array("d", bytes(8 * n))
        self.hi = array("d", bytes(8 * n))
        #: Per-ad open-endpoint flags — a byte per ad, not a bitmask,
        #: so the sweep reads them in O(1) per survivor.
        self.open_flags = bytearray(n)
        #: domain_key -> [mask, checker] for non-simple domains.
        self.groups: Dict[object, list] = {}
        #: domain_key -> [mask, checker] for simple domains — probed
        #: when the *query* domain is not a simple interval and the
        #: arrays cannot answer.
        self.simple_groups: Dict[object, list] = {}

    def add(self, ad_id: int, domain: Domain) -> None:
        bit = 1 << ad_id
        self.restricted_mask |= bit
        simple = simple_numeric_interval(domain)
        if simple is not None:
            lo, hi, lo_open, hi_open = simple
            if ad_id >= len(self.lo):
                self._grow(ad_id)
            self.simple_mask |= bit
            self.lo[ad_id] = lo
            self.hi[ad_id] = hi
            self.open_flags[ad_id] = (
                (self._LO_OPEN if lo_open else 0)
                | (self._HI_OPEN if hi_open else 0)
            )
            groups = self.simple_groups
        else:
            groups = self.groups
        key = domain_key(domain)
        entry = groups.get(key)
        if entry is None:
            groups[key] = [bit, compile_overlap_checker(domain)]
        else:
            entry[0] |= bit

    def _grow(self, ad_id: int) -> None:
        """Extend the arrays (at least doubling) until *ad_id* fits."""
        extra = max(ad_id + 1, 2 * len(self.lo)) - len(self.lo)
        self.lo.extend(array("d", bytes(8 * extra)))
        self.hi.extend(array("d", bytes(8 * extra)))
        self.open_flags.extend(bytes(extra))

    def remove(self, ad_id: int, domain: Domain) -> None:
        """Undo :meth:`add`; a group left empty is dropped with its
        checker.  Stale array entries are never read: the masks gate
        every sweep."""
        keep = ~(1 << ad_id)
        self.restricted_mask &= keep
        if (self.simple_mask >> ad_id) & 1:
            self.simple_mask &= keep
            groups = self.simple_groups
        else:
            groups = self.groups
        key = domain_key(domain)
        entry = groups[key]
        entry[0] &= keep
        if not entry[0]:
            del groups[key]

    def overlap_mask(self, query_domain: Domain, live: int) -> int:
        """Bits of *live* (all restricted here) whose advertised domain
        overlaps *query_domain*."""
        passing = 0
        query_simple = simple_numeric_interval(query_domain)
        simple_live = live & self.simple_mask
        if simple_live:
            if query_simple is not None:
                # Inlined intervals_overlap() with the ad interval on
                # the left: a call + tuple per survivor costs more than
                # the two comparisons it wraps.
                qlo, qhi, qlo_open, qhi_open = query_simple
                lo, hi, flags = self.lo, self.hi, self.open_flags
                hits = []
                for i in _bit_indices(simple_live):
                    ad_lo = lo[i]
                    ad_hi = hi[i]
                    if ad_hi < qlo or qhi < ad_lo:
                        continue
                    if ad_hi == qlo and (qlo_open or flags[i] & 2):
                        continue
                    if qhi == ad_lo and (qhi_open or flags[i] & 1):
                        continue
                    hits.append(i)
                passing |= _mask_from_indices(hits)
            else:
                for mask, checker in self.simple_groups.values():
                    group_live = simple_live & mask
                    if group_live and checker(query_domain):
                        passing |= group_live
        other_live = live & ~self.simple_mask
        if other_live:
            for mask, checker in self.groups.values():
                group_live = other_live & mask
                if group_live and checker(query_domain):
                    passing |= group_live
        return passing


class ColumnarPlane:
    """The columnar form of a repository's agent advertisements.

    Keep it current with :meth:`add` / :meth:`remove`, or build it in
    one pass with :meth:`compile`; answer queries with :meth:`match` /
    :meth:`match_batch`.  The plane holds advertisement *names* plus
    columns — never the advertisements themselves; survivors are
    materialized through the ``fetch`` callable, so a storage-backed
    repository (:mod:`repro.core.store`) keeps ads off-heap.
    """

    def __init__(self, fetch: Callable[[str], Advertisement]):
        self._fetch = fetch
        #: Id -> advertiser name (None for a freed id), and back.
        self._names: List[Optional[str]] = []
        self._ids: Dict[str, int] = {}
        #: Freed ids, reused lowest first so masks stay short.
        self._free: List[int] = []
        #: Bits of the ids currently holding an advertisement.
        self.all_mask = 0
        self._by_agent_type: Dict[str, int] = {}
        self._by_content_language: Dict[str, int] = {}
        self._by_communication_language: Dict[str, int] = {}
        self._by_conversation: Dict[str, int] = {}
        self._by_capability: Dict[str, int] = {}
        #: Ontology name -> mask; ``""`` collects content-unrestricted ads.
        self._by_ontology: Dict[str, int] = {}
        self._by_class: Dict[str, int] = {}
        self._no_class_mask = 0
        self._by_slot: Dict[str, int] = {}
        self._no_slot_mask = 0
        self._mobile_mask = 0
        #: Ads whose constraint conjunction is unsatisfiable: rejected
        #: for every query (``overlaps`` is False against anything).
        self._unsat_mask = 0
        self._slot_columns: Dict[str, _SlotColumn] = {}
        #: Advertised response time (-inf = unadvertised, passes any cap).
        self._response_time = array("d")

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    @classmethod
    def compile(
        cls,
        advertisements: Iterable[Advertisement],
        fetch: Callable[[str], Advertisement],
    ) -> "ColumnarPlane":
        """Compile *advertisements* (one streaming pass, deterministic
        id order) into a plane that fetches survivors through *fetch*."""
        plane = cls(fetch)
        for ad in advertisements:
            plane.add(ad)
        return plane

    def add(self, ad: Advertisement) -> None:
        """Put *ad* on the plane under a free id.  Its advertiser must
        not be on the plane already (:meth:`remove` the old ad first)."""
        if self._free:
            ad_id = heappop(self._free)
        else:
            ad_id = len(self._names)
            self._names.append(None)
            self._response_time.append(0.0)
        self._names[ad_id] = ad.agent_name
        self._ids[ad.agent_name] = ad_id
        bit = 1 << ad_id
        self.all_mask |= bit
        for index, key in self._postings(ad):
            index[key] = index.get(key, 0) | bit
        desc = ad.description
        if not desc.content.classes:
            self._no_class_mask |= bit
        if not desc.content.slots:
            self._no_slot_mask |= bit
        if desc.properties.mobile:
            self._mobile_mask |= bit
        constraints = desc.content.constraints
        if not constraints.is_satisfiable():
            self._unsat_mask |= bit
        else:
            for slot in constraints.slots:
                column = self._slot_columns.get(slot)
                if column is None:
                    column = self._slot_columns[slot] = _SlotColumn(
                        len(self._names)
                    )
                column.add(ad_id, constraints.domain(slot))
        advertised_time = desc.properties.estimated_response_time
        self._response_time[ad_id] = (
            -_INF if advertised_time is None else advertised_time
        )

    def remove(self, ad: Advertisement) -> None:
        """Take *ad* — exactly as it was added — off the plane and free
        its id.  Posting lists and slot columns left empty are dropped."""
        ad_id = self._ids.pop(ad.agent_name)
        self._names[ad_id] = None
        heappush(self._free, ad_id)
        keep = ~(1 << ad_id)
        self.all_mask &= keep
        for index, key in self._postings(ad):
            mask = index.get(key, 0) & keep
            if mask:
                index[key] = mask
            else:
                index.pop(key, None)  # a key the ad lists twice
        self._no_class_mask &= keep
        self._no_slot_mask &= keep
        self._mobile_mask &= keep
        if (self._unsat_mask >> ad_id) & 1:
            self._unsat_mask &= keep
            return
        constraints = ad.description.content.constraints
        for slot in constraints.slots:
            column = self._slot_columns[slot]
            column.remove(ad_id, constraints.domain(slot))
            if not column.restricted_mask:
                del self._slot_columns[slot]

    def _postings(self, ad: Advertisement):
        """(posting list, key) for every posting list *ad* is on."""
        desc = ad.description
        yield self._by_agent_type, desc.agent_type
        for language in desc.syntax.content_languages:
            yield self._by_content_language, language
        for language in desc.syntax.communication_languages:
            yield self._by_communication_language, language
        for conversation in desc.capabilities.conversations:
            yield self._by_conversation, conversation
        for function in desc.capabilities.functions:
            yield self._by_capability, function
        yield self._by_ontology, desc.content.ontology_name or ""
        for cls in desc.content.classes:
            yield self._by_class, cls
        for slot in desc.content.slots:
            yield self._by_slot, slot

    # ------------------------------------------------------------------
    # query evaluation
    # ------------------------------------------------------------------
    def posting_mask(self, query: BrokerQuery, context: MatchContext) -> int:
        """Pass 1: AND the posting bitsets of every dimension the query
        constrains — sound *and* exact for those dimensions, slot
        coverage and mobility included."""
        mask = self.all_mask & ~self._unsat_mask
        if not mask:
            return 0
        if query.agent_type is not None:
            mask &= self._by_agent_type.get(query.agent_type, 0)
        if query.content_language is not None:
            mask &= self._by_content_language.get(query.content_language, 0)
        if query.communication_language is not None:
            mask &= self._by_communication_language.get(
                query.communication_language, 0
            )
        for conversation in query.conversations:
            mask &= self._by_conversation.get(conversation, 0)
            if not mask:
                return 0
        if query.capabilities and mask:
            hierarchy = context.capability_hierarchy
            for requested in query.capabilities:
                bucket = 0
                for function in hierarchy.cover_set(requested):
                    bucket |= self._by_capability.get(function, 0)
                mask &= bucket
                if not mask:
                    return 0
        if query.ontology_name is not None and mask:
            mask &= (
                self._by_ontology.get(query.ontology_name, 0)
                | self._by_ontology.get("", 0)
            )
        if query.classes and mask:
            for requested in query.classes:
                bucket = self._no_class_mask
                for cls in context.related_classes(
                    query.ontology_name, requested
                ):
                    bucket |= self._by_class.get(cls, 0)
                mask &= bucket
                if not mask:
                    return 0
        if query.slots and mask:
            if query.allow_partial_slots:
                bucket = self._no_slot_mask
                for slot in query.slots:
                    bucket |= self._by_slot.get(slot, 0)
                mask &= bucket
            else:
                for slot in query.slots:
                    covered = self._no_slot_mask | self._by_slot.get(slot, 0)
                    mask &= covered
                    if not mask:
                        return 0
        if query.require_mobile is not None and mask:
            if query.require_mobile:
                mask &= self._mobile_mask
            else:
                mask &= self.all_mask & ~self._mobile_mask
        return mask

    def constraint_mask(self, query: BrokerQuery, mask: int) -> int:
        """Passes 2+3: interval sweep and residual checkers, one
        query-restricted slot at a time."""
        constraints = query.constraints
        if constraints.is_unconstrained() or not mask:
            return mask
        for slot in constraints.slots:
            column = self._slot_columns.get(slot)
            if column is None:
                continue  # no stored ad restricts this slot
            restricted = mask & column.restricted_mask
            if not restricted:
                continue
            passing = mask & ~column.restricted_mask
            passing |= column.overlap_mask(constraints.domain(slot), restricted)
            mask = passing
            if not mask:
                return 0
        return mask

    def match(
        self,
        query: BrokerQuery,
        context: MatchContext,
        stats: Optional[MatchStats] = None,
    ) -> Tuple[List[Match], int]:
        """All matches for *query*, ranked exactly like the scan, plus
        the posting-survivor count (the repository's pruning metric).

        With *stats*, ``candidates`` counts posting survivors (the ads
        vectorized passes actually touched), ``constraint_checks`` /
        ``constraint_hits`` the constraint phase's entry/exit
        population.  Per-reason reject counts need the per-ad walk and
        stay empty here — explain mode reports those.
        """
        mask = self.posting_mask(query, context)
        candidates = mask.bit_count()
        if stats is not None:
            stats.candidates += candidates
            stats.constraint_checks += candidates
        mask = self.constraint_mask(query, mask)
        if stats is not None:
            stats.constraint_hits += mask.bit_count()
        if query.max_response_time is not None:
            mask = self._cap_response_time(mask, query.max_response_time)
        matches = self._materialize(query, context, mask)
        if stats is not None:
            stats.matched += len(matches)
        return matches, candidates

    def match_batch(
        self,
        queries: List[BrokerQuery],
        context: MatchContext,
        stats: Optional[MatchStats] = None,
    ) -> List[Tuple[List[Match], int]]:
        """One columnar pass over many queries: queries sharing a
        fingerprint prefix (:meth:`BrokerQuery.posting_prefix` — every
        match-relevant field except the constraint tail) reuse one
        posting intersection instead of recomputing it."""
        posting_memo: Dict[tuple, int] = {}
        results = []
        for query in queries:
            prefix = query.posting_prefix()
            mask = posting_memo.get(prefix)
            if mask is None:
                mask = posting_memo[prefix] = self.posting_mask(query, context)
            candidates = mask.bit_count()
            if stats is not None:
                stats.candidates += candidates
                stats.constraint_checks += candidates
            mask = self.constraint_mask(query, mask)
            if stats is not None:
                stats.constraint_hits += mask.bit_count()
            if query.max_response_time is not None:
                mask = self._cap_response_time(mask, query.max_response_time)
            matches = self._materialize(query, context, mask)
            if stats is not None:
                stats.matched += len(matches)
            results.append((matches, candidates))
        return results

    def _cap_response_time(self, mask: int, cap: float) -> int:
        response_time = self._response_time
        return _mask_from_indices(
            [i for i in _bit_indices(mask) if response_time[i] <= cap]
        )

    def _materialize(
        self, query: BrokerQuery, context: MatchContext, mask: int
    ) -> List[Match]:
        """Fetch survivors and rank them with the shared scoring
        function — identical arithmetic to the scan, so equal scores."""
        names = self._names
        fetch = self._fetch
        matches = []
        for i in _bit_indices(mask):
            ad = fetch(names[i])
            matched_slots = _match_slots(query, ad)
            matches.append(Match(
                advertisement=ad,
                score=score_match(query, ad, context),
                matched_slots=tuple(matched_slots),
            ))
        matches.sort(key=lambda m: (-m.score, m.agent_name))
        return matches
