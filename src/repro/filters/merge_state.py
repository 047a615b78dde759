"""Incremental greedy merging: a merge forest over canonical filter keys.

:class:`~repro.routing.strategies.MergingStrategy` reduces a neighbour's
registered filters with :func:`~repro.filters.merging.merge_filters`, a
greedy fixpoint of :func:`~repro.filters.merging.try_merge_pair` attempts.
Routing changes re-run that fixpoint over almost exactly the same filters,
so nearly all of the work is recomputation.  This module removes it in
two layers:

* :class:`MergePairCache` memoises ``try_merge_pair`` results keyed by the
  two filters' canonical :meth:`~repro.filters.filter.Filter.key` tuples.
  A pair merge is a pure function of filter structure, so cached results
  (including the *failed* merges, cached as ``None``) **never need
  invalidation**; the cache survives arbitrary routing churn, is shared by
  every broker of a network (:class:`FilterCaches`), and is bounded
  (clear-on-cap, like the covering cache).  Because the greedy replay is deterministic, the
  *intermediate* merged filters it creates recur between replays too and
  hit the cache just like the inputs do — a re-merge after a delta only
  evaluates pairs involving changed filters.
* :class:`MergeState` maintains the greedy merge result as a **forest of
  merge groups**: the ordered output roots, the membership of every input
  filter key in its group, and the set of intermediate values the replay
  produced.  Two structural fast paths are exact (see the proofs in the
  method docstrings): appending a filter that merges with no recorded
  intermediate extends the forest by a singleton group, and removing a
  singleton root deletes its group — neither touches any other group.
  Everything else (removing a merged member, reordering, an appended
  filter that merges) falls back to a full — but cache-backed — replay
  that is **byte-identical** to ``merge_filters`` by construction (the
  property tests in ``tests/filters/test_merge_state.py`` enforce this).

Greedy merging is *order-dependent* (two differing attributes can each be
"the one mergeable attribute" depending on which pair merges first; see
``tests/filters/test_merging_properties.py`` for a pinned example), so the
incremental engine must preserve the exact canonical input order a scan
of the table sees — the same row-``seq`` order the forwarding state
already maintains.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.filters.covering_cache import CoveringCache
from repro.filters.filter import Filter, MatchNone
from repro.filters.merging import try_merge_pair

#: Cache slot marker distinguishing "merge failed (cached ``None``)" from
#: "pair never evaluated".
_ABSENT = object()

#: ``pair_merge(left, right)`` — a (usually cached) ``try_merge_pair``.
PairMergeFn = Callable[[Filter, Filter], Optional[Filter]]


class MergePairCache:
    """Memoise :func:`try_merge_pair` keyed by canonical filter-key pairs.

    The merged filter (or ``None`` for unmergeable pairs) depends only on
    the two filters' structure, so the cache never requires invalidation.
    A size cap bounds memory: when the cap is reached the cache is simply
    cleared, trading a one-off warm-up for a hard memory ceiling — the
    same policy as :class:`~repro.filters.covering_cache.CoveringCache`.
    ``misses`` counts the raw ``try_merge_pair`` runs.  Covering tests
    inside a merge run against *covering*, which is result-identical to
    the raw test.
    """

    __slots__ = ("covering", "_results", "hits", "misses", "evictions", "max_entries")

    def __init__(self, covering: CoveringCache, max_entries: int = 500_000) -> None:
        self.covering = covering
        self._results: Dict[Tuple[Any, Any], Optional[Filter]] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.max_entries = max_entries

    def merge(self, left: Filter, right: Filter) -> Optional[Filter]:
        """Cached equivalent of ``try_merge_pair(left, right)``."""
        key = (left.key(), right.key())
        cached = self._results.get(key, _ABSENT)
        if cached is not _ABSENT:
            self.hits += 1
            return cached  # type: ignore[return-value]
        result = try_merge_pair(left, right, covers=self.covering.covers)
        if len(self._results) >= self.max_entries:
            self._results.clear()
            self.evictions += 1
        self._results[key] = result
        self.misses += 1
        return result

    def clear(self) -> None:
        """Drop all cached results and reset the counters."""
        self._results.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def stats(self) -> Dict[str, int]:
        """Hit/miss accounting (used by benchmarks and tests)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": len(self._results),
        }

    def __len__(self) -> int:
        return len(self._results)


class FilterCaches:
    """The covering and merge-pair caches one network's brokers share.

    Both memoise pure functions of two filters, so every broker of a
    :class:`~repro.broker.network.PubSubNetwork` can share one pair —
    brokers on a path test the same filters — while a second network
    starts cold and its caches' ``misses`` count only its own raw work.
    """

    __slots__ = ("covering", "merge_pairs")

    def __init__(self) -> None:
        self.covering = CoveringCache()
        self.merge_pairs = MergePairCache(self.covering)


def merge_filters_annotated(
    filters: Sequence[Filter], pair_merge: PairMergeFn
) -> Tuple[List[Filter], Dict[Any, Any], Dict[Any, List[Any]], Dict[Any, Filter]]:
    """Greedy merge with group bookkeeping.

    Runs the **exact** loop of :func:`~repro.filters.merging.merge_filters`
    (same pass structure, same pair order, hence the same — possibly
    order-dependent — result) with *pair_merge* in place of the raw
    ``try_merge_pair``, and additionally reports the forest:

    Returns ``(result, member_root, root_members, intermediates)`` where
    ``member_root`` maps every input filter key to its group root's key,
    ``root_members`` maps a root key to its member keys (input order), and
    ``intermediates`` maps filter key → filter for **every value a group's
    accumulator ever held** — the inputs plus every merge product.  The
    intermediates are what makes :meth:`MergeState.add_only_fast_path`
    sound (an appended filter is only ever merge-tested against values
    from this set).

    Inputs must be canonical: distinct keys, no ``MatchNone`` (the delta
    forwarding state guarantees both).
    """
    working: List[Tuple[Filter, List[Any]]] = [
        (f, [f.key()]) for f in filters if not isinstance(f, MatchNone)
    ]
    intermediates: Dict[Any, Filter] = {f.key(): f for f, _ in working}
    changed = True
    while changed:
        changed = False
        result: List[Tuple[Filter, List[Any]]] = []
        consumed = [False] * len(working)
        for i, (candidate, candidate_members) in enumerate(working):
            if consumed[i]:
                continue
            current = candidate
            members = candidate_members
            for j in range(i + 1, len(working)):
                if consumed[j]:
                    continue
                merged = pair_merge(current, working[j][0])
                if merged is not None:
                    current = merged
                    if members is candidate_members:
                        members = list(candidate_members)
                    members.extend(working[j][1])
                    consumed[j] = True
                    changed = True
                    intermediates.setdefault(merged.key(), merged)
            result.append((current, members))
        working = result
    merged_filters = [value for value, _ in working]
    member_root: Dict[Any, Any] = {}
    root_members: Dict[Any, List[Any]] = {}
    for value, members in working:
        root_key = value.key()
        root_members[root_key] = members
        for member in members:
            member_root[member] = root_key
    return merged_filters, member_root, root_members, intermediates


class MergeState:
    """Delta-maintained greedy merge result for one ordered input sequence.

    ``update(ordered_filters)`` returns ``(merged, member_root)`` where
    ``merged`` is exactly ``merge_filters(ordered_filters)`` and
    ``member_root`` maps each input key to its merge group's root key.

    Change handling, from cheapest to most general:

    * **unchanged** input keys reuse the previous result outright;
    * **append fast path** — filters appended at the end that merge with
      none of the recorded intermediates extend the forest by singleton
      groups.  Exact because the greedy replay with the new filter ``f``
      appended runs identically to the old replay until ``f`` is reached,
      and only ever tests ``f`` against values the old replay's
      accumulators held — all members of the recorded intermediate set.
      If every such test fails, every pass replays verbatim and ``f``
      survives as its own trailing group;
    * **removal fast path** — removing a filter whose group is a
      *singleton* (it absorbed nothing and was absorbed by nothing)
      deletes only failed merge attempts from the replay, so every other
      group — and the output order — is untouched;
    * anything else falls back to a full replay through the merge-pair
      cache, which is the from-scratch algorithm verbatim: only pairs
      involving changed filters (and the new intermediates they create)
      are evaluated raw; every recurring pair is a cache hit.
    """

    __slots__ = (
        "pair_cache",
        "_keys",
        "_key_set",
        "result",
        "member_root",
        "_root_members",
        "_intermediates",
        "reuses",
        "fast_appends",
        "fast_removes",
        "replays",
    )

    def __init__(self, pair_cache: MergePairCache) -> None:
        self.pair_cache = pair_cache
        self._keys: Optional[Tuple[Any, ...]] = None
        self._key_set: set = set()
        self.result: List[Filter] = []
        self.member_root: Dict[Any, Any] = {}
        self._root_members: Dict[Any, List[Any]] = {}
        self._intermediates: Dict[Any, Filter] = {}
        self.reuses = 0
        self.fast_appends = 0
        self.fast_removes = 0
        self.replays = 0

    def update(
        self, ordered_filters: Sequence[Filter]
    ) -> Tuple[List[Filter], Dict[Any, Any]]:
        """Bring the forest in line with *ordered_filters* and return it.

        *ordered_filters* is the canonical input sequence (distinct keys,
        no ``MatchNone``, from-scratch order).  The returned list is
        shared, not copied — callers must not mutate it.
        """
        keys = tuple(filter_.key() for filter_ in ordered_filters)
        if keys == self._keys:
            self.reuses += 1
            return self.result, self.member_root
        if self._keys is not None and self._apply_fast_paths(ordered_filters, keys):
            self._keys = keys
            self._key_set = set(keys)
            return self.result, self.member_root
        self._replay(ordered_filters, keys)
        return self.result, self.member_root

    def stats(self) -> Dict[str, int]:
        """Fast-path / replay accounting (used by tests and benchmarks)."""
        return {
            "reuses": self.reuses,
            "fast_appends": self.fast_appends,
            "fast_removes": self.fast_removes,
            "replays": self.replays,
        }

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _apply_fast_paths(
        self, ordered_filters: Sequence[Filter], keys: Tuple[Any, ...]
    ) -> bool:
        """Try the exact structural fast paths; ``True`` when they applied.

        The state is only mutated after *every* check passed, so a
        ``False`` return leaves it ready for the full replay.
        """
        old_set = self._key_set
        new_set = set(keys)
        if len(new_set) != len(keys):
            return False  # duplicate keys: not a canonical input
        removed = old_set - new_set
        # Survivors must keep their relative order and every genuinely new
        # key must sit at the tail (that is where the canonical order puts
        # new filters; anything else is an order perturbation).
        survivors = tuple(key for key in self._keys or () if key in new_set)
        if keys[: len(survivors)] != survivors:
            return False
        appended = list(ordered_filters[len(survivors):])
        # Removals are only safe for singleton groups: the filter merged
        # with nothing and absorbed nothing, so the old replay only ever
        # *failed* merge attempts against it.
        for key in removed:
            members = self._root_members.get(key)
            if members is None or len(members) != 1:
                return False
        # Appends are only safe when the new filter merges with no value
        # any accumulator ever held (conservative superset of the pairs a
        # real replay would attempt).  Test against the post-removal
        # intermediates plus the previously accepted appends, without
        # mutating state yet.
        pair_merge = self.pair_cache.merge
        accepted: List[Filter] = []
        for filter_ in appended:
            for key, value in self._intermediates.items():
                if key in removed:
                    continue
                if pair_merge(value, filter_) is not None:
                    return False
            for value in accepted:
                if pair_merge(value, filter_) is not None:
                    return False
            accepted.append(filter_)
        # Commit.
        if removed:
            self.fast_removes += 1
            self.result = [
                value for value in self.result if value.key() not in removed
            ]
            for key in removed:
                del self._root_members[key]
                del self.member_root[key]
                self._intermediates.pop(key, None)
        if accepted:
            self.fast_appends += 1
            for filter_ in accepted:
                key = filter_.key()
                self.result.append(filter_)
                self.member_root[key] = key
                self._root_members[key] = [key]
                self._intermediates[key] = filter_
        return True

    def _replay(self, ordered_filters: Sequence[Filter], keys: Tuple[Any, ...]) -> None:
        self.replays += 1
        (
            self.result,
            self.member_root,
            self._root_members,
            self._intermediates,
        ) = merge_filters_annotated(ordered_filters, self.pair_cache.merge)
        self._keys = keys
        self._key_set = set(keys)
