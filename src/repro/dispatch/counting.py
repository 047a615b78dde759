"""The counting pass mapping satisfied predicates back to filters.

Classic counting-based matching (Yan/Garcia-Molina; Siena's counting
algorithm): after the :class:`~repro.dispatch.predicate_index.PredicateIndex`
has produced the set of predicates a notification satisfies, bump a
per-filter counter for every filter referencing each satisfied predicate.
A filter matches exactly when its counter reaches its arity (its number
of presence-requiring predicates), because each predicate fires at most
once per notification.

The :class:`BitsetMatcher` does that counting word-wide.  Each
predicate's referencing filters are one big-int bitmask, kept in place by
the index (``PredicateIndex.pid_masks``; ``DispatchStats.bitset_rebuilds``
counts the masks its adds and removes write), per-filter counts are kept
in **bit-sliced planes** (plane ``i`` holds bit ``i`` of every filter's
count), and a satisfied predicate is applied to *all* its filters with a
handful of word-wide AND/XOR operations instead of a scalar loop.
Near-universal ("hot") predicates are lifted out of the counting arity
entirely: a satisfied hot predicate costs nothing, an unsatisfied one
vetoes its filters with a single mask.  The matcher keeps only O(filters)
metadata (hot set, arity planes, counted mask), recomputed on the first
match after the index's filters changed.

The match set is pinned against the brute force of
``tests/oracles/matching.py`` in ``tests/dispatch/``.
"""

from __future__ import annotations

from typing import Any, List, Mapping, Set, Tuple

from repro.dispatch.predicate_index import PredicateIndex
from repro.filters.filter import Filter

if hasattr(int, "bit_count"):  # Python >= 3.10

    def _popcount(value: int) -> int:
        return value.bit_count()

else:  # pragma: no cover - the py3.9 CI axis

    def _popcount(value: int) -> int:
        return bin(value).count("1")


#: A predicate is "hot" when at least this many filters reference it ...
_HOT_MIN_SHARERS = 8
#: ... and they make up at least this fraction of the counted filters.
_HOT_FRACTION = 0.75


class BitsetMatcher:
    """Evaluate notifications against a :class:`PredicateIndex` by bitset counting.

    Compiled metadata (recomputed whenever ``index.version`` moved, see
    ``_compile``):

    * ``_arity_planes`` — bit-sliced residual arities: plane ``i`` has
      bit ``fid`` set when bit ``i`` of the filter's residual arity (its
      arity minus its hot predicates) is set;
    * ``_counted_mask`` — every live non-opaque fid (always-match
      filters carry residual arity 0 and fall out of the plane equality
      with zero work);
    * ``_hot_pids`` — predicates lifted out of the counting arity.

    A pass adds each satisfied cold predicate's mask
    (``index.pid_masks[pid]``) into fresh count planes with carry
    propagation, then matches are exactly
    ``counted & AND_i ~(plane_i XOR arity_plane_i)`` minus the filters
    vetoed by unsatisfied hot predicates.  Counts cannot overflow the
    planes: a filter's count only ever reaches its own residual arity,
    which sized the planes.  The matcher counts its work in the index's
    stats sink.
    """

    __slots__ = ("index", "stats", "_version", "_arity_planes", "_counted_mask", "_hot_pids")

    def __init__(self, index: PredicateIndex) -> None:
        self.index = index
        self.stats = index.stats
        self._version = -1  # compiled for no state of the index yet
        self._arity_planes: List[int] = []
        self._counted_mask = 0
        self._hot_pids: Set[int] = set()

    def _compile(self) -> None:
        """Recompute the O(filters) metadata from the index's live masks."""
        index = self.index
        opaque = index.opaque_fids
        fid_filter = index.fid_filter
        fid_pids = index._fid_pids
        counted_fids = [
            fid
            for fid in range(len(fid_filter))
            if fid_filter[fid] is not None and fid not in opaque
        ]
        hot: Set[int] = set()
        if len(counted_fids) >= _HOT_MIN_SHARERS:
            threshold = max(_HOT_MIN_SHARERS, _HOT_FRACTION * len(counted_fids))
            for pid, mask in enumerate(index.pid_masks):
                if _popcount(mask) >= threshold:
                    hot.add(pid)
        self._hot_pids = hot
        counted_mask = 0
        max_arity = 0
        residuals: List[Tuple[int, int]] = []
        for fid in counted_fids:
            counted_mask |= 1 << fid
            pids = fid_pids[fid]
            arity = len(pids)
            if hot:
                for pid in pids:
                    if pid in hot:
                        arity -= 1
            if arity:
                residuals.append((fid, arity))
                if arity > max_arity:
                    max_arity = arity
        planes = [0] * max_arity.bit_length()
        for fid, arity in residuals:
            bit = 1 << fid
            plane = 0
            while arity:
                if arity & 1:
                    planes[plane] |= bit
                arity >>= 1
                plane += 1
        self._counted_mask = counted_mask
        self._arity_planes = planes
        self._version = index.version

    # -- matching ------------------------------------------------------
    def match(self, attributes: Mapping[str, Any]) -> List[Filter]:
        """All registered filters matching *attributes* (arbitrary order)."""
        fid_filter = self.index.fid_filter
        return [fid_filter[fid] for fid in self.match_fids(attributes)]

    def match_fids(self, attributes: Mapping[str, Any]) -> List[int]:
        """Fids of the matching filters (the word-wide core)."""
        index = self.index
        if self._version != index.version:
            self._compile()
        satisfied = index.satisfied_pids(attributes)
        hot = self._hot_pids
        masks = index.pid_masks
        arity_planes = self._arity_planes
        planes = [0] * len(arity_planes)
        ops = 0
        skipped = 0
        satisfied_hot: Set[int] = set()
        for pid in satisfied:
            if hot and pid in hot:
                # Shared-predicate skip: the whole fan-out costs nothing.
                satisfied_hot.add(pid)
                skipped += 1
                continue
            mask = masks[pid]
            plane = 0
            while mask:
                carry = planes[plane] & mask
                planes[plane] ^= mask
                ops += 2
                mask = carry
                plane += 1
        matched = self._counted_mask
        for plane in range(len(planes)):
            matched &= ~(planes[plane] ^ arity_planes[plane])
            ops += 1
        for pid in hot:
            if pid not in satisfied_hot:
                # Unsatisfied hot predicate: one veto covers every filter
                # that required it.
                matched &= ~masks[pid]
                ops += 1
        stats = self.stats
        stats.filters_matched += _popcount(matched)
        out: List[int] = []
        while matched:
            low = matched & -matched
            out.append(low.bit_length() - 1)
            matched ^= low
        if index.opaque_fids:
            fid_filter = index.fid_filter
            for fid in index.opaque_fids:
                # A whole-filter evaluation the index could not answer
                # from its buckets: counted like the residual evals.
                stats.constraint_evals += 1
                if fid_filter[fid].matches(attributes):
                    out.append(fid)
                    stats.filters_matched += 1
        stats.matches += 1
        stats.satisfied_predicates += len(satisfied)
        stats.mask_ops += ops
        stats.predicates_skipped_shared += skipped
        return out
