"""The counting pass mapping satisfied predicates back to filters.

Classic counting-based matching (Yan/Garcia-Molina; Siena's counting
algorithm): after the :class:`~repro.dispatch.predicate_index.PredicateIndex`
has produced the set of predicates a notification satisfies, bump a
per-filter counter for every filter referencing each satisfied predicate.
A filter matches exactly when its counter reaches its arity (its number
of presence-requiring predicates), because each predicate fires at most
once per notification.

The :class:`BitsetMatcher` does that counting word-wide.  Each
predicate's referencing-filter set is compiled into one big-int bitmask,
per-filter counts are kept in **bit-sliced planes** (plane ``i`` holds
bit ``i`` of every filter's count), and a satisfied predicate is applied
to *all* its filters with a handful of word-wide AND/XOR operations
instead of a scalar loop.  Near-universal ("hot") predicates are lifted
out of the counting arity entirely: a satisfied hot predicate costs
nothing, an unsatisfied one vetoes its filters with a single mask.  Masks
are recompiled lazily and bucket-wise from the index's structural-change
notifications (dirty predicates only, never a full rebuild on churn).

The match set is pinned against the brute force of
``tests/oracles/matching.py`` in ``tests/dispatch/``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Set, Tuple

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

    Compiled state (all lazily rebuilt, see ``_recompile``):

    * ``_pid_masks[pid]`` — one big int per predicate with bit ``fid``
      set for every filter referencing it;
    * ``_arity_planes`` — bit-sliced residual arities: plane ``i`` has
      bit ``fid`` set when bit ``i`` of the filter's residual arity (its
      arity minus its hot predicates) is set;
    * ``_counted_mask`` — every live non-opaque fid (always-match
      filters carry residual arity 0 and fall out of the plane equality
      with zero work);
    * ``_hot_pids`` — predicates lifted out of the counting arity.

    A pass adds each satisfied cold predicate's mask into fresh count
    planes with carry propagation, then matches are exactly
    ``counted & AND_i ~(plane_i XOR arity_plane_i)`` minus the filters
    vetoed by unsatisfied hot predicates.  Counts cannot overflow the
    planes: a filter's count only ever reaches its own residual arity,
    which sized the planes.

    The matcher counts its work in the index's stats sink and registers
    itself as a structural observer on *index*;
    after ``index.clear()`` (which drops observers) a new matcher must be
    built, mirroring how :class:`~repro.dispatch.plan.DispatchPlan`
    recreates its matcher on a full rebuild.
    """

    __slots__ = (
        "index",
        "stats",
        "_pid_masks",
        "_arity_planes",
        "_counted_mask",
        "_hot_pids",
        "_dirty_pids",
        "_meta_dirty",
    )

    def __init__(self, index: PredicateIndex) -> None:
        self.index = index
        self.stats = index.stats
        self._pid_masks: Dict[int, int] = {}
        self._arity_planes: List[int] = []
        self._counted_mask = 0
        self._hot_pids: Set[int] = set()
        # Adopt whatever the index already holds; churn arrives through
        # the observer callbacks from here on.
        self._dirty_pids: Set[int] = {
            pid for pid, fids in enumerate(index.pid_fids) if fids
        }
        self._meta_dirty = True
        index.add_observer(self)

    # -- structural-change observer (see PredicateIndex.add_observer) --
    def filter_added(self, fid: int, pids: Tuple[int, ...]) -> None:
        self._dirty_pids.update(pids)
        self._meta_dirty = True

    def filter_removed(self, fid: int, pids: Tuple[int, ...]) -> None:
        self._dirty_pids.update(pids)
        self._meta_dirty = True

    # -- compilation ---------------------------------------------------
    def _recompile(self) -> None:
        """Bring the compiled state up to date (dirty buckets only).

        The cheap whole-index metadata (hot set, residual-arity planes,
        counted mask — O(filters) to rebuild) is recomputed on any
        structural change; the expensive part, the per-predicate masks,
        is recompiled only for the predicates the churn actually touched.
        """
        index = self.index
        rebuilt = 0
        if self._meta_dirty:
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
                for pid, fids in enumerate(index.pid_fids):
                    if len(fids) >= threshold:
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
            self._meta_dirty = False
        if self._dirty_pids:
            pid_fids = index.pid_fids
            masks = self._pid_masks
            for pid in self._dirty_pids:
                fids = pid_fids[pid] if pid < len(pid_fids) else ()
                if fids:
                    mask = 0
                    for fid in fids:
                        mask |= 1 << fid
                    masks[pid] = mask
                    rebuilt += 1
                elif masks.pop(pid, None) is not None:
                    rebuilt += 1
            self._dirty_pids.clear()
        if rebuilt:
            self.stats.bitset_rebuilds += rebuilt

    # -- matching ------------------------------------------------------
    def match(self, attributes: Mapping[str, Any]) -> List[Filter]:
        """All registered filters matching *attributes* (arbitrary order)."""
        fid_filter = self.index.fid_filter
        return [fid_filter[fid] for fid in self.match_fids(attributes)]

    def match_fids(self, attributes: Mapping[str, Any]) -> List[int]:
        """Fids of the matching filters (the word-wide core)."""
        if self._meta_dirty or self._dirty_pids:
            self._recompile()
        index = self.index
        satisfied = index.satisfied_pids(attributes)
        hot = self._hot_pids
        masks = self._pid_masks
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
