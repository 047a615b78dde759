"""How much raw work a specification does.

Production needs no counters of its own for the Section 2.2 tests: a
covering or merge-pair memo miss *is* one raw test, and the dispatch
plane counts its residual constraint evaluations in its broker's
registry.  The brute-force specifications have neither memos nor
registries, so they take the counted tests of a :class:`RawWork` as
arguments — the numbers the benchmarks set against production's.
"""

from repro.filters.covering import filter_covers
from repro.filters.filter import Filter
from repro.filters.merging import try_merge_pair


class RawWork:
    """Raw covering tests, pair merges and constraint evaluations performed."""

    def __init__(self):
        self.covering_calls = 0
        self.merge_calls = 0
        self.constraint_evals = 0

    def covers(self, covering, covered):
        """:func:`filter_covers`, counted."""
        self.covering_calls += 1
        return filter_covers(covering, covered)

    def merge(self, left, right):
        """:func:`try_merge_pair`, counted, with its covering tests counted too."""
        self.merge_calls += 1
        return try_merge_pair(left, right, covers=self.covers)

    def matches(self, filter_, attributes):
        """``filter_.matches(attributes)``, counting every constraint it evaluates."""
        if type(filter_).matches is not Filter.matches:
            # MatchAll / MatchNone (and opaque subclasses) decide without
            # evaluating constraints.
            return filter_.matches(attributes)
        for name, constraint in filter_.constraint_items():
            self.constraint_evals += 1
            if name in attributes:
                if not constraint.matches(attributes[name]):
                    return False
            elif not constraint.matches_absent():
                return False
        return True

