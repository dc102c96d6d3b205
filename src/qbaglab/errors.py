"""Exception types shared across the package.

The CLI maps these onto stable exit codes, so keep the hierarchy flat and
the distinctions meaningful: graph problems, semantics problems, bad
contributor queries, and blown evaluation budgets are different failures.
"""

from __future__ import annotations


class QbagError(Exception):
    """Base class for all errors raised by this package."""


class GraphError(QbagError):
    """The graph is structurally unusable (cycle, unknown id, bad strength)."""


class UnknownArgumentError(GraphError):
    def __init__(self, ids):
        self.ids = tuple(sorted(ids))
        super().__init__(f"unknown argument id(s): {', '.join(self.ids)}")


class CycleError(GraphError):
    def __init__(self, cycle):
        self.cycle = list(cycle)
        super().__init__(f"cycle: [{','.join(self.cycle)}]")


class StrengthRangeError(GraphError):
    def __init__(self, arg, value):
        self.arg = arg
        self.value = value
        super().__init__(f"initial strength of {arg!r} is {value}, outside [0, 1]")


class GraphFormatError(GraphError):
    """A graph document could not be parsed into a Qbag."""


class SemanticsError(QbagError):
    """Unknown semantics name or malformed custom semantics."""


class InfluenceDomainError(SemanticsError):
    """Aggregate fell outside the influence function's domain (Linear(k) only)."""

    def __init__(self, aggregate, k):
        self.aggregate = aggregate
        self.k = k
        super().__init__(
            f"aggregate {aggregate} outside the Linear({k}) domain [-{k}, {k}]"
        )


class ContributorError(QbagError):
    """Invalid set contributor: topic inside the set, unknown ids, empty set
    where the function needs members, or a partition that does not partition;
    also a query setting out of range (grid step, Monte-Carlo sample count)."""


class TopicInSetError(ContributorError):
    """The contributor set contains the topic argument itself."""


class BudgetError(QbagError):
    """Exact computation would exceed the evaluation budget."""

    def __init__(self, needed, budget):
        self.needed = needed
        self.budget = budget
        super().__init__(
            f"exact computation needs about {needed} strength evaluations, "
            f"budget is {budget}; rerun with Monte-Carlo sampling enabled "
            f"or raise the budget"
        )


class UnknownFixtureError(QbagError, KeyError):
    """An unknown fixture id, or one with no reproduction claims; still a KeyError."""

    __str__ = QbagError.__str__  # the message, not KeyError's repr of it


class PartitionSpaceError(QbagError):
    """Too many elements to enumerate all set partitions."""

    def __init__(self, size, limit):
        self.size = size
        self.limit = limit
        super().__init__(
            f"cannot enumerate partitions of a {size}-element set (limit {limit})"
        )
