"""Bin-packing reductions and a small brute-force decider.

The exact variant demands every bin filled to exactly the capacity; padding
with unit items converts the ordinary variant into it.  An exact instance
maps to an exploration instance on a three-level tree: a root joined to one
star center per item, each center carrying size-minus-one leaves, with
budget twice the capacity.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import ImmediateNo, NotExact, TooLarge
from .graphs import ExplorationInstance, Multigraph

MAX_REDUCTION_SIZE = 100_000  # padded items or tree vertices a reduction builds


class _BinPackingFields(NamedTuple):
    sizes: tuple[int, ...]  # item order matters for the tree construction
    capacity: int
    bins: int
    exact: bool = False


class BinPackingInstance(_BinPackingFields):
    __slots__ = ()

    def __new__(cls, sizes: tuple[int, ...], capacity: int, bins: int, exact: bool = False):
        if any(s < 1 for s in sizes):
            raise ValueError("item sizes must be positive")
        if capacity < 1 or bins < 1:
            raise ValueError("capacity and bin count must be positive")
        if exact and sum(sizes) != capacity * bins:
            raise ValueError("exact instances require total size = capacity * bins")
        return super().__new__(cls, sizes, capacity, bins, exact)

    @property
    def total(self) -> int:
        return sum(self.sizes)


def _check_size(what: str, count: int) -> None:
    if count > MAX_REDUCTION_SIZE:
        raise TooLarge(f"reduction needs {count} {what}, limit {MAX_REDUCTION_SIZE}")


def binpacking_to_exact(inst: BinPackingInstance) -> BinPackingInstance:
    """Pad with unit items until the total is exactly capacity * bins.

    Yes-instances map to yes-instances and vice versa: leftover space in any
    packing absorbs the units, and dropping them from an exact packing never
    overfills.
    """
    slack = inst.capacity * inst.bins - inst.total
    if slack < 0:
        raise ImmediateNo(
            f"total size {inst.total} exceeds {inst.capacity} * {inst.bins}"
        )
    _check_size("padded items", len(inst.sizes) + slack)
    return BinPackingInstance(
        sizes=inst.sizes + (1,) * slack,
        capacity=inst.capacity,
        bins=inst.bins,
        exact=True,
    )


def bin_to_rob(inst: BinPackingInstance) -> ExplorationInstance:
    """Map an exact instance to exploration on a tree of stars.

    Vertex numbering: root 0, then one star center per item in input order,
    then the leaves grouped by item.  Budget is twice the capacity.
    """
    if not inst.exact:
        raise NotExact("the tree reduction needs an exact instance")
    _check_size("tree vertices", 1 + inst.total)
    centers = list(range(1, len(inst.sizes) + 1))
    pairs = [(0, c) for c in centers]
    nxt = len(inst.sizes) + 1
    for item, size in enumerate(inst.sizes):
        for _ in range(size - 1):
            pairs.append((centers[item], nxt))
            nxt += 1
    tree = Multigraph(nxt, pairs)
    return ExplorationInstance(tree, 0, inst.bins, budget=2 * inst.capacity)


def brute_binpacking(inst: BinPackingInstance) -> bool:
    """Exhaustive assignment search honoring the exact flag.

    The cap leaves room for unit-padded instances, whose item count is the
    total size rather than the original length.
    """
    if len(inst.sizes) > 16 or inst.bins > 4:
        raise TooLarge("brute force capped at 16 items and 4 bins")
    if inst.exact and inst.total != inst.capacity * inst.bins:
        return False
    if inst.total > inst.capacity * inst.bins:
        return False
    items = sorted(inst.sizes, reverse=True)
    loads = [0] * inst.bins

    def place(idx: int) -> bool:
        if idx == len(items):
            return not inst.exact or all(l == inst.capacity for l in loads)
        tried: set[int] = set()
        for b in range(inst.bins):
            if loads[b] in tried:  # identical loads are interchangeable
                continue
            tried.add(loads[b])
            if loads[b] + items[idx] <= inst.capacity:
                loads[b] += items[idx]
                if place(idx + 1):
                    loads[b] -= items[idx]
                    return True
                loads[b] -= items[idx]
        return False

    return place(0)
