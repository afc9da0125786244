"""Batch-parallel Fibonacci-heap bucketing (Shi--Shun).

Theorem 4.2's work bound relies on a bucketing structure with O(1)-amortized
inserts and updates and O(log n)-amortized extract-min --- the batch-parallel
Fibonacci heap of Shi and Shun [62].  The paper *uses* Julienne in practice
("we found it to be more efficient in practice") but proves its bounds with
this structure, so both live in this package behind one interface.

This is a genuine Fibonacci heap whose nodes are *buckets* (sets of
positions sharing a value) rather than single elements: insertions and
updates hash into a value->node map, and extract-min consolidates as
usual.  Because peeling only ever decreases values, updates are
decrease-key-like and never violate the heap order downward.
"""

from __future__ import annotations

import numpy as np

from ..parallel.runtime import CostTracker, _log2


class _Node:
    __slots__ = ("value", "members", "parent", "child", "left", "right",
                 "degree", "mark")

    def __init__(self, value: int):
        self.value = value
        self.members: set[int] = set()
        self.parent = None
        self.child = None
        self.left = self
        self.right = self
        self.degree = 0
        self.mark = False


class FibonacciBucketing:
    """A Fibonacci heap of buckets, matching :class:`JulienneBucketing`'s API."""

    def __init__(self, values, tracker: CostTracker | None = None,
                 window: int = 0):
        del window  # accepted for interface compatibility
        self.tracker = tracker
        self._min: _Node | None = None
        self._nodes: dict[int, _Node] = {}  # value -> bucket node
        self.values = np.asarray(values, dtype=np.int64).copy()
        self.alive = np.ones(self.values.size, dtype=bool)
        self.remaining = 0
        self.peel_floor = 0  # value of the most recently extracted bucket
        for k, value in enumerate(self.values.tolist()):
            self._insert(k, value)

    # -- heap internals -------------------------------------------------------

    def _charge(self, work: float, span: float = 0.0) -> None:
        if self.tracker is not None:
            self.tracker.add_work(work)
            if span:
                self.tracker.add_span(span)

    def _add_root(self, node: _Node) -> None:
        if self._min is None:
            node.left = node.right = node
            self._min = node
        else:
            node.left = self._min
            node.right = self._min.right
            self._min.right.left = node
            self._min.right = node
            if node.value < self._min.value:
                self._min = node

    def _remove_from_list(self, node: _Node) -> None:
        node.left.right = node.right
        node.right.left = node.left
        node.left = node.right = node

    def _bucket(self, value: int) -> _Node:
        node = self._nodes.get(value)
        if node is None:
            node = _Node(value)
            self._nodes[value] = node
            self._add_root(node)
        return node

    def _insert(self, position: int, value: int) -> None:
        self._charge(1.0)
        self._bucket(value).members.add(position)
        self.remaining += 1

    def _consolidate(self) -> None:
        if self._min is None:
            return
        roots = []
        node = self._min
        while True:
            roots.append(node)
            node = node.right
            if node is self._min:
                break
        degree_table: dict[int, _Node] = {}
        for node in roots:
            node.parent = None
            x = node
            while x.degree in degree_table:
                y = degree_table.pop(x.degree)
                if y.value < x.value:
                    x, y = y, x
                # Link y under x.
                self._remove_from_list(y)
                y.parent = x
                y.mark = False
                if x.child is None:
                    x.child = y
                    y.left = y.right = y
                else:
                    y.left = x.child
                    y.right = x.child.right
                    x.child.right.left = y
                    x.child.right = y
                x.degree += 1
            degree_table[x.degree] = x
        self._min = None
        for node in degree_table.values():
            node.left = node.right = node
            node.parent = None
            if self._min is None:
                self._min = node
            else:
                self._add_root(node)

    def _cut_to_root(self, node: _Node) -> None:
        parent = node.parent
        if parent is None:
            return
        if parent.child is node:
            parent.child = node.right if node.right is not node else None
        self._remove_from_list(node)
        parent.degree -= 1
        node.parent = None
        node.mark = False
        self._add_root(node)
        # Cascading cut.
        if parent.parent is not None:
            if not parent.mark:
                parent.mark = True
            else:
                self._cut_to_root(parent)

    # -- public API ------------------------------------------------------------

    def __len__(self) -> int:
        return self.remaining

    def next_bucket(self) -> tuple[int, np.ndarray]:
        """Extract the minimum bucket: ``(value, positions)``."""
        while self._min is not None and not self._min.members:
            self._pop_min_node()
        if self._min is None or self.remaining == 0:
            raise IndexError("bucketing structure is empty")
        node = self._min
        value = node.value
        self.peel_floor = value
        members = np.fromiter(node.members, dtype=np.int64,
                              count=len(node.members))
        self.remaining -= len(node.members)
        self.alive[members] = False
        node.members = set()
        self._pop_min_node()
        self._charge(float(members.size) + _log2(len(self._nodes) + 2),
                     _log2(len(self._nodes) + 2))
        return value, np.sort(members)

    def _pop_min_node(self) -> None:
        node = self._min
        if node is None:
            return
        del self._nodes[node.value]
        child = node.child
        if child is not None:
            kids = []
            k = child
            while True:
                kids.append(k)
                k = k.right
                if k is child:
                    break
            for k in kids:
                k.parent = None
                self._remove_from_list(k)
                self._add_root(k)
        if node.right is node:
            self._min = None
        else:
            self._min = node.right
            self._remove_from_list(node)
            self._consolidate()
        if self._min is not None:
            # Restore the min pointer after consolidation.
            best = self._min
            cur = self._min.right
            while cur is not self._min:
                if cur.value < best.value:
                    best = cur
                cur = cur.right
            self._min = best

    def update(self, positions, new_values) -> None:
        """Move distinct positions to (lower) buckets; clamps at the
        current peel level and skips extracted positions."""
        positions = np.atleast_1d(np.asarray(positions, dtype=np.int64))
        new_values = np.atleast_1d(np.asarray(new_values, dtype=np.int64))
        floor = self.peel_floor
        for k, value in zip(positions.tolist(), new_values.tolist()):
            if not self.alive[k]:
                continue
            value = max(value, floor)
            old = int(self.values[k])
            if value == old:
                continue
            self._charge(1.0)
            self._nodes[old].members.discard(k)
            target = self._nodes.get(value)
            if target is None:
                target = _Node(value)
                self._nodes[value] = target
                self._add_root(target)
            target.members.add(k)
            self.values[k] = value
        if self.tracker is not None:
            self.tracker.add_span(_log2(max(1, positions.size)) ** 2)

    def value_of(self, position: int) -> int:
        """Current bucket value of a position (alive or not)."""
        return int(self.values[position])
