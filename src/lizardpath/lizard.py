"""Priority structure backing the correction phase: the lizard entity.

Each distinct key has one item, its agency, holding the first node
stored under that key.  Two linked systems thread the agencies:

* a binary search tree over the distinct keys,
* an ascending doubly-linked list (the ARA) threading the same agencies,
  giving O(1) access to the minimum and to in-order neighbors.

The other nodes of equal key, the cousins, are ids in the agency's
insertion-ordered ``cousins`` dict, so a cousin leaves in O(1), the
oldest one takes over in O(1) when the agency's own node leaves, and a
batch of equal keys comes out in the order the nodes went in.  An index
maps every stored node, cousins included, to its key's agency.

The ARA makes deletion constant-bounded: when a BST node with two
children goes away, its replacement is one ARA step to the right, never a
subtree descent.  Insertion keeps the tree's height logarithmic for any
key order, scapegoat style (Galperin & Rivest 1993, with alpha = 2/3):
when a fresh agency lands deeper than log_{3/2} of the item count, the
lowest ancestor whose child on the path holds more than 2/3 of its
subtree is rebuilt into a balanced shape.  Every subtree's agencies are
one contiguous run of the ARA, so one climb from the leaf both sizes the
subtrees on the way and collects the scapegoat's run, by stepping the
ARA outward.  Deletion never rebalances, so the height stays within
log_{3/2} of the largest size the structure has reached.

Every operation charges an instrumented cost (the number of structure
nodes it touches), accumulated in :class:`CostCounters`.  Membership via
``node in le`` is plain bookkeeping and charges nothing.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, replace


class DuplicateNodeError(ValueError):
    def __init__(self, node: int):
        super().__init__(f"node {node} is already stored")
        self.node = node


class MissingNodeError(KeyError):
    def __init__(self, node: int):
        super().__init__(f"node {node} is not stored")
        self.node = node


class EmptyStructureError(IndexError):
    def __init__(self):
        super().__init__("structure is empty")


@dataclass
class CostCounters:
    """Per-operation cost charges and the deletion and batch tallies.

    total_cost is the running sum of all charges; deletions counts
    removed items for delete calls and reaped minimum batches; batches
    (not a charge) counts the reaped batches.  contains is never
    charged; the field is kept for the benchmark's record.
    """

    build: int = 0
    insert: int = 0
    delete: int = 0
    getmin: int = 0
    contains: int = 0
    deletions: int = 0
    batches: int = 0

    @property
    def total_cost(self) -> int:
        return self.build + self.insert + self.delete + self.getmin

    def as_cut_agency(self) -> CostCounters:
        """The same run charged as cut_agency: each reaped batch costs 3
        and counts one deletion, in place of 2 and one deletion per item."""
        reaped = self.getmin // 2
        return replace(self, getmin=3 * self.batches, deletions=self.deletions - reaped + self.batches)


class LizardItem:
    """The agency of one distinct key: its first node, the cousins, and
    the BST and ARA links.

    ``cousins`` is None until a second node takes the key; from then on
    it maps the other nodes of the key to None in insertion order.  An
    OrderedDict, not a dict, because the hand-over pops its oldest node:
    a plain dict keeps the popped slots at its front until it is resized,
    so n hand-overs in a row would rescan them in O(n^2).  A removed
    agency keeps its links, but no stored item links to it, so reference
    counting frees it at once.
    """

    __slots__ = ("node", "key", "cousins", "left", "right", "up", "prev", "next")

    def __init__(self, node: int, key: int):
        self.node = node
        self.key = key
        self.cousins: OrderedDict[int, None] | None = None
        self.left: LizardItem | None = None
        self.right: LizardItem | None = None
        self.up: LizardItem | None = None  # BST parent
        self.prev: LizardItem | None = None  # ARA
        self.next: LizardItem | None = None

    def __repr__(self):
        return f"LizardItem(node={self.node}, key={self.key}, cousins={list(self.cousins or ())})"


class LizardEntity:
    """The assembled priority structure with instrumented costs."""

    __slots__ = ("bst_root", "ara_min", "counters", "_index")

    def __init__(self):
        self.bst_root: LizardItem | None = None
        self.ara_min: LizardItem | None = None
        self.counters = CostCounters()
        self._index: dict[int, LizardItem] = {}  # every stored node -> its key's agency

    @property
    def size(self) -> int:
        """The number of stored nodes, cousins included."""
        return len(self._index)

    def __contains__(self, node: int) -> bool:
        # uncharged O(1) bookkeeping test
        return node in self._index

    # -- construction ------------------------------------------------

    @classmethod
    def build(cls, items: list[tuple[int, int]]) -> LizardEntity:
        """Sort, group equal keys, thread the ARA, and pyramid the BST.

        Stable sorting keeps the first occurrence of each key as the
        agency and the rest as its cousins in input order.  Charge:
        |items| * ceil(log2 |items|) + |items|.
        """
        le = cls()
        k = len(items)
        if k == 0:
            return le
        index = le._index
        ordered = sorted(items, key=lambda t: t[1])
        agencies: list[LizardItem] = []
        item = None
        for node, key in ordered:
            if node in index:
                raise DuplicateNodeError(node)
            if item is not None and item.key == key:
                if item.cousins is None:
                    item.cousins = OrderedDict()
                item.cousins[node] = None
            else:
                item = LizardItem(node, key)
                agencies.append(item)
            index[node] = item
        prev = agencies[0]
        for item in agencies[1:]:
            prev.next = item
            item.prev = prev
            prev = item
        le.ara_min = agencies[0]
        le.bst_root = _pyramid(agencies, 0, len(agencies), None)
        le.counters.build += k * (k - 1).bit_length() + k
        return le

    # -- mutation ----------------------------------------------------

    def insert(self, node: int, key: int) -> None:
        """Store a node; an equal key adds it to that agency's cousins.

        A fresh key's agency is attached as a leaf; if that leaf is too
        deep, its scapegoat subtree is rebuilt (see
        :meth:`_rebuild_scapegoat`).  Charge: BST search-path length,
        plus one when a fresh agency is attached, plus any rebuild's
        charge.
        """
        index = self._index
        if node in index:
            raise DuplicateNodeError(node)
        up = None
        cur = self.bst_root
        visited = 0
        while cur is not None:
            visited += 1
            ck = cur.key
            if key == ck:
                if cur.cousins is None:
                    cur.cousins = OrderedDict()
                cur.cousins[node] = None
                index[node] = cur
                self.counters.insert += visited
                return
            up = cur
            cur = cur.left if key < ck else cur.right
        item = LizardItem(node, key)
        if up is None:
            self.bst_root = item
            self._ara_link(None, item, None)
        elif key < up.key:
            up.left = item
            self._ara_link(up.prev, item, up)
        else:
            up.right = item
            self._ara_link(up, item, up.next)
        index[node] = item
        item.up = up
        charge = visited + 1
        # the new leaf's depth is `visited`; rebuild when it exceeds
        # log_{3/2}(size), where the index already counts the new node
        if len(index) < _DEEPER_THAN_LOG[visited]:
            charge += self._rebuild_scapegoat(item)
        self.counters.insert += charge

    def delete(self, node: int) -> None:
        """Remove one node: a cousin, a hand-over, or a BST excision.

        An agency with cousins stays in place and its head cousin, the
        oldest, takes over its node.  Charge 2 for a cousin, 4 for an
        agency's own node; one deletion counted.
        """
        item = self._index.pop(node, None)
        if item is None:
            raise MissingNodeError(node)
        cousins = item.cousins
        if node != item.node:
            del cousins[node]
            self.counters.delete += 2
        elif cousins:
            item.node = cousins.popitem(last=False)[0]
            self.counters.delete += 4
        else:
            self._excise_agency(item)
            self.counters.delete += 4
        self.counters.deletions += 1

    def get_min_batch(self) -> list[int]:
        """Remove and return every node holding the minimum key.

        The minimum agency has no left child, so it leaves the BST by
        handing its right subtree to its parent's left link (or to the
        root), and the ARA head moves one step along ``next``.  Charge 2
        per item, each counted as a deletion, and one batch;
        :meth:`CostCounters.as_cut_agency` gives the per-batch charging.
        """
        agency = self.ara_min
        if agency is None:
            raise EmptyStructureError()
        nodes = [agency.node, *(agency.cousins or ())]
        kbatch = len(nodes)
        up = agency.up
        right = agency.right
        if up is None:
            self.bst_root = right
        else:
            up.left = right
        if right is not None:
            right.up = up
        after = agency.next
        self.ara_min = after
        if after is not None:
            after.prev = None
        index = self._index
        for n in nodes:
            del index[n]
        self.counters.getmin += 2 * kbatch
        self.counters.deletions += kbatch
        self.counters.batches += 1
        return nodes

    def _rebuild_scapegoat(self, leaf: LizardItem) -> int:
        """Rebalance above a leaf that sits deeper than log_{3/2}(size).

        Climbs from the leaf to the first ancestor whose child on the
        path holds more than 2/3 of its subtree; one exists because the
        tree holds at most ``size`` nodes.  Every subtree on the way is
        one ARA run, so the climb keeps the current subtree's run and
        grows it by stepping the ARA: along ``next`` past an ancestor
        reached from the left and through its right subtree, along
        ``prev`` past one reached from the right and through its left
        subtree.  The run's length is the subtree size.  The scapegoat's
        run is then relinked balanced in its place.  Returns the charge:
        the nodes counted while searching (every node of the scapegoat
        subtree but the leaf) plus the nodes relinked, ``2 * size - 1``.
        """
        lo = hi = child = leaf
        before: list[LizardItem] = []  # the run left of the leaf, descending
        after = [leaf]  # the leaf and the run right of it, ascending
        child_size = 1
        while True:
            goat = child.up
            end = goat
            if goat.left is child:
                sub = goat.right
                while sub is not None:
                    end = sub
                    sub = sub.right
                while hi is not end:
                    hi = hi.next
                    after.append(hi)
            else:
                sub = goat.left
                while sub is not None:
                    end = sub
                    sub = sub.left
                while lo is not end:
                    lo = lo.prev
                    before.append(lo)
            goat_size = len(before) + len(after)
            if 3 * child_size > 2 * goat_size:
                break
            child = goat
            child_size = goat_size
        before.reverse()
        before += after
        up = goat.up
        self._transplant(up, goat, _pyramid(before, 0, goat_size, up))
        return 2 * goat_size - 1

    # -- link plumbing -----------------------------------------------

    def _ara_link(self, prev: LizardItem | None, item: LizardItem, nxt: LizardItem | None) -> None:
        """Splice item into the ARA between two neighbours (None at an end)."""
        item.prev = prev
        item.next = nxt
        if prev is None:
            self.ara_min = item
        else:
            prev.next = item
        if nxt is not None:
            nxt.prev = item

    def _ara_unlink(self, item: LizardItem) -> None:
        if item.prev is None:
            self.ara_min = item.next
        else:
            item.prev.next = item.next
        if item.next is not None:
            item.next.prev = item.prev

    def _excise_agency(self, item: LizardItem) -> None:
        """Remove a cousin-free agency from both BST and ARA.

        The two-child replacement is item.next, one ARA step to the
        right, which keeps the whole removal constant-bounded.  BST
        surgery runs first because it reads that successor link.
        """
        if item.left is None:
            self._transplant(item.up, item, item.right)
        elif item.right is None:
            self._transplant(item.up, item, item.left)
        else:
            succ = item.next  # in-order successor, inside item's right subtree
            if succ.up is not item:
                self._transplant(succ.up, succ, succ.right)
                succ.right = item.right
                succ.right.up = succ
            self._transplant(item.up, item, succ)
            succ.left = item.left
            succ.left.up = succ
        self._ara_unlink(item)

    def _transplant(self, up: LizardItem | None, old: LizardItem, new: LizardItem | None) -> None:
        """Hang subtree new where old hung below up (None: at the root).
        The caller passes up: in a rebuild, _pyramid has rewritten old.up."""
        if up is None:
            self.bst_root = new
        elif up.left is old:
            up.left = new
        else:
            up.right = new
        if new is not None:
            new.up = up


# _DEEPER_THAN_LOG[d] = ceil(1.5**d), so a leaf at depth d >= 1 is deeper
# than log_{3/2}(size) exactly when size < _DEEPER_THAN_LOG[d].  Depths stay
# within log_{3/2} of the peak size plus one, far below the table's end.
_DEEPER_THAN_LOG = [(3**d + 2**d - 1) // 2**d for d in range(128)]


def _pyramid(agencies: list[LizardItem], lo: int, hi: int, up: LizardItem | None) -> LizardItem:
    """Balanced BST over the non-empty agencies[lo:hi] by recursive
    midpoint; recurses only into non-empty halves."""
    mid = (lo + hi) // 2
    item = agencies[mid]
    item.up = up
    item.left = _pyramid(agencies, lo, mid, item) if lo < mid else None
    item.right = _pyramid(agencies, mid + 1, hi, item) if mid + 1 < hi else None
    return item
