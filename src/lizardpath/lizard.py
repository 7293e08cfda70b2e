"""Priority structure backing the correction phase: the lizard entity.

Three linked systems share one set of items:

* a binary search tree over the distinct keys (one representative per
  key, called the agency),
* an ascending doubly-linked list (the ARA) threading the same agencies,
  giving O(1) access to the minimum and to in-order neighbors,
* a circular cousin list per agency holding the other items of equal key.

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
``node in le`` is plain bookkeeping and charges nothing; the ``contains``
method is the charged structural inquiry.
"""

from __future__ import annotations

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
    (not a charge) counts the reaped batches.
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
        return self.build + self.insert + self.delete + self.getmin + self.contains

    def as_cut_agency(self) -> CostCounters:
        """The same run charged as cut_agency: each reaped batch costs 3
        and counts one deletion, in place of 2 and one deletion per item."""
        reaped = self.getmin // 2
        return replace(self, getmin=3 * self.batches, deletions=self.deletions - reaped + self.batches)


class LizardItem:
    """One stored (node, key) pair with its three link systems.

    Only the agency of a key participates in BST and ARA links; cousins
    carry only the circular cousin-list links.
    """

    __slots__ = (
        "node", "key", "left", "right", "up",
        "prev", "next", "cl_prev", "cl_next", "is_agency",
    )

    def __init__(self, node: int, key: int):
        self.node = node
        self.key = key
        self.left: LizardItem | None = None
        self.right: LizardItem | None = None
        self.up: LizardItem | None = None  # BST parent
        self.prev: LizardItem | None = None  # ARA
        self.next: LizardItem | None = None
        self.cl_prev: LizardItem | None = None  # cousin circle
        self.cl_next: LizardItem | None = None
        self.is_agency = False

    def __repr__(self):
        tag = "agency" if self.is_agency else "cousin"
        return f"LizardItem(node={self.node}, key={self.key}, {tag})"


class LizardEntity:
    """The assembled priority structure with instrumented costs."""

    __slots__ = ("bst_root", "ara_min", "ara_max", "size", "counters", "_index")

    def __init__(self):
        self.bst_root: LizardItem | None = None
        self.ara_min: LizardItem | None = None
        self.ara_max: LizardItem | None = None
        self.size = 0
        self.counters = CostCounters()
        self._index: dict[int, LizardItem] = {}

    def __len__(self) -> int:
        return self.size

    def __contains__(self, node: int) -> bool:
        # uncharged O(1) bookkeeping test; see contains() for the charged inquiry
        return node in self._index

    # -- construction ------------------------------------------------

    @classmethod
    def build(cls, items: list[tuple[int, int]]) -> LizardEntity:
        """Sort, group equal keys, thread the ARA, and pyramid the BST.

        Stable sorting keeps the first occurrence of each key as the
        agency.  Charge: |items| * ceil(log2 |items|) + |items|.
        """
        le = cls()
        k = len(items)
        if k == 0:
            return le
        index = le._index
        ordered = sorted(items, key=lambda t: t[1])
        agencies: list[LizardItem] = []
        for node, key in ordered:
            if node in index:
                raise DuplicateNodeError(node)
            item = LizardItem(node, key)
            index[node] = item
            if agencies and agencies[-1].key == key:
                _cl_append(agencies[-1], item)
            else:
                item.is_agency = True
                agencies.append(item)
        prev = agencies[0]
        for item in agencies[1:]:
            prev.next = item
            item.prev = prev
            prev = item
        le.ara_min = agencies[0]
        le.ara_max = agencies[-1]
        le.bst_root = _pyramid(agencies, 0, len(agencies), None)
        le.size = k
        le.counters.build += k * (k - 1).bit_length() + k
        return le

    # -- mutation ----------------------------------------------------

    def insert(self, node: int, key: int) -> None:
        """Place a new item; equal keys join the existing agency's circle.

        A fresh agency is attached as a leaf; if that leaf is too deep,
        its scapegoat subtree is rebuilt (see :meth:`_rebuild_scapegoat`).
        Charge: BST search-path length, plus one when a fresh agency is
        attached, plus any rebuild's charge.
        """
        if node in self._index:
            raise DuplicateNodeError(node)
        item = LizardItem(node, key)
        self._index[node] = item
        self.size += 1
        cur = self.bst_root
        if cur is None:
            item.is_agency = True
            self.bst_root = item
            self.ara_min = item
            self.ara_max = item
            self.counters.insert += 1
            return
        visited = 0
        while True:
            visited += 1
            ck = cur.key
            if key == ck:
                _cl_append(cur, item)
                self.counters.insert += visited
                return
            if key < ck:
                if cur.left is None:
                    cur.left = item
                    self._ara_link_before(cur, item)
                    break
                cur = cur.left
            else:
                if cur.right is None:
                    cur.right = item
                    self._ara_link_after(cur, item)
                    break
                cur = cur.right
        item.up = cur
        item.is_agency = True
        charge = visited + 1
        # the new leaf's depth is `visited`; rebuild when it exceeds log_{3/2}(size)
        if self.size < _DEEPER_THAN_LOG[visited]:
            charge += self._rebuild_scapegoat(item)
        self.counters.insert += charge

    def delete(self, node: int) -> None:
        """Remove one item: cousin unlink, agency promotion, or BST excision.

        Charge 2 for a cousin, 4 for any agency; one deletion counted.
        """
        item = self._index.pop(node, None)
        if item is None:
            raise MissingNodeError(node)
        if not item.is_agency:
            _cl_remove_cousin(item)
            self.counters.delete += 2
        elif item.cl_next is not None:
            self._promote(item)
            self.counters.delete += 4
        else:
            self._excise_agency(item)
            self.counters.delete += 4
        self.size -= 1
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
        nodes = [agency.node]
        cousin = agency.cl_next
        while cousin is not None and cousin is not agency:
            nodes.append(cousin.node)
            # unlinked, the reaped cousins are freed by reference counting
            nxt = cousin.cl_next
            cousin.cl_next = cousin.cl_prev = None
            cousin = nxt
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
        if after is None:
            self.ara_max = None
        else:
            after.prev = None
        _scrub(agency)
        index = self._index
        for n in nodes:
            del index[n]
        self.size -= kbatch
        self.counters.getmin += 2 * kbatch
        self.counters.deletions += kbatch
        self.counters.batches += 1
        return nodes

    def resort(self, node: int, new_key: int) -> None:
        """Re-key one item: delete then insert, both charged as usual."""
        if node not in self._index:
            raise MissingNodeError(node)
        self.delete(node)
        self.insert(node, new_key)

    def contains(self, node: int) -> bool:
        """Structural membership inquiry, charged like an insert search."""
        item = self._index.get(node)
        if item is None:
            return False
        key = item.key
        cur = self.bst_root
        visited = 0
        while cur is not None:
            visited += 1
            if key == cur.key:
                break
            cur = cur.left if key < cur.key else cur.right
        self.counters.contains += visited
        return True

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
        top = _pyramid(before, 0, goat_size, up)
        if up is None:
            self.bst_root = top
        elif up.left is goat:
            up.left = top
        else:
            up.right = top
        return 2 * goat_size - 1

    # -- link plumbing -----------------------------------------------

    def _ara_link_before(self, anchor: LizardItem, item: LizardItem) -> None:
        item.next = anchor
        item.prev = anchor.prev
        if anchor.prev is None:
            self.ara_min = item
        else:
            anchor.prev.next = item
        anchor.prev = item

    def _ara_link_after(self, anchor: LizardItem, item: LizardItem) -> None:
        item.prev = anchor
        item.next = anchor.next
        if anchor.next is None:
            self.ara_max = item
        else:
            anchor.next.prev = item
        anchor.next = item

    def _ara_unlink(self, item: LizardItem) -> None:
        if item.prev is None:
            self.ara_min = item.next
        else:
            item.prev.next = item.next
        if item.next is None:
            self.ara_max = item.prev
        else:
            item.next.prev = item.prev
        item.prev = None
        item.next = None

    def _promote(self, old: LizardItem) -> None:
        """Head cousin takes over the agency's tree and list position."""
        head = old.cl_next
        if head.cl_next is old:
            head.cl_next = None
            head.cl_prev = None
        else:
            tail = old.cl_prev
            head.cl_prev = tail
            tail.cl_next = head
        head.is_agency = True
        head.left = old.left
        head.right = old.right
        head.up = old.up
        if old.left is not None:
            old.left.up = head
        if old.right is not None:
            old.right.up = head
        if old.up is None:
            self.bst_root = head
        elif old.up.left is old:
            old.up.left = head
        else:
            old.up.right = head
        head.prev = old.prev
        head.next = old.next
        if old.prev is None:
            self.ara_min = head
        else:
            old.prev.next = head
        if old.next is None:
            self.ara_max = head
        else:
            old.next.prev = head
        _scrub(old)

    def _excise_agency(self, item: LizardItem) -> None:
        """Remove a cousin-free agency from both BST and ARA.

        The two-child replacement is item.next, one ARA step to the
        right, which keeps the whole removal constant-bounded.  BST
        surgery runs first because it reads that successor link.
        """
        if item.left is None:
            self._transplant(item, item.right)
        elif item.right is None:
            self._transplant(item, item.left)
        else:
            succ = item.next  # in-order successor, inside item's right subtree
            if succ.up is not item:
                self._transplant(succ, succ.right)
                succ.right = item.right
                succ.right.up = succ
            self._transplant(item, succ)
            succ.left = item.left
            succ.left.up = succ
        self._ara_unlink(item)
        _scrub(item)

    def _transplant(self, old: LizardItem, new: LizardItem | None) -> None:
        if old.up is None:
            self.bst_root = new
        elif old.up.left is old:
            old.up.left = new
        else:
            old.up.right = new
        if new is not None:
            new.up = old.up

    # -- inspection ---------------------------------------------------

    def agencies_in_order(self) -> list[LizardItem]:
        """In-order BST traversal (iterative)."""
        out: list[LizardItem] = []
        stack: list[LizardItem] = []
        cur = self.bst_root
        while cur is not None or stack:
            while cur is not None:
                stack.append(cur)
                cur = cur.left
            cur = stack.pop()
            out.append(cur)
            cur = cur.right
        return out

    def bst_height(self) -> int:
        height = 0
        stack: list[tuple[LizardItem, int]] = []
        if self.bst_root is not None:
            stack.append((self.bst_root, 1))
        while stack:
            item, depth = stack.pop()
            if depth > height:
                height = depth
            if item.left is not None:
                stack.append((item.left, depth + 1))
            if item.right is not None:
                stack.append((item.right, depth + 1))
        return height


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


def _cl_append(agency: LizardItem, item: LizardItem) -> None:
    """FIFO append into the agency's circular cousin list."""
    if agency.cl_next is None:
        agency.cl_next = item
        agency.cl_prev = item
        item.cl_prev = agency
        item.cl_next = agency
    else:
        tail = agency.cl_prev
        tail.cl_next = item
        item.cl_prev = tail
        item.cl_next = agency
        agency.cl_prev = item


def _cl_remove_cousin(item: LizardItem) -> None:
    before = item.cl_prev
    after = item.cl_next
    if before is after:  # lone cousin: the circle collapses
        before.cl_next = None
        before.cl_prev = None
    else:
        before.cl_next = after
        after.cl_prev = before
    item.cl_prev = None
    item.cl_next = None


def _scrub(item: LizardItem) -> None:
    item.left = None
    item.right = None
    item.up = None
    item.prev = None
    item.next = None
    item.cl_next = None
    item.cl_prev = None


def verify_structure(le: LizardEntity) -> str | None:
    """Walk all three systems and report the first invariant violation.

    Returns None when the structure is sound.  Test-only helper; cost is
    linear in the item count and nothing is charged.
    """
    if le.size == 0:
        if le.bst_root is not None or le.ara_min is not None or le.ara_max is not None:
            return "empty structure retains dangling entry pointers"
        if le._index:
            return "empty structure retains index entries"
        return None
    if le.bst_root is None or le.ara_min is None or le.ara_max is None:
        return "nonempty structure lost an entry pointer"
    if le.bst_root.up is not None:
        return "root has a parent link"

    in_order = le.agencies_in_order()
    for item in in_order:
        if not item.is_agency:
            return f"BST holds non-agency item {item!r}"
        if item.left is not None and item.left.up is not item:
            return f"left child of {item!r} has a bad parent link"
        if item.right is not None and item.right.up is not item:
            return f"right child of {item!r} has a bad parent link"
    for a, b in zip(in_order, in_order[1:]):
        if a.key >= b.key:
            return f"BST order violated: {a.key} before {b.key}"

    # ARA must thread exactly the in-order agency sequence
    chain: list[LizardItem] = []
    item = le.ara_min
    if item.prev is not None:
        return "ara_min has a predecessor"
    while item is not None:
        chain.append(item)
        if len(chain) > le.size:
            return "ARA chain longer than item count (cycle?)"
        if item.next is not None and item.next.prev is not item:
            return f"ARA backlink broken after {item!r}"
        item = item.next
    if chain[-1] is not le.ara_max:
        return "ARA chain does not end at ara_max"
    if len(chain) != len(in_order) or any(x is not y for x, y in zip(chain, in_order)):
        return "ARA sequence differs from BST in-order sequence"

    total = 0
    for agency in in_order:
        total += 1
        cousin = agency.cl_next
        if cousin is None:
            if agency.cl_prev is not None:
                return f"{agency!r} has a tail link but no cousins"
            continue
        seen = 0
        cur = cousin
        while cur is not agency:
            if cur is None:
                return f"cousin circle of {agency!r} is broken"
            if cur.is_agency:
                return f"cousin circle of {agency!r} contains an agency"
            if cur.key != agency.key:
                return f"cousin {cur!r} key differs from agency key {agency.key}"
            if cur.left or cur.right or cur.up or cur.prev or cur.next:
                return f"cousin {cur!r} carries tree or list links"
            nxt = cur.cl_next
            if nxt is None or nxt.cl_prev is not cur:
                return f"cousin circle backlink broken at {cur!r}"
            seen += 1
            if seen > le.size:
                return f"cousin circle of {agency!r} does not close"
            cur = nxt
        if agency.cl_prev is None or agency.cl_prev.cl_next is not agency:
            return f"tail link of {agency!r} is inconsistent"
        total += seen

    if total != le.size:
        return f"item walk found {total} items, size says {le.size}"
    if len(le._index) != le.size:
        return f"index holds {len(le._index)} entries, size says {le.size}"
    for node, item in le._index.items():
        if item.node != node:
            return f"index entry {node} points at item of node {item.node}"
    return None
