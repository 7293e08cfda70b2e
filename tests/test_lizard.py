import gc
import math
import time

import pytest
from hypothesis import given, settings, strategies as st

from lizardpath import (
    DuplicateNodeError,
    EmptyStructureError,
    LizardEntity,
    LizardItem,
    MissingNodeError,
    SplitMix64,
)
from conftest import agencies_in_order, bst_height, run_lizard_fuzz, verify_structure


def ara_keys(le: LizardEntity) -> list[int]:
    keys = []
    item = le.ara_min
    while item is not None:
        keys.append(item.key)
        item = item.next
    return keys


class TestBuild:
    def test_empty(self):
        le = LizardEntity.build([])
        assert le.size == 0
        assert le.bst_root is None
        assert verify_structure(le) is None

    def test_equal_keys_group_behind_first_occurrence(self):
        le = LizardEntity.build([(10, 5), (11, 2), (12, 5)])
        assert le.size == 3
        assert ara_keys(le) == [2, 5]
        agency5 = le._index[10]
        assert agency5.node == 10
        assert le._index[12] is agency5  # one item per key, none for the cousin
        assert list(agency5.cousins) == [12]
        assert le._index[11].cousins is None
        assert verify_structure(le) is None

    def test_thousand_distinct_keys_build_balanced(self):
        rng = SplitMix64(42)
        keys = list({rng.below(10**9) for _ in range(1100)})[:1000]
        le = LizardEntity.build(list(enumerate(keys)))
        assert le.size == 1000
        assert bst_height(le) <= 11
        assert ara_keys(le) == sorted(keys)
        assert verify_structure(le) is None

    def test_duplicate_node_rejected(self):
        with pytest.raises(DuplicateNodeError):
            LizardEntity.build([(1, 5), (1, 6)])

    def test_build_charge(self):
        le = LizardEntity.build([(i, i) for i in range(100)])
        assert le.counters.build == 100 * 7 + 100  # ceil(log2 100) = 7
        assert LizardEntity.build([(0, 3)]).counters.build == 1


class TestInsert:
    def test_into_empty_becomes_root(self):
        le = LizardEntity()
        le.insert(7, 40)
        assert le.bst_root is le.ara_min
        assert le.bst_root.node == 7
        assert le.counters.insert == 1
        assert verify_structure(le) is None

    def test_between_existing_keys(self):
        le = LizardEntity.build([(0, 1), (1, 3)])
        le.insert(2, 2)
        assert ara_keys(le) == [1, 2, 3]
        assert verify_structure(le) is None

    def test_equal_key_joins_cousin_list(self):
        le = LizardEntity.build([(0, 5)])
        le.insert(1, 5)
        assert le.size == 2
        assert len(agencies_in_order(le)) == 1  # BST unchanged
        assert le._index[1] is le._index[0]
        assert list(le._index[0].cousins) == [1]
        assert verify_structure(le) is None

    def test_duplicate_node_rejected(self):
        le = LizardEntity.build([(0, 5)])
        with pytest.raises(DuplicateNodeError):
            le.insert(0, 9)

    def test_charge_counts_search_path(self):
        le = LizardEntity()
        le.insert(0, 50)  # root: charge 1
        before = le.counters.insert
        le.insert(1, 25)  # visits root, attaches: charge 2
        assert le.counters.insert - before == 2
        before = le.counters.insert
        le.insert(2, 50)  # visits root, equal key: charge 1
        assert le.counters.insert - before == 1

    @pytest.mark.parametrize("keys, side, top", [
        ([0, 1, 2, 3, 4], "right", 3),
        ([4, 0, 1, 2, 3], "left", 2),
    ])
    def test_rebuild_splices_scapegoat_below_its_parent(self, keys, side, top):
        # the last key lands at depth 4 of 5 items, deeper than log_{3/2} 5;
        # the scapegoat is the 4-item chain under the first key, on `side`
        le = LizardEntity()
        for node, key in enumerate(keys):
            le.insert(node, key)
            assert verify_structure(le) is None
        # 1 + 2 + 3 + 4 for the chain, then 5 for the path and 7 to rebuild
        assert le.counters.insert == 22
        assert getattr(le.bst_root, side).key == top
        assert le.bst_root.key == keys[0]

    def test_rebuild_splices_scapegoat_at_the_root(self):
        # insert never picks the root: below a root scapegoat every subtree
        # on the path grows by 3/2, so the tree holds more than 1.5**depth
        # items and the leaf is not too deep; rebuild the chain directly
        le = LizardEntity()
        for key in range(4):
            le.insert(key, key)
        assert le.counters.insert == 10
        assert le._rebuild_scapegoat(le._index[3]) == 7
        assert le.bst_root.key == 2
        assert verify_structure(le) is None


class TestDelete:
    def test_sole_item_leaves_empty_structure(self):
        le = LizardEntity.build([(0, 5)])
        le.delete(0)
        assert le.size == 0
        assert le.bst_root is None and le.ara_min is None
        assert verify_structure(le) is None

    def test_agency_promotion_keeps_shape(self):
        le = LizardEntity.build([(0, 5), (1, 2), (2, 5), (3, 8)])
        shape_before = ara_keys(le)
        agency = le._index[0]
        le.delete(0)  # agency of key 5; cousin 2 must take over in place
        assert ara_keys(le) == shape_before
        assert le._index[2] is agency
        assert agency.node == 2 and not agency.cousins
        assert le.counters.deletions == 1
        assert verify_structure(le) is None

    def test_agency_hands_over_to_head_cousin(self):
        le = LizardEntity.build([(0, 5), (1, 5), (2, 5), (3, 5), (4, 9)])
        agency = le._index[0]
        before = le.counters.delete
        le.delete(0)  # the agency stays in place and now holds node 1
        assert le.counters.delete - before == 4
        assert le._index[1] is agency
        assert agency.node == 1 and list(agency.cousins) == [2, 3]
        assert all(v == item.node or v in item.cousins for v, item in le._index.items())
        assert verify_structure(le) is None
        assert le.get_min_batch() == [1, 2, 3]

    def test_hand_overs_in_a_row_stay_linear(self):
        # each FIFO delete removes the agency's own node, so its oldest
        # cousin takes over; popping that cousin from the front of a
        # plain dict would rescan every slot popped before it, O(k^2)
        k = 40000

        def seconds(order):
            le = LizardEntity.build([(i, 7) for i in range(k)])
            start = time.perf_counter()
            for node in order:
                le.delete(node)
            assert le.size == 0
            return time.perf_counter() - start

        hand_overs = seconds(range(k))
        cousin_deletes = seconds(range(k - 1, -1, -1))  # newest first
        assert hand_overs < 10 * cousin_deletes

    def test_root_with_two_children_preserves_order(self):
        le = LizardEntity.build([(i, k) for i, k in enumerate([10, 20, 30, 40, 50])])
        root = le.bst_root
        assert root.left is not None and root.right is not None
        le.delete(root.node)
        assert ara_keys(le) == [k for k in [10, 20, 30, 40, 50] if k != root.key]
        assert verify_structure(le) is None

    def test_cousin_delete_unlinks_quietly(self):
        le = LizardEntity.build([(0, 5), (1, 5), (2, 5)])
        le.delete(1)  # middle cousin
        assert le.size == 2
        agency = le._index[0]
        assert [agency.node, *agency.cousins] == [0, 2]
        assert verify_structure(le) is None

    def test_missing_node(self):
        with pytest.raises(MissingNodeError):
            LizardEntity().delete(3)

    def test_charges(self):
        le = LizardEntity.build([(0, 5), (1, 5), (2, 9)])
        before = le.counters.delete
        le.delete(1)  # cousin
        assert le.counters.delete - before == 2
        before = le.counters.delete
        le.delete(2)  # lone agency
        assert le.counters.delete - before == 4

    def test_every_shape_deletes_cleanly(self):
        rng = SplitMix64(7)
        items = [(i, rng.below(20)) for i in range(60)]
        le = LizardEntity.build(list(items))
        order = list(range(60))
        # deterministic shuffle
        for i in range(59, 0, -1):
            j = rng.below(i + 1)
            order[i], order[j] = order[j], order[i]
        for node in order:
            le.delete(node)
            assert verify_structure(le) is None
        assert le.size == 0


class TestGetMinBatch:
    def test_distinct_keys_return_single_minimum(self):
        le = LizardEntity.build([(0, 2), (1, 7)])
        assert le.get_min_batch() == [0]
        assert le.size == 1
        assert le.ara_min.node == 1

    def test_cut_agency_counts_one_deletion(self):
        le = LizardEntity.build([(0, 5), (1, 5), (2, 5), (3, 9)])
        le.get_min_batch()
        cut = le.counters.as_cut_agency()
        assert (cut.deletions, cut.getmin, cut.batches) == (1, 3, 1)
        assert cut.total_cost == le.counters.total_cost - 6 + 3

    def test_cut_agency_keeps_delete_call_deletions(self):
        le = LizardEntity.build([(0, 5), (1, 5), (2, 5), (3, 9)])
        le.delete(3)
        le.get_min_batch()
        cut = le.counters.as_cut_agency()
        assert (le.counters.deletions, cut.deletions) == (4, 2)
        assert cut.delete == le.counters.delete

    def test_repeat_delete_counts_every_item(self):
        le = LizardEntity.build([(0, 5), (1, 5), (2, 5), (3, 9)])
        batch = le.get_min_batch()
        assert set(batch) == {0, 1, 2}
        assert le.counters.deletions == 3
        assert le.counters.getmin == 6
        assert le.counters.batches == 1

    def test_empty_structure_raises(self):
        with pytest.raises(EmptyStructureError):
            LizardEntity().get_min_batch()

    def test_batch_preserves_fifo_order(self):
        le = LizardEntity()
        for node in (5, 6, 7):
            le.insert(node, 1)
        assert le.get_min_batch() == [5, 6, 7]


class TestMembership:
    def test_contains(self):
        le = LizardEntity.build([(0, 5), (1, 5)])
        cost = le.counters.total_cost
        assert 0 in le and 1 in le
        assert 99 not in le
        assert le.counters.total_cost == cost  # membership is not charged


class TestVerifyStructure:
    def test_detects_broken_ara_link(self):
        le = LizardEntity.build([(0, 1), (1, 2), (2, 3)])
        le.ara_min.next = le.ara_min.next.next  # skip the middle agency
        assert verify_structure(le) is not None

    def test_detects_bad_parent_pointer(self):
        le = LizardEntity.build([(0, 1), (1, 2), (2, 3)])
        node = le.bst_root.left
        node.up = node
        assert verify_structure(le) is not None

    def test_detects_index_drift(self):
        le = LizardEntity.build([(0, 1), (1, 1), (2, 3)])
        le._index[1] = le._index[2]  # cousin 1 indexed to the wrong key
        assert verify_structure(le) is not None

    def test_detects_node_stored_twice(self):
        le = LizardEntity.build([(0, 1), (1, 1), (2, 3)])
        le._index[2].cousins = {1: None}
        assert verify_structure(le) is not None


def test_randomized_model_agreement():
    stats = run_lizard_fuzz(3000, seed=2024)
    assert stats["batches"] > 100
    assert stats["max_size"] > 20


def test_removed_items_leave_no_cyclic_garbage():
    # nothing unlinks a removed agency: once no live item points at it,
    # reference counting must free it, whichever operation removed it
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run_lizard_fuzz(6000, seed=2024, check_every_op=False)
        gc.collect()
        assert not [obj for obj in gc.garbage if isinstance(obj, LizardItem)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


def subtree_size(item) -> int:
    """Nodes in the subtree under ``item``, counted by traversal."""
    count = 0
    stack = [item] if item is not None else []
    while stack:
        item = stack.pop()
        count += 1
        if item.left is not None:
            stack.append(item.left)
        if item.right is not None:
            stack.append(item.right)
    return count


def reference_scapegoat(leaf):
    """The scapegoat above a too-deep leaf and the rebuild's charge,
    found by counting every sibling subtree on the climb."""
    child, child_size, counted = leaf, 1, 0
    while True:
        goat = child.up
        sibling = goat.right if goat.left is child else goat.left
        sibling_size = subtree_size(sibling)
        counted += 1 + sibling_size
        goat_size = child_size + 1 + sibling_size
        if 3 * child_size > 2 * goat_size:
            return goat, counted + goat_size
        child, child_size = goat, goat_size


def in_order(item) -> list:
    if item is None:
        return []
    return in_order(item.left) + [item] + in_order(item.right)


def midpoint_links(run: list, lo: int, hi: int, up, links: dict):
    """(up, left, right) of each item when run[lo:hi] is built by
    recursive midpoint; returns the top item."""
    if lo >= hi:
        return None
    mid = (lo + hi) // 2
    left = midpoint_links(run, lo, mid, run[mid], links)
    right = midpoint_links(run, mid + 1, hi, run[mid], links)
    links[run[mid]] = (up, left, right)
    return run[mid]


class CheckedLizardEntity(LizardEntity):
    """Checks every scapegoat rebuild against the traversal reference:
    the same scapegoat subtree, relinked into the midpoint shape in its
    place, and the same charge."""

    __slots__ = ("rebuilds",)

    def __init__(self):
        super().__init__()
        self.rebuilds = 0

    def _rebuild_scapegoat(self, leaf):
        goat, charge = reference_scapegoat(leaf)
        up = goat.up
        run = in_order(goat)
        links: dict = {}
        top = midpoint_links(run, 0, len(run), up, links)
        got = super()._rebuild_scapegoat(leaf)
        assert got == charge == 2 * len(run) - 1
        if up is None:
            assert self.bst_root is top
        else:
            assert top in (up.left, up.right)
        assert {item: (item.up, item.left, item.right) for item in run} == links
        assert verify_structure(self) is None
        self.rebuilds += 1
        return got


def depth_within_log_three_halves(le: LizardEntity, size: int) -> bool:
    """Deepest node's depth <= log_{3/2}(size), in exact integers."""
    depth = bst_height(le) - 1
    return 3**depth <= size * 2**depth


def test_bst_height_stays_sane_under_churn():
    # insert rebuilds keep every depth within log_{3/2} of the largest
    # size reached; check it on a deterministic churn workload
    rng = SplitMix64(314159)
    le = LizardEntity.build([(i, rng.below(10**6)) for i in range(512)])
    node = 512
    peak = le.size
    for _ in range(4000):
        if rng.below(3) and le.size:
            le.get_min_batch()
        le.insert(node, rng.below(10**6))
        peak = max(peak, le.size)
        node += 1
    assert depth_within_log_three_halves(le, peak), f"height {bst_height(le)} vs peak size {peak}"


@pytest.mark.parametrize("step", [1, -1])
def test_sorted_inserts_stay_logarithmic(step):
    le = CheckedLizardEntity()
    for i in range(600):
        le.insert(i, step * i)
        assert depth_within_log_three_halves(le, le.size), f"insert {i}: height {bst_height(le)}"
    assert verify_structure(le) is None
    assert le.rebuilds > 0
    # a list-shaped tree would charge 600 * 601 / 2 = 180 300
    assert le.counters.insert <= 4 * 600 * math.log2(600)


@given(
    order=st.sampled_from(("ascending", "descending", "random")),
    ops=st.lists(st.integers(0, 9), max_size=400),
    seed=st.integers(0, 2**64 - 1),
)
@settings(max_examples=150, deadline=None)
def test_height_bound_under_interleaved_deletes(order, ops, seed):
    """After every operation the structure is sound, every rebuild
    matches the traversal reference, and no node is deeper than
    log_{3/2} of the largest size reached.  Before the first removal
    that size is the current one; deletions never rebalance, so after
    them the bound is on the peak."""
    rng = SplitMix64(seed)
    le = CheckedLizardEntity()
    peak = 0
    for step, op in enumerate(ops):
        if op < 6 or not le.size:
            key = {"ascending": step, "descending": -step, "random": rng.below(500)}[order]
            le.insert(step, key)
            peak = max(peak, le.size)
            assert depth_within_log_three_halves(le, peak)
        elif op < 8:
            victims = list(le._index)
            le.delete(victims[rng.below(len(victims))])
        else:
            le.get_min_batch()
        assert verify_structure(le) is None


def test_total_cost_is_sum_of_buckets():
    le = LizardEntity.build([(i, i % 5) for i in range(30)])
    le.insert(100, 2)
    le.delete(100)
    le.get_min_batch()
    c = le.counters
    assert c.total_cost == c.build + c.insert + c.delete + c.getmin
    assert c.contains == 0
