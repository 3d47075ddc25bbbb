"""A weighted R-tree for signature k-NN search, plus the two baselines used
to cross-check it: a linear scan and a rectangle-only search of the same tree.

Internal nodes carry, besides the usual bounding rectangle, a per-dimension
max-weight aggregate of their subtree's signatures. The aggregate dot product
with a query upper-bounds every descendant's cosine similarity, so best-first
search prunes every subtree whose bound cannot beat the current k-th
similarity. Each internal node keeps a posting list over its children, so one
pass over the query's dimensions scores every child of a node.
"""

from __future__ import annotations

import heapq
import math
from bisect import insort
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .reduction import Mbr, union_mbrs
from .signatures import Signature, _leaf_sim
from .traces import check_unique_ids

DEFAULT_CAPACITY = 32

# (object_id, signature, mbr)
IndexEntry = tuple[str, Signature, Mbr]
# (object_id, similarity), non-increasing similarity, ties by ascending id
KnnResult = list[tuple[str, float]]


def aggregate_signatures(sigs: Sequence[Signature]) -> Signature:
    """Dimension-wise maximum of several signatures.

    The aggregate is an upper-bound vector, never a unit vector, so it is
    deliberately not renormalized.
    """
    if not sigs:
        raise ValueError("cannot aggregate an empty signature list")
    kind = sigs[0].kind
    for s in sigs[1:]:
        if s.kind != kind:
            raise ValueError(f"signature kind mismatch: {kind!r} vs {s.kind!r}")
    dims = np.concatenate([s.dims for s in sigs])
    weights = np.concatenate([s.weights for s in sigs])
    order = np.argsort(dims, kind="stable")
    dims = dims[order]
    weights = weights[order]
    starts = np.flatnonzero(np.r_[True, dims[1:] != dims[:-1]])
    return Signature(
        dims[starts], np.maximum.reduceat(weights, starts), kind, normalized=False
    )


class WrNode:
    """Either a single-object leaf or an internal node over child nodes.

    A leaf holds its object's signature. An internal node holds
    ``postings``, an inverted file over its children: dim -> {child index:
    weight}, the weight being a leaf child's signature weight or an internal
    child's aggregate weight. Search scores every child of a node through it
    in one pass (``_child_scores``). An aggregate is stored only as those
    entries in its parent: a node's own is the largest weight of each of its
    lists (``_pairs``), and ``signature`` gives it as sorted arrays.
    ``insert`` keeps the lists current by touching only what changed: an
    appended leaf posts its pairs, a child's raised pairs overwrite its
    entries, and a split child's entries give way to its two halves'
    aggregates. A node's children are either all leaves or all internal.
    """

    __slots__ = ("object_id", "mbr", "children", "_leaf_sig", "postings")

    def __init__(self, object_id, leaf_sig, mbr, children):
        self.object_id: str | None = object_id
        self.mbr: Mbr = mbr
        self.children: list[WrNode] | None = children
        self._leaf_sig: Signature | None = leaf_sig
        self.postings: dict[int, dict[int, float]] | None = None
        if children is not None:
            self.postings = _build_postings(children)

    @property
    def signature(self) -> Signature:
        if self.children is None:
            return self._leaf_sig
        first = self
        while first.children is not None:
            first = first.children[0]
        items = sorted(_pairs(self))
        return Signature(
            np.array([d for d, _ in items], dtype=np.int64),
            np.array([w for _, w in items], dtype=float),
            first._leaf_sig.kind,
            normalized=False,
        )

    @property
    def is_leaf(self) -> bool:
        return self.children is None

    @classmethod
    def leaf(cls, object_id: str, signature: Signature, mbr: Mbr) -> "WrNode":
        return cls(object_id, signature, mbr, None)

    @classmethod
    def internal(cls, children: Sequence["WrNode"]) -> "WrNode":
        """Node over ``children`` whose aggregate is the dimension-wise
        maximum of theirs."""
        children = list(children)
        if not children:
            raise ValueError("internal node needs at least one child")
        return cls(None, None, union_mbrs([c.mbr for c in children]), children)


def _pairs(node: WrNode):
    """A node's (dim, weight) pairs: a leaf's signature, or an internal
    node's aggregate, the largest weight in each of its posting lists."""
    if node.children is None:
        return node._leaf_sig.pairs()
    return [(d, max(plist.values())) for d, plist in node.postings.items()]


def _post(postings: dict[int, dict[int, float]], index: int, pairs) -> None:
    """Set child ``index``'s weight in the posting list of each pair's dim."""
    for d, w in pairs:
        plist = postings.get(d)
        if plist is None:
            postings[d] = {index: w}
        else:
            plist[index] = w


def _build_postings(children: Sequence[WrNode]) -> dict[int, dict[int, float]]:
    postings: dict[int, dict[int, float]] = {}
    for i, c in enumerate(children):
        _post(postings, i, _pairs(c))
    return postings


@dataclass
class WrTree:
    root: WrNode | None
    capacity: int
    kind: str | None
    ids: set[str] = field(default_factory=set)

    @property
    def n_objects(self) -> int:
        return len(self.ids)


# ---------------------------------------------------------------------------
# Bulk loading (sort-tile-recursive with greedy signature packing)


def merge_node(bulk: Sequence[WrNode], capacity: int) -> list[WrNode]:
    """Pack a spatially ordered bulk into nodes of at most ``capacity``.

    Each node is seeded with the first unassigned member; the rest are picked
    greedily to share the most dimensions with the node's running aggregate,
    earlier bulk position winning ties. Shared dimensions keep the aggregate
    small, which keeps the similarity bounds tight.

    Each candidate's shared-dimension count is kept as the node grows: a
    dimension new to the aggregate adds one to every member holding it,
    found through an inverted list of dim -> bulk positions.
    """
    if capacity < 2:
        raise ValueError("node capacity must be >= 2")
    bulk = list(bulk)
    if len(bulk) < capacity:
        return [WrNode.internal(bulk)]
    dim_sets = [b.signature.dim_set() if b.is_leaf else b.postings.keys() for b in bulk]
    holders: dict[int, list[int]] = {}
    for pos, dims in enumerate(dim_sets):
        for d in dims:
            holders.setdefault(d, []).append(pos)
    unassigned = list(range(len(bulk)))
    nodes: list[WrNode] = []
    while unassigned:
        common = [0] * len(bulk)
        agg_dims: set[int] = set()
        pick = unassigned.pop(0)
        members = []
        while True:
            members.append(bulk[pick])
            if len(members) == capacity or not unassigned:
                break
            new = dim_sets[pick] - agg_dims
            agg_dims |= new
            for d in new:
                for pos in holders[d]:
                    common[pos] += 1
            # max keeps the first of equal counts: the earliest bulk position
            pick = max(unassigned, key=common.__getitem__)
            unassigned.remove(pick)
        nodes.append(WrNode.internal(members))
    return nodes


def _str_level(children: Sequence[WrNode], capacity: int) -> list[WrNode]:
    """Group one tree level into nodes: tile the children into vertical
    slabs by rectangle centre, then pack each slab with ``merge_node``.
    Bulk load builds every level with it and insert splits with it."""
    n = len(children)
    n_nodes = math.ceil(n / capacity)
    n_slabs = math.ceil(math.sqrt(n_nodes))
    slab_size = n_slabs * capacity
    by_lon = sorted(
        children,
        key=lambda c: (
            (c.mbr.min_lon + c.mbr.max_lon) / 2.0,
            (c.mbr.min_lat + c.mbr.max_lat) / 2.0,
        ),
    )
    out: list[WrNode] = []
    for s in range(0, n, slab_size):
        slab = sorted(
            by_lon[s : s + slab_size],
            key=lambda c: (
                (c.mbr.min_lat + c.mbr.max_lat) / 2.0,
                (c.mbr.min_lon + c.mbr.max_lon) / 2.0,
            ),
        )
        out.extend(merge_node(slab, capacity))
    return out


def _check_normalized(object_id: str, sig: Signature) -> None:
    if not sig.normalized:
        # cosine scores and the pruning bounds hold only for unit vectors
        raise ValueError(f"signature of {object_id!r} is not normalized")


def bulk_load(objects: Sequence[IndexEntry], capacity: int = DEFAULT_CAPACITY) -> WrTree:
    """Build a weighted tree bottom-up with STR tiling and greedy packing.
    Every signature must be normalized, or ``ValueError`` names its object,
    and all must be of one kind, as ``insert`` requires."""
    if capacity < 2:
        raise ValueError("node capacity must be >= 2")
    ids = [o[0] for o in objects]
    check_unique_ids(ids, "entry")
    if not objects:
        return WrTree(None, capacity, None)
    kind = objects[0][1].kind
    for object_id, sig, _ in objects:
        _check_normalized(object_id, sig)
        if sig.kind != kind:
            raise ValueError(f"signature kind mismatch: {sig.kind!r} vs {kind!r}")
    nodes: list[WrNode] = [WrNode.leaf(i, s, m) for i, s, m in objects]
    while True:
        nodes = _str_level(nodes, capacity)
        if len(nodes) == 1:
            break
    return WrTree(nodes[0], capacity, kind, set(ids))


# ---------------------------------------------------------------------------
# Incremental insert


def _choose_child(node: WrNode, sig: Signature, mbr: Mbr) -> int:
    """Most attractive subtree: most shared dimensions, then least area
    enlargement, then lowest index."""
    children = node.children
    # shared dims per child, counted through the posting list
    commons = [0] * len(children)
    get = node.postings.get
    for d, _ in sig.pairs():
        plist = get(d)
        if plist is not None:
            for i in plist:
                commons[i] += 1
    best_common = max(commons)
    cand = [i for i, c in enumerate(commons) if c == best_common]
    if len(cand) == 1:
        return cand[0]
    # min keeps the first of equal keys: the lowest index
    return min(cand, key=lambda i: children[i].mbr.union(mbr).area() - children[i].mbr.area())


def _replace_child(node: WrNode, index: int, first: WrNode, second: WrNode) -> None:
    """Put the halves of the split child at ``index`` in its place and at the
    end, swapping its posting entries for their aggregates."""
    old = node.children[index]
    node.children[index] = first
    node.children.append(second)
    postings = node.postings
    # the split child's lists already hold the new object's dims, which its
    # entries here, its aggregate before the insert, may lack
    for d in old.postings:
        plist = postings.get(d)
        if plist is not None:
            plist.pop(index, None)
            if not plist:
                del postings[d]
    _post(postings, index, _pairs(first))
    _post(postings, len(node.children) - 1, _pairs(second))


def insert(tree: WrTree, entry: IndexEntry) -> None:
    """Insert one object, updating rectangles and posting lists along the
    path: each node posts over its child's entries the pairs that raised the
    child's aggregate. An overflowing node is split in two by the bulk
    loader's rule: one STR slab packed greedily by shared dimensions. The
    signature must be normalized."""
    object_id, sig, mbr = entry
    if object_id in tree.ids:
        raise ValueError(f"duplicate object id {object_id!r}")
    _check_normalized(object_id, sig)
    leaf = WrNode.leaf(object_id, sig, mbr)
    if tree.root is None:
        tree.root = WrNode.internal([leaf])
        tree.kind = sig.kind
        tree.ids.add(object_id)
        return
    if tree.kind is not None and sig.kind != tree.kind:
        raise ValueError(f"signature kind mismatch: {sig.kind!r} vs index {tree.kind!r}")

    path = [tree.root]
    slots: list[int] = []  # slots[i]: index of the next node down among path[i]'s children
    node = tree.root
    while node.children and not node.children[0].is_leaf:
        slots.append(_choose_child(node, sig, mbr))
        node = node.children[slots[-1]]
        path.append(node)
    node.children.append(leaf)
    slots.append(len(node.children) - 1)

    # the child below either split in two or raised the weights `raised`
    # (the new leaf's, at first). Only a pair that raised a node can raise its
    # parent, since a parent's aggregate dominates its children's. A node's
    # raised pairs beat every weight its lists held for their dim before this
    # insert, so they are found before its lists change.
    split: list[WrNode] | None = None
    raised = sig.pairs()
    for depth in range(len(path) - 1, -1, -1):
        current = path[depth]
        postings = current.postings
        below, raised = raised, [
            (d, w) for d, w in raised if d not in postings or w > max(postings[d].values())
        ]
        if split is not None:
            _replace_child(current, slots[depth], *split)
        else:
            _post(postings, slots[depth], below)
        if len(current.children) > tree.capacity:
            split = _str_level(current.children, (len(current.children) + 1) // 2)
        else:
            split = None
            current.mbr = current.mbr.union(mbr)
    if split is not None:
        tree.root = WrNode.internal(split)
    tree.ids.add(object_id)


# ---------------------------------------------------------------------------
# Search


def _child_scores(node: WrNode, q_pairs: list[tuple[int, float]]) -> list[float]:
    """Dot product of the query with each child's weights, by child index.

    The query's pairs are walked in ascending dim order and each product is
    added to its child's total, so a child's total sums the same products,
    from the first, in the same ascending shared-dim order as a per-child
    loop would: the floats are bit-identical to ``_leaf_sim``. A child that
    shares no dim with the query scores 0.
    """
    totals = [0.0] * len(node.children)
    get = node.postings.get
    for d, wq in q_pairs:
        plist = get(d)
        if plist is not None:
            for i, w in plist.items():
                totals[i] += wq * w
    return totals


def _offer(res: list[tuple[float, str]], k: int, sim: float, object_id: str) -> None:
    key = (-sim, object_id)
    if len(res) < k:
        insort(res, key)
    elif key < res[-1]:
        res.pop()
        insort(res, key)


def _check_query(q_sig: Signature, k: int, kind: str | None) -> None:
    """The rules every k-NN engine holds its query to: k >= 1, a normalized
    signature, and, when ``kind`` is given, the searched index's kind."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not q_sig.normalized:
        raise ValueError("query signature must be normalized")
    if kind is not None and q_sig.kind != kind:
        raise ValueError(f"signature kind mismatch: {q_sig.kind!r} vs index {kind!r}")


def knn_search(tree: WrTree, query: tuple[Signature, Mbr], k: int) -> KnnResult:
    """Best-first k-NN over the weighted tree.

    The queue holds internal nodes ordered by aggregate-signature bound
    (seeded unbounded at the root). A popped node scores all its children at
    once through its posting list (``_child_scores``): a leaf child gets its
    exact similarity, an internal child the bound of its aggregate. Children
    scoring 0 are pruned; an internal child is also pruned when its bound
    cannot beat the current k-th similarity, and a leaf child's similarity
    goes straight into the top-k, which then fills sooner and prunes more.
    No rectangle test is needed: a positive score means a shared anchor,
    which lies inside both rectangles. Only strictly positive similarities
    are ever reported, matching the linear oracle, and they are
    bit-identical to its floats.
    """
    q_sig, _ = query
    _check_query(q_sig, k, tree.kind)
    if tree.root is None:
        return []

    q_pairs = q_sig.pairs()
    res: list[tuple[float, str]] = []  # (-sim, id), ascending
    counter = 0
    heap: list[tuple[float, int, WrNode]] = [(-math.inf, counter, tree.root)]
    while heap:
        neg_bound, _, node = heapq.heappop(heap)
        if len(res) == k and -neg_bound < -res[k - 1][0]:
            break
        children = node.children
        scores = _child_scores(node, q_pairs)
        k_sim = -res[k - 1][0] if len(res) == k else 0.0
        if children[0].is_leaf:
            for child, s in zip(children, scores):
                if s <= 0.0 or s < k_sim:
                    continue
                _offer(res, k, s, child.object_id)
                if len(res) == k:
                    k_sim = -res[k - 1][0]
            continue
        for child, s in zip(children, scores):
            if s <= 0.0 or s < k_sim:
                continue
            counter += 1
            heapq.heappush(heap, (-s, counter, child))
    return [(oid, -neg) for neg, oid in res]


def linear_knn(objects: Sequence[IndexEntry], query: tuple[Signature, Mbr], k: int) -> KnnResult:
    """Exact top-k by cosine over every object: the correctness oracle."""
    q_sig, _ = query
    _check_query(q_sig, k, None)
    q_map = q_sig.as_dict()
    # an object sharing no dimension with the query scores 0 and is never
    # reported; the set test skips its dot product
    disjoint = q_sig.dim_set().isdisjoint
    scored: list[tuple[float, str]] = []
    for object_id, sig, _mbr in objects:
        if disjoint(sig.dim_set()):
            continue
        s = _leaf_sim(q_map, sig)
        if s > 0.0:
            scored.append((-s, object_id))
    scored.sort()
    return [(oid, -neg) for neg, oid in scored[:k]]


def rtree_baseline_knn(tree: WrTree, query: tuple[Signature, Mbr], k: int) -> KnnResult:
    """The rectangle-only baseline: a range query that ignores the aggregates,
    then the leaves under every surviving node are scored through the same
    posting-list kernel as ``knn_search`` (``_child_scores``), so the two tree
    engines differ only in pruning. A leaf with a positive score shares an
    anchor with the query, so its rectangle meets the query's untested."""
    q_sig, q_mbr = query
    _check_query(q_sig, k, tree.kind)
    if tree.root is None:
        return []
    q_pairs = q_sig.pairs()
    scored: list[tuple[float, str]] = []
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if not node.mbr.intersects(q_mbr):
            continue
        children = node.children
        if not children[0].is_leaf:
            stack.extend(children)
            continue
        for child, s in zip(children, _child_scores(node, q_pairs)):
            if s > 0.0:
                scored.append((-s, child.object_id))
    scored.sort()
    return [(oid, -neg) for neg, oid in scored[:k]]


# ---------------------------------------------------------------------------
# Validation


def _nodes(root: WrNode | None) -> Iterator[tuple[WrNode, int]]:
    """Every node under ``root`` with its depth, each before its children."""
    stack = [] if root is None else [(root, 0)]
    while stack:
        node, depth = stack.pop()
        yield node, depth
        stack.extend((child, depth + 1) for child in reversed(node.children or ()))


def validate(tree: WrTree) -> list[str]:
    """Check the tree's invariants; returns human-readable violations. Each
    internal node has 1 .. ``capacity`` children, all leaves or all
    internal, a rectangle holding theirs and a posting list equal to one
    rebuilt from them, so an internal child's entries are its aggregate;
    every leaf is normalized and sits at one depth; and the leaves' ids are
    unique and are the tree's ``ids``."""
    problems: list[str] = []
    ids: list[str] = []
    leaf_depths: set[int] = set()
    for node, depth in _nodes(tree.root):
        if node.is_leaf:
            ids.append(node.object_id)
            leaf_depths.add(depth)
            if not node.signature.normalized:
                problems.append(f"signature of leaf {node.object_id!r} is not normalized")
            continue
        if len({child.is_leaf for child in node.children}) > 1:
            problems.append(f"node mixes leaf and internal children at depth {depth}")
        if not 1 <= len(node.children) <= tree.capacity:
            problems.append(f"node at depth {depth} has {len(node.children)} children")
        for child in node.children:
            if not node.mbr.contains(child.mbr):
                problems.append(f"child mbr escapes parent at depth {depth}")
        if node.postings != _build_postings(node.children):
            problems.append(f"stale posting list at depth {depth}")
    if len(leaf_depths) > 1:
        problems.append(f"leaves at unequal depths: {sorted(leaf_depths)}")
    leaf_ids = set(ids)
    if len(leaf_ids) != len(ids):
        problems.append("duplicate object ids in tree")
    if leaf_ids != tree.ids:
        problems.append(f"the {len(leaf_ids)} leaf ids are not the tree's {tree.n_objects} ids")
    return problems
