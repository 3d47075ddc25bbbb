"""A weighted R-tree for signature k-NN search, plus the two baselines used
to cross-check it: a linear scan and a rectangle-only search of the same tree.

Internal nodes carry, besides the usual bounding rectangle, a per-dimension
max-weight aggregate of their subtree's signatures. The aggregate dot product
with a query upper-bounds every descendant's cosine similarity, so best-first
search can prune whole subtrees both spatially (disjoint rectangles imply zero
similarity between reduced signatures) and by similarity bound.
"""

from __future__ import annotations

import heapq
import math
import struct
from bisect import insort
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .reduction import Mbr, union_mbrs
from .signatures import Signature

DEFAULT_CAPACITY = 32

# (object_id, signature, mbr)
IndexEntry = tuple[str, Signature, Mbr]
# (object_id, similarity), non-increasing similarity, ties by ascending id
KnnResult = list[tuple[str, float]]

_INDEX_MAGIC = b"SIGLINKIDX"
_INDEX_VERSION = 1
# the header's weighted byte; format v1 kept it for unweighted trees, which
# are gone, so it must read 1
_WEIGHTED = 1


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

    A leaf holds its object's signature. An internal node holds its subtree's
    aggregate only as a dim -> max weight map: search bounds read it and
    inserts merge into it in O(signature nnz). ``signature`` builds the
    sorted array form of that map on demand, for validation and
    serialization.
    """

    __slots__ = ("object_id", "mbr", "children", "weight_map", "_leaf_sig")

    def __init__(self, object_id, leaf_sig, mbr, children, weight_map):
        self.object_id: str | None = object_id
        self.mbr: Mbr = mbr
        self.children: list[WrNode] | None = children
        self.weight_map: dict[int, float] | None = weight_map
        self._leaf_sig: Signature | None = leaf_sig

    @property
    def signature(self) -> Signature:
        if self.children is None:
            return self._leaf_sig
        first = self
        while first.children is not None:
            first = first.children[0]
        items = sorted(self.weight_map.items())
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
        return cls(object_id, signature, mbr, None, None)

    @classmethod
    def internal(cls, children: Sequence["WrNode"]) -> "WrNode":
        """Node over ``children`` whose aggregate max-merges theirs."""
        children = list(children)
        if not children:
            raise ValueError("internal node needs at least one child")
        agg: dict[int, float] = {}
        for c in children:
            _max_merge(agg, c._leaf_sig.pairs() if c.children is None else c.weight_map.items())
        return cls(None, None, union_mbrs([c.mbr for c in children]), children, agg)


def _max_merge(weight_map: dict[int, float], pairs) -> None:
    """Raise ``weight_map`` to the dimension-wise maximum with ``pairs``."""
    get = weight_map.get
    for d, w in pairs:
        current = get(d)
        if current is None or w > current:
            weight_map[d] = w


@dataclass
class WrTree:
    root: WrNode | None
    capacity: int
    kind: str | None
    n_objects: int
    ids: set[str] = field(default_factory=set)


# ---------------------------------------------------------------------------
# Bulk loading (sort-tile-recursive with greedy signature packing)


def merge_node(bulk: Sequence[WrNode], capacity: int) -> list[WrNode]:
    """Pack a spatially ordered bulk into nodes of at most ``capacity``.

    Each node is seeded with the first unassigned member; the rest are picked
    greedily to share the most dimensions with the node's running aggregate,
    earlier bulk position winning ties. Shared dimensions keep the aggregate
    small, which keeps the similarity bounds tight.
    """
    if capacity < 2:
        raise ValueError("node capacity must be >= 2")
    bulk = list(bulk)
    if len(bulk) < capacity:
        return [WrNode.internal(bulk)]
    dim_sets = [b.signature.dim_set() if b.is_leaf else b.weight_map.keys() for b in bulk]
    unassigned = list(range(len(bulk)))
    nodes: list[WrNode] = []
    while unassigned:
        seed = unassigned.pop(0)
        members = [bulk[seed]]
        agg_dims = set(dim_sets[seed])
        while len(members) < capacity and unassigned:
            best_pos = 0
            best_common = -1
            for pos, j in enumerate(unassigned):
                common = len(agg_dims & dim_sets[j])
                if common > best_common:
                    best_pos, best_common = pos, common
            j = unassigned.pop(best_pos)
            members.append(bulk[j])
            agg_dims |= dim_sets[j]
        nodes.append(WrNode.internal(members))
    return nodes


def _str_level(children: Sequence[WrNode], capacity: int) -> list[WrNode]:
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


def bulk_load(objects: Sequence[IndexEntry], capacity: int = DEFAULT_CAPACITY) -> WrTree:
    """Build a weighted tree bottom-up with STR tiling and greedy packing."""
    if capacity < 2:
        raise ValueError("node capacity must be >= 2")
    ids = [o[0] for o in objects]
    if len(set(ids)) != len(ids):
        raise ValueError("object ids must be unique")
    if not objects:
        return WrTree(None, capacity, None, 0)
    kind = objects[0][1].kind
    nodes: list[WrNode] = [WrNode.leaf(i, s, m) for i, s, m in objects]
    while True:
        nodes = _str_level(nodes, capacity)
        if len(nodes) == 1:
            break
    return WrTree(nodes[0], capacity, kind, len(objects), ids=set(ids))


# ---------------------------------------------------------------------------
# Incremental insert


def _area_enlargement(mbr: Mbr, added: Mbr) -> float:
    return mbr.union(added).area() - mbr.area()


def _overlap_enlargement(children: Sequence[WrNode], idx: int, added: Mbr) -> float:
    grown = children[idx].mbr.union(added)
    delta = 0.0
    for j, other in enumerate(children):
        if j == idx:
            continue
        delta += grown.intersection_area(other.mbr) - children[idx].mbr.intersection_area(
            other.mbr
        )
    return delta


def _choose_child(node: WrNode, sig: Signature, mbr: Mbr) -> int:
    """Most attractive subtree: most shared dimensions, then least area
    enlargement, then least overlap enlargement, then lowest index."""
    children = node.children
    assert children is not None
    sig_dims = sig.dim_set()
    commons = [len(sig_dims & c.weight_map.keys()) for c in children]
    best_common = max(commons)
    cand = [i for i, c in enumerate(commons) if c == best_common]
    if len(cand) > 1:
        grow = {i: _area_enlargement(children[i].mbr, mbr) for i in cand}
        least = min(grow.values())
        cand = [i for i in cand if grow[i] == least]
    if len(cand) > 1:
        over = {i: _overlap_enlargement(children, i, mbr) for i in cand}
        least = min(over.values())
        cand = [i for i in cand if over[i] == least]
    return cand[0]


def _quadratic_split(children: list[WrNode], capacity: int) -> tuple[list[WrNode], list[WrNode]]:
    n = len(children)
    min_fill = max(1, capacity // 3)
    best_pair = (0, 1)
    worst_waste = -math.inf
    for i in range(n):
        for j in range(i + 1, n):
            waste = (
                children[i].mbr.union(children[j].mbr).area()
                - children[i].mbr.area()
                - children[j].mbr.area()
            )
            if waste > worst_waste:
                worst_waste = waste
                best_pair = (i, j)
    gi, gj = best_pair
    group1, group2 = [children[gi]], [children[gj]]
    mbr1, mbr2 = children[gi].mbr, children[gj].mbr
    rest = [c for idx, c in enumerate(children) if idx not in best_pair]
    while rest:
        if len(group1) + len(rest) == min_fill:
            group1.extend(rest)
            break
        if len(group2) + len(rest) == min_fill:
            group2.extend(rest)
            break
        pick, go_first = 0, True
        best_gap = -1.0
        for idx, c in enumerate(rest):
            d1 = _area_enlargement(mbr1, c.mbr)
            d2 = _area_enlargement(mbr2, c.mbr)
            gap = abs(d1 - d2)
            if gap > best_gap:
                best_gap = gap
                pick = idx
                if d1 != d2:
                    go_first = d1 < d2
                elif mbr1.area() != mbr2.area():
                    go_first = mbr1.area() < mbr2.area()
                else:
                    go_first = len(group1) <= len(group2)
        chosen = rest.pop(pick)
        if go_first:
            group1.append(chosen)
            mbr1 = mbr1.union(chosen.mbr)
        else:
            group2.append(chosen)
            mbr2 = mbr2.union(chosen.mbr)
    return group1, group2


def _absorb(node: WrNode, sig: Signature, mbr: Mbr) -> None:
    """Fold one more member into a node's aggregate and rectangle in place."""
    node.mbr = node.mbr.union(mbr)
    _max_merge(node.weight_map, sig.pairs())


def insert(tree: WrTree, entry: IndexEntry) -> None:
    """Insert one object, updating aggregates and rectangles along the path;
    overflowing nodes are split quadratically on their rectangles."""
    object_id, sig, mbr = entry
    if object_id in tree.ids:
        raise ValueError(f"duplicate object id {object_id!r}")
    leaf = WrNode.leaf(object_id, sig, mbr)
    if tree.root is None:
        tree.root = WrNode.internal([leaf])
        tree.kind = sig.kind
        tree.n_objects = 1
        tree.ids.add(object_id)
        return
    if tree.kind is not None and sig.kind != tree.kind:
        raise ValueError(f"signature kind mismatch: {sig.kind!r} vs index {tree.kind!r}")

    path = [tree.root]
    node = tree.root
    while node.children and not node.children[0].is_leaf:
        node = node.children[_choose_child(node, sig, mbr)]
        path.append(node)
    node.children.append(leaf)

    child_split: tuple[WrNode, WrNode, WrNode] | None = None
    for current in reversed(path):
        if child_split is not None:
            old, first, second = child_split
            idx = current.children.index(old)
            current.children[idx] = first
            current.children.append(second)
            child_split = None
        if len(current.children) > tree.capacity:
            group1, group2 = _quadratic_split(current.children, tree.capacity)
            child_split = (current, WrNode.internal(group1), WrNode.internal(group2))
        else:
            _absorb(current, sig, mbr)
    if child_split is not None:
        _, first, second = child_split
        tree.root = WrNode.internal([first, second])
    tree.n_objects += 1
    tree.ids.add(object_id)


# ---------------------------------------------------------------------------
# Search


def _query_map(sig: Signature) -> dict[int, float]:
    return dict(sig.pairs())


def _leaf_sim(q_map: dict[int, float], sig: Signature) -> float:
    # accumulate over the candidate's dimensions in ascending order so every
    # engine produces bit-identical similarities
    total = 0.0
    get = q_map.get
    for d, w in sig.pairs():
        v = get(d)
        if v is not None:
            total += v * w
    return total


def _bound(q_pairs: list[tuple[int, float]], weight_map: dict[int, float]) -> float:
    total = 0.0
    get = weight_map.get
    for d, w in q_pairs:
        v = get(d)
        if v is not None:
            total += w * v
    return total


def _offer(res: list[tuple[float, str]], k: int, sim: float, object_id: str) -> None:
    key = (-sim, object_id)
    if len(res) < k:
        insort(res, key)
    elif key < res[-1]:
        res.pop()
        insort(res, key)


def knn_search(tree: WrTree, query: tuple[Signature, Mbr], k: int) -> KnnResult:
    """Best-first k-NN over the weighted tree.

    The queue is ordered by aggregate-signature bound (seeded unbounded at the
    root); children are pruned when their rectangle misses the query's or
    their bound cannot beat the current k-th similarity. Only strictly
    positive similarities are ever reported, matching the linear oracle.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    q_sig, q_mbr = query
    if not q_sig.normalized:
        raise ValueError("query signature must be normalized")
    if tree.root is None:
        return []
    if tree.kind is not None and q_sig.kind != tree.kind:
        raise ValueError(f"signature kind mismatch: {q_sig.kind!r} vs index {tree.kind!r}")

    q_map = _query_map(q_sig)
    q_pairs = q_sig.pairs()
    res: list[tuple[float, str]] = []  # (-sim, id), ascending
    counter = 0
    heap: list[tuple[float, int, WrNode]] = [(-math.inf, counter, tree.root)]
    while heap:
        neg_bound, _, node = heapq.heappop(heap)
        bound = -neg_bound
        if len(res) == k and bound < -res[k - 1][0]:
            break
        if node.is_leaf:
            _offer(res, k, bound, node.object_id)
            continue
        k_sim = -res[k - 1][0] if len(res) == k else 0.0
        for child in node.children:
            if not child.mbr.intersects(q_mbr):
                continue
            if child.is_leaf:
                s = _leaf_sim(q_map, child.signature)
            else:
                s = _bound(q_pairs, child.weight_map)
            if s <= 0.0 or (len(res) == k and s < k_sim):
                continue
            counter += 1
            heapq.heappush(heap, (-s, counter, child))
    return [(oid, -neg) for neg, oid in res]


def linear_knn(objects: Sequence[IndexEntry], query: tuple[Signature, Mbr], k: int) -> KnnResult:
    """Exact top-k by cosine over every object: the correctness oracle."""
    if k < 1:
        raise ValueError("k must be >= 1")
    q_sig, _ = query
    if not q_sig.normalized:
        raise ValueError("query signature must be normalized")
    q_map = _query_map(q_sig)
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
    then every surviving object is scored."""
    if k < 1:
        raise ValueError("k must be >= 1")
    q_sig, q_mbr = query
    if tree.root is None:
        return []
    q_map = _query_map(q_sig)
    scored: list[tuple[float, str]] = []
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if not node.mbr.intersects(q_mbr):
            continue
        if node.is_leaf:
            s = _leaf_sim(q_map, node.signature)
            if s > 0.0:
                scored.append((-s, node.object_id))
        else:
            stack.extend(node.children)
    scored.sort()
    return [(oid, -neg) for neg, oid in scored[:k]]


# ---------------------------------------------------------------------------
# Validation


def validate(tree: WrTree) -> list[str]:
    """Check structural invariants; returns human-readable violations."""
    problems: list[str] = []
    if tree.root is None:
        if tree.n_objects != 0:
            problems.append("empty root but n_objects != 0")
        return problems
    seen_ids: list[str] = []
    leaf_depths: set[int] = set()

    def visit(node: WrNode, depth: int) -> None:
        if node.is_leaf:
            seen_ids.append(node.object_id)
            leaf_depths.add(depth)
            return
        if not (1 <= len(node.children) <= tree.capacity):
            problems.append(f"node at depth {depth} has {len(node.children)} children")
        for child in node.children:
            if not node.mbr.contains(child.mbr):
                problems.append(f"child mbr escapes parent at depth {depth}")
        expect = aggregate_signatures([c.signature for c in node.children])
        agg = node.signature
        if not (
            np.array_equal(agg.dims, expect.dims)
            and np.array_equal(agg.weights, expect.weights)
        ):
            problems.append(f"aggregate mismatch at depth {depth}")
        for child in node.children:
            visit(child, depth + 1)

    visit(tree.root, 0)
    if len(leaf_depths) > 1:
        problems.append(f"leaves at unequal depths: {sorted(leaf_depths)}")
    if len(set(seen_ids)) != len(seen_ids):
        problems.append("duplicate object ids in tree")
    if len(seen_ids) != tree.n_objects:
        problems.append(f"tree holds {len(seen_ids)} objects, expected {tree.n_objects}")
    return problems


# ---------------------------------------------------------------------------
# Serialization (versioned binary, post-order node stream)


def _pack_sig(sig: Signature) -> bytes:
    reduced = -1 if sig.reduced_m is None else int(sig.reduced_m)
    head = struct.pack("<iBI", reduced, int(sig.normalized), sig.nnz())
    return head + sig.dims.astype("<i8").tobytes() + sig.weights.astype("<f8").tobytes()


def _unpack_sig(buf: memoryview, off: int, kind: str) -> tuple[Signature, int]:
    reduced, normalized, nnz = struct.unpack_from("<iBI", buf, off)
    off += struct.calcsize("<iBI")
    if off + 16 * nnz > len(buf):
        raise ValueError(f"corrupt index: truncated signature at byte {off}")
    dims = np.frombuffer(buf, dtype="<i8", count=nnz, offset=off).astype(np.int64)
    off += 8 * nnz
    weights = np.frombuffer(buf, dtype="<f8", count=nnz, offset=off).astype(float)
    off += 8 * nnz
    sig = Signature(
        dims, weights, kind, normalized=bool(normalized),
        reduced_m=None if reduced < 0 else reduced,
    )
    return sig, off


def _pack_mbr(mbr: Mbr) -> bytes:
    return struct.pack("<4d", mbr.min_lon, mbr.min_lat, mbr.max_lon, mbr.max_lat)


def _unpack_mbr(buf: memoryview, off: int) -> tuple[Mbr, int]:
    vals = struct.unpack_from("<4d", buf, off)
    return Mbr(*vals), off + struct.calcsize("<4d")


def save_index(tree: WrTree, path: str | Path) -> None:
    kind = tree.kind or ""
    kind_b = kind.encode("utf-8")
    parts = [
        _INDEX_MAGIC,
        struct.pack(
            "<HIQBH",
            _INDEX_VERSION,
            tree.capacity,
            tree.n_objects,
            _WEIGHTED,
            len(kind_b),
        ),
        kind_b,
    ]

    def emit(node: WrNode) -> None:
        if node.is_leaf:
            id_b = node.object_id.encode("utf-8")
            parts.append(struct.pack("<BI", 0, len(id_b)))
            parts.append(id_b)
            parts.append(_pack_sig(node.signature))
            parts.append(_pack_mbr(node.mbr))
            return
        for child in node.children:
            emit(child)
        parts.append(struct.pack("<BI", 1, len(node.children)))
        parts.append(_pack_sig(node.signature))
        parts.append(_pack_mbr(node.mbr))

    if tree.root is not None:
        emit(tree.root)
    Path(path).write_bytes(b"".join(parts))


def load_index(path: str | Path) -> WrTree:
    """Read a tree written by save_index.

    A truncated file, an impossible header or a node stream that does not
    form one tree raises ``ValueError("corrupt index: ...")``.
    """
    raw = Path(path).read_bytes()
    if raw[: len(_INDEX_MAGIC)] != _INDEX_MAGIC:
        raise ValueError(f"{path} is not a siglink index file")
    try:
        return _parse_index(memoryview(raw), len(_INDEX_MAGIC))
    except struct.error as exc:
        raise ValueError(f"corrupt index: truncated record ({exc})") from None


def _take(buf: memoryview, off: int, n: int) -> bytes:
    if off + n > len(buf):
        raise ValueError(f"corrupt index: truncated record at byte {off}")
    return bytes(buf[off : off + n])


def _parse_index(buf: memoryview, off: int) -> WrTree:
    version, capacity, n_objects, weighted, kind_len = struct.unpack_from("<HIQBH", buf, off)
    if version != _INDEX_VERSION:
        raise ValueError(f"unsupported index version {version}")
    if capacity < 2:
        raise ValueError(f"corrupt index: capacity {capacity} < 2")
    if weighted != _WEIGHTED:
        raise ValueError(f"corrupt index: weighted flag {weighted}, expected {_WEIGHTED}")
    off += struct.calcsize("<HIQBH")
    kind = _take(buf, off, kind_len).decode("utf-8") or None
    off += kind_len

    stack: list[WrNode] = []
    ids: set[str] = set()
    n_leaves = 0
    while off < len(buf):
        (tag,) = struct.unpack_from("<B", buf, off)
        off += 1
        if tag == 0:
            (id_len,) = struct.unpack_from("<I", buf, off)
            off += 4
            object_id = _take(buf, off, id_len).decode("utf-8")
            off += id_len
            sig, off = _unpack_sig(buf, off, kind or "")
            mbr, off = _unpack_mbr(buf, off)
            stack.append(WrNode.leaf(object_id, sig, mbr))
            ids.add(object_id)
            n_leaves += 1
        elif tag == 1:
            (n_children,) = struct.unpack_from("<I", buf, off)
            off += 4
            sig, off = _unpack_sig(buf, off, kind or "")
            mbr, off = _unpack_mbr(buf, off)
            if n_children > len(stack):
                raise ValueError("corrupt index: node stream underflow")
            children = stack[-n_children:]
            del stack[-n_children:]
            stack.append(WrNode(None, None, mbr, children, dict(sig.pairs())))
        else:
            raise ValueError(f"corrupt index: unknown node tag {tag}")
    if len(stack) > 1:
        raise ValueError("corrupt index: dangling nodes in stream")
    if n_leaves != n_objects:
        raise ValueError(
            f"corrupt index: header says {n_objects} objects, stream holds {n_leaves}"
        )
    root = stack[0] if stack else None
    return WrTree(root, capacity, kind, n_objects, ids=ids)
