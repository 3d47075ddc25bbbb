"""Helpers shared by the test modules: hand-made signatures, anchors on a
line, traces from anchor-id lists, index entries, the bounding box of a set
of anchor ids, a per-row top-m oracle and a hand editor of index files."""

import math
import struct
import zlib

import numpy as np

from siglink.reduction import Mbr, mbr_of
from siglink.signatures import make_signature
from siglink.traces import AnchorSet, Trace


def sig(weights_by_dim, kind="spatial", normalize=True):
    return make_signature(weights_by_dim, kind, normalize=normalize)


def random_signature(rng, n_dims, dim_space=1000, kind="spatial"):
    dims = rng.choice(dim_space, size=n_dims, replace=False)
    weights = rng.uniform(0.05, 1.0, size=n_dims)
    return sig({int(d): float(w) for d, w in zip(dims, weights)}, kind=kind)


def line_anchors(n=100):
    """Anchors at (i, 0) for i in [0, n): dim id == lon coordinate."""
    return AnchorSet(np.arange(n, dtype=float), np.zeros(n))


def mbr_of_ids(anchor_ids, anchors):
    """The bounding box of the anchors with these ids, repeats allowed."""
    ids = np.asarray(list(anchor_ids), dtype=np.int64)
    if len(ids) == 0:
        raise ValueError("cannot bound an empty anchor set")
    lons, lats = anchors.lons[ids], anchors.lats[ids]
    return Mbr(float(lons.min()), float(lats.min()), float(lons.max()), float(lats.max()))


def trace_of(object_id, anchor_ids, t0=1_600_000_000, step=60):
    return Trace(object_id, [(a, t0 + i * step) for i, a in enumerate(anchor_ids)])


def entry(object_id, signature, anchors):
    return (object_id, signature, mbr_of(signature, anchors))


def top_m_row(dims, weights, m):
    """One row's top-m cut by the definition, in plain Python: a row of at
    most ``m`` dims is kept as it is. Otherwise sort by (-weight, dim), keep
    the first ``m``, put them back in dim order and divide by
    ``math.sqrt(seg.dot(seg))``. Returns the dims and the weights."""
    if len(dims) <= m:
        return list(dims), np.asarray(weights, dtype=float)
    kept = sorted(sorted(zip(dims, weights), key=lambda p: (-p[1], p[0]))[:m])
    seg = np.array([w for _, w in kept])
    return [d for d, _ in kept], seg / math.sqrt(seg.dot(seg))


# an index file's magic and header in format v3: version, capacity,
# n_objects, node count, kind length
_INDEX_HEAD = struct.Struct("<10sHIQQH")


def reseal_index(raw):
    """The bytes of an index file with its trailing CRC32 made to match the
    bytes before it again, so a hand edit meets the reader's other rules."""
    body = bytes(raw[:-4])
    return body + zlib.crc32(body).to_bytes(4, "little")


def edit_index_leaf(path, object_id, edit):
    """Rewrite the index file at ``path`` with ``edit(dims, weights, box)``
    applied to leaf ``object_id``'s row, then reseal it. The arguments are
    writable views into the file's sections, read by the format v3 layout;
    ``box`` is the leaf's rectangle (min lon, min lat, max lon, max lat)."""
    raw = bytearray(path.read_bytes())
    _, _, _, _, n_nodes, kind_len = _INDEX_HEAD.unpack_from(raw)
    off = _INDEX_HEAD.size + kind_len

    def take(count, dtype):
        nonlocal off
        arr = np.frombuffer(raw, dtype, count, off)
        off += arr.nbytes
        return arr

    n = int(np.count_nonzero(take(n_nodes, "<u4") == 0))
    ends = np.cumsum(take(n, "<u4")).tolist()
    blob = take(ends[-1], "u1").tobytes()
    ids = [blob[s:e].decode("utf-8") for s, e in zip([0, *ends], ends)]
    indptr = take(n + 1, "<i8")
    dims, weights = take(int(indptr[-1]), "<i8"), take(int(indptr[-1]), "<f8")
    boxes = take(4 * n, "<f8").reshape(n, 4)
    i = ids.index(object_id)
    row = slice(int(indptr[i]), int(indptr[i + 1]))
    edit(dims[row], weights[row], boxes[i])
    path.write_bytes(reseal_index(raw))
