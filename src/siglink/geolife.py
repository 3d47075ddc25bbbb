"""Adapter for the public Geolife GPS dataset layout.

Reads per-user .plt files into raw points and derives an anchor vocabulary by
grid-quantizing the data, since no road map ships with the dataset.
"""

from __future__ import annotations

from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .traces import AnchorSet, RawPoint, metre_grid


def load_geolife(root: str | Path, max_users: int | None = None) -> dict[str, list[RawPoint]]:
    """Read `<root>/<user>/Trajectory/*.plt` files; timestamps are GMT."""
    root = Path(root)
    users = sorted(p for p in root.iterdir() if p.is_dir())
    if max_users is not None:
        users = users[:max_users]
    out: dict[str, list[RawPoint]] = {}
    for user_dir in users:
        traj_dir = user_dir / "Trajectory"
        if not traj_dir.is_dir():
            continue
        points: list[RawPoint] = []
        for plt in sorted(traj_dir.glob("*.plt")):
            with open(plt, encoding="utf-8", errors="ignore") as fh:
                lines = fh.readlines()[6:]
            for line in lines:
                parts = line.strip().split(",")
                if len(parts) < 7:
                    continue
                try:
                    lat = float(parts[0])
                    lon = float(parts[1])
                    stamp = datetime.strptime(
                        f"{parts[5]} {parts[6]}", "%Y-%m-%d %H:%M:%S"
                    ).replace(tzinfo=timezone.utc)
                except ValueError:
                    continue
                points.append(RawPoint(lon, lat, int(stamp.timestamp())))
        if points:
            out[user_dir.name] = points
    return out


def derive_anchors(
    raw: dict[str, list[RawPoint]],
    cell_m: float = 200.0,
    min_visits: int = 5,
    bbox: tuple[float, float, float, float] | None = None,
) -> AnchorSet:
    """Quantize all fixes to a square grid and keep well-visited cell centers.

    ``bbox`` (min_lon, min_lat, max_lon, max_lat) restricts the data to one
    region first, which matters for Geolife's scattered world-wide fixes.
    """
    lons = np.array([p.lon for pts in raw.values() for p in pts])
    lats = np.array([p.lat for pts in raw.values() for p in pts])
    if bbox is not None:
        keep = (
            (lons >= bbox[0]) & (lons <= bbox[2]) & (lats >= bbox[1]) & (lats <= bbox[3])
        )
        lons, lats = lons[keep], lats[keep]
    if len(lons) == 0:
        raise ValueError("no fixes available to derive anchors from")
    xy, (west, south, dlon, dlat) = metre_grid(lons, lats, cell_m)
    cells, counts = np.unique(xy, axis=0, return_counts=True)
    cells = cells[counts >= min_visits]
    if len(cells) == 0:
        raise ValueError(f"no grid cell reaches {min_visits} visits")
    order = np.lexsort((cells[:, 1], cells[:, 0]))
    cells = cells[order]
    anchor_lons = west + (cells[:, 0] + 0.5) * dlon
    anchor_lats = south + (cells[:, 1] + 0.5) * dlat
    return AnchorSet(anchor_lons, anchor_lats)
