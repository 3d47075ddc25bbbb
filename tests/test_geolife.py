"""The Geolife adapter over a hand-made dataset tree: the .plt reader and
the grid-derived anchor vocabulary."""

from datetime import datetime, timezone

import numpy as np
import pytest

from siglink.geolife import derive_anchors, load_geolife
from siglink.traces import METERS_PER_DEGREE, RawPoint, haversine_m

_HEADER = [
    "Geolife trajectory",
    "WGS 84",
    "Altitude is in Feet",
    "Reserved 3",
    "0,2,255,My Track,0,0,2,8421376",
    "0",
]


def _line(lat, lon, day, time):
    return f"{lat},{lon},0,492,39744.12,{day},{time}"


def _stamp(day, time):
    return int(datetime.fromisoformat(f"{day}T{time}").replace(tzinfo=timezone.utc).timestamp())


def _write_plt(path, lines):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join([*_HEADER, *lines]) + "\n", encoding="utf-8")


@pytest.fixture
def geolife_root(tmp_path):
    """Users 000 and 001 with fixes; 002 without a Trajectory directory; 003
    whose only file holds no usable line."""
    _write_plt(tmp_path / "000/Trajectory/20081024.plt", [
        _line(39.91, 116.31, "2008-10-24", "08:00:00"),
        "39.92,116.32,0",  # short
        _line(39.93, 116.33, "2008-13-45", "08:00:05"),  # no such date
        _line(39.94, 116.34, "2008-10-24", "08:00:10"),
    ])
    # files are read in name order, so this one's fixes come first
    _write_plt(tmp_path / "000/Trajectory/20081023.plt", [
        _line(39.90, 116.30, "2008-10-23", "23:59:59"),
    ])
    _write_plt(tmp_path / "001/Trajectory/20090101.plt", [
        _line(40.0, 116.5, "2009-01-01", "00:00:00"),
        _line(40.1, 116.6, "2009-01-01", "00:01:00"),
    ])
    (tmp_path / "002").mkdir()
    _write_plt(tmp_path / "003/Trajectory/20090102.plt", ["1,2,3"])
    (tmp_path / "notes.txt").write_text("not a user\n")
    return tmp_path


def test_load_geolife_reads_each_users_fixes_skipping_bad_lines(geolife_root):
    assert load_geolife(geolife_root) == {
        "000": [
            RawPoint(116.30, 39.90, _stamp("2008-10-23", "23:59:59")),
            RawPoint(116.31, 39.91, _stamp("2008-10-24", "08:00:00")),
            RawPoint(116.34, 39.94, _stamp("2008-10-24", "08:00:10")),
        ],
        "001": [
            RawPoint(116.5, 40.0, _stamp("2009-01-01", "00:00:00")),
            RawPoint(116.6, 40.1, _stamp("2009-01-01", "00:01:00")),
        ],
    }


@pytest.mark.parametrize("max_users,users", [(1, ["000"]), (2, ["000", "001"]),
                                             (3, ["000", "001"]), (None, ["000", "001"])])
def test_load_geolife_reads_the_first_max_users_directories(geolife_root, max_users, users):
    # the limit counts user directories in name order, with or without fixes
    assert sorted(load_geolife(geolife_root, max_users=max_users)) == users


# fixes per place: three kept clusters, one below min_visits=5 and one far
# outside the region's box
_PLACES = [((116.35, 39.90), 5), ((116.30, 39.95), 6), ((116.30, 39.90), 5),
           ((116.33, 39.93), 4), ((10.0, 10.0), 7)]
_BOX = (116.0, 39.0, 117.0, 41.0)


def _raw():
    fixes = [RawPoint(lon, lat, i) for (lon, lat), n in _PLACES for i in range(n)]
    return {"u1": fixes[::2], "u2": fixes[1::2]}


def _anchor_points(anchors):
    return list(zip(anchors.lons.tolist(), anchors.lats.tolist()))


def test_derive_anchors_keeps_well_visited_cell_centres_in_cell_order():
    anchors = derive_anchors(_raw(), cell_m=200.0, min_visits=5, bbox=_BOX)
    # cells sort by column, then row: (116.30, 39.90), (116.30, 39.95), (116.35, 39.90)
    kept = [_PLACES[2][0], _PLACES[1][0], _PLACES[0][0]]
    assert len(anchors) == 3
    for (lon, lat), place in zip(_anchor_points(anchors), kept):
        assert haversine_m(lon, lat, *place) < 200.0
    # the south-west fix sits on the grid's corner, so its anchor is the
    # centre of cell (0, 0)
    in_box = [lat for (lon, lat), n in _PLACES[:4] for _ in range(n)]
    dlat = 200.0 / METERS_PER_DEGREE
    dlon = dlat / np.cos(np.radians(np.mean(in_box)))
    expect = (116.30 + 0.5 * dlon, 39.90 + 0.5 * dlat)
    assert _anchor_points(anchors)[0] == pytest.approx(expect, rel=1e-12)


def test_derive_anchors_without_a_box_keeps_far_fixes():
    anchors = derive_anchors(_raw(), cell_m=200.0, min_visits=5)
    assert len(anchors) == 4
    assert haversine_m(*_anchor_points(anchors)[0], 10.0, 10.0) < 200.0


@pytest.mark.parametrize("raw,kwargs,error", [
    (_raw(), {"min_visits": 8}, "no grid cell reaches 8 visits"),
    (_raw(), {"bbox": (0.0, 0.0, 1.0, 1.0)}, "no fixes available to derive anchors from"),
    ({}, {}, "no fixes available to derive anchors from"),
], ids=["min-visits", "box-without-fixes", "no-fixes"])
def test_derive_anchors_refuses_an_empty_vocabulary(raw, kwargs, error):
    with pytest.raises(ValueError, match=error):
        derive_anchors(raw, **kwargs)
