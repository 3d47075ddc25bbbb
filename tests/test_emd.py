"""The transport solver is checked against a brute-force minimum over all
feasible integral flows, which only needs the marginals to match."""

import math

import numpy as np
import pytest

from siglink.signatures import emd, emd_similarity, temporal_cost


def bruteforce_emd_counts(a_counts, b_counts, dt_hours):
    """Minimum transport cost between integer histograms by exhaustive
    enumeration of integral flow matrices."""
    d = len(a_counts)
    assert sum(a_counts) == sum(b_counts)
    costs = [[temporal_cost(i, j, dt_hours) for j in range(d)] for i in range(d)]
    best = math.inf

    def fill_source(i, need_b, acc):
        nonlocal best
        if acc >= best:
            return
        if i == len(a_counts):
            best = acc
            return
        supply = a_counts[i]

        def split(j, left, acc2):
            nonlocal best
            if acc2 >= best:
                return
            if j == d - 1:
                if left <= need_b[j]:
                    need_b[j] -= left
                    fill_source(i + 1, need_b, acc2 + left * costs[i][j])
                    need_b[j] += left
                return
            for amount in range(min(left, need_b[j]), -1, -1):
                need_b[j] -= amount
                split(j + 1, left - amount, acc2 + amount * costs[i][j])
                need_b[j] += amount

        split(0, supply, acc)

    fill_source(0, list(b_counts), 0.0)
    return best


def hist(counts):
    counts = np.asarray(counts, dtype=float)
    return counts / counts.sum()


def test_identical_histograms_full_similarity():
    h = hist([3, 1, 0, 2])
    assert emd(h, h, 6) == 0.0
    assert emd_similarity(h, h, 6) == 1.0


def test_antipodal_point_masses():
    a = hist(np.eye(24)[0])
    b = hist(np.eye(24)[12])
    assert emd(a, b, 1) == pytest.approx(1.0, abs=1e-12)
    assert emd_similarity(a, b, 1) == pytest.approx(0.0, abs=1e-12)


def test_wraparound_neighbors():
    a = hist(np.eye(24)[0])
    b = hist(np.eye(24)[23])
    assert emd(a, b, 1) == pytest.approx(1 / 12, abs=1e-12)
    assert emd_similarity(a, b, 1) == pytest.approx(1 - 1 / 12, abs=1e-12)


def test_layout_mismatch_rejected():
    two, four = np.array([0.5, 0.5]), np.full(4, 0.25)
    for a, b, dt in ((two, four, 12), (two, four, 6), (four, four, 12), (two, two[None], 12)):
        with pytest.raises(ValueError, match="histogram layout mismatch"):
            emd(a, b, dt)


def test_unnormalized_rejected():
    a = np.array([2.0, 0.0])
    with pytest.raises(ValueError, match="EMD needs both histograms L1-normalized"):
        emd(a, a, 12)


@pytest.mark.parametrize(
    "bad",
    [
        np.array([0.0, 0.0]),  # an empty trace's row
        np.array([1.5, -0.5]),  # sums to 1
        np.array([np.nan, 1.0]),
        np.array([np.inf, 0.0]),
    ],
    ids=["all-zero", "negative-bin", "nan-bin", "inf-bin"],
)
def test_a_row_that_is_no_distribution_is_rejected(bad):
    good = np.array([0.5, 0.5])
    for a, b in ((bad, good), (good, bad)):
        with pytest.raises(ValueError, match="EMD needs both histograms L1-normalized"):
            emd(a, b, 12)


def test_matches_bruteforce_oracle_small():
    rng = np.random.default_rng(42)
    dt_by_d = {2: 12, 3: 8, 4: 6, 6: 4}
    for _ in range(60):
        d = int(rng.choice([2, 3, 4, 6]))
        dt = dt_by_d[d]
        total = int(rng.integers(1, 8))
        a = rng.multinomial(total, np.ones(d) / d)
        b = rng.multinomial(total, np.ones(d) / d)
        expected = bruteforce_emd_counts(a.tolist(), b.tolist(), dt) / total
        got = emd(hist(a), hist(b), dt)
        assert got == pytest.approx(expected, abs=1e-9), (a, b, dt)


def test_metric_axioms_random():
    rng = np.random.default_rng(9)
    for _ in range(120):
        d = int(rng.choice([4, 6, 12, 24]))
        dt = 24 // d
        hs = []
        for _ in range(3):
            hs.append(hist(rng.uniform(0, 1, d)))
        a, b, c = hs
        assert emd(a, a, dt) == pytest.approx(0.0, abs=1e-12)
        assert emd(a, b, dt) == pytest.approx(emd(b, a, dt), abs=1e-12)
        assert emd(a, c, dt) <= emd(a, b, dt) + emd(b, c, dt) + 1e-9
        assert 0.0 <= emd(a, b, dt) <= 1.0


def test_cost_matrix_values():
    assert temporal_cost(5, 5, 1) == 0.0
    assert temporal_cost(0, 12, 1) == 1.0
    assert temporal_cost(0, 23, 1) == pytest.approx(1 / 12)
    assert temporal_cost(0, 1, 12) == 1.0
    with pytest.raises(ValueError):
        temporal_cost(0, 30, 1)
