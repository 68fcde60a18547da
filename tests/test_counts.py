"""Pair and edge counts of scored patterns against plain enumeration, and the
batched mass core of the background model against its one-row case."""

from unittest.mock import patch

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from simine import (Description, EqualsSelector, FitError, ScoreConstants, background,
                    fit_degree_prior, score_bi, score_single, update_with_pattern)

from conftest import brute_force_counts, random_graph

W1 = Description((EqualsSelector("a", "v0"),))
W2 = Description((EqualsSelector("b", "v1"),))
FIELDS = ("n_w", "k_w", "edges", "pair_slots")


def _extensions(rng, n, relation):
    mask1 = rng.random(n) < 0.5
    if relation == "equal":
        return mask1, mask1.copy()
    mask2 = rng.random(n) < 0.5
    if relation == "disjoint":
        mask2 &= ~mask1
    return mask1, mask2


def _convention(counting, single, directed):
    if directed:
        return "ordered"
    if counting == "auto":
        return "ordered" if single else "unordered"
    return counting


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 31 - 1), n=st.integers(2, 14), directed=st.booleans(),
       counting=st.sampled_from(["auto", "ordered", "unordered"]),
       relation=st.sampled_from(["overlap", "disjoint", "equal"]))
def test_counts_match_enumeration(seed, n, directed, counting, relation):
    rng = np.random.default_rng(seed)
    g = random_graph(seed, n=n, p=float(rng.uniform(0.1, 0.9)), directed=directed)
    try:
        model = fit_degree_prior(g)
    except FitError:
        assume(False)
    c = ScoreConstants(pair_counting=counting)
    mask1, mask2 = _extensions(rng, n, relation)

    pat = score_bi(g, model, W1, mask1, W2, mask2, c)
    conv = _convention(counting, False, directed)
    want = brute_force_counts(g, mask1, mask2, conv)
    if want["pair_slots"] == 0:
        assert pat is None
    else:
        assert pat.convention == conv
        assert {f: getattr(pat, f) for f in FIELDS} == want
        if not directed:  # the mirrored pattern ties exactly
            mirror = score_bi(g, model, W2, mask2, W1, mask1, c)
            assert (mirror.si, mirror.k_w, mirror.n_w) == (pat.si, pat.k_w, pat.n_w)

    pat = score_single(g, model, W1, mask1, c)
    conv = _convention(counting, True, directed)
    want = brute_force_counts(g, mask1, mask1, conv)
    if want["pair_slots"] == 0:
        assert pat is None
    else:
        assert pat.convention == conv
        assert {f: getattr(pat, f) for f in FIELDS} == want


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 31 - 1), directed=st.booleans(), small_table=st.booleans(),
       updates=st.integers(0, 2))
def test_one_row_mass_matches_batched_row(seed, directed, small_table, updates):
    # a table budget of 3 cells leaves any model with K > 1 without a class
    # table, so the sums come from sub-tables built one class row at a time
    with patch.object(background, "_TABLE_CELLS", 3 if small_table else 2_000_000):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(6, 30))
        g = random_graph(seed, n=n, directed=directed)
        try:
            model = fit_degree_prior(g)
        except FitError:
            assume(False)
        for _ in range(updates):
            ext1, ext2 = _extensions(rng, n, "overlap")
            if ext1.any() and ext2.any():
                pat = score_bi(g, model, W1, ext1, W2, ext2, ScoreConstants())
                if pat is not None:
                    model = update_with_pattern(model, pat)
        assert (model._P_off is None) == (small_table and model.n_classes > 1)
        rows = rng.random(n) < 0.5
        cols = rng.random((8, n)) < 0.5
        cols[0] = rows  # a column set equal to the rows
        cols[1] = False  # an empty one
        h_r = model.class_histograms(rows[None, :])[0]
        H_c = model.class_histograms(cols)
        H_o = model.class_histograms(cols & rows)
        ordered, overlap = model.pair_sums_many(h_r, H_c, H_o)
        # one row set per column set, paired with it: the rows of each pair
        # are the next column set
        H_r = np.roll(H_c, -1, axis=0)
        H_p = model.class_histograms(cols & np.roll(cols, -1, axis=0))
        paired = model.pair_sums_many(H_r, H_c, H_p)
        for i in range(len(cols)):
            one = model.pair_sums_many(h_r, H_c[i], H_o[i])
            assert np.ndim(one[0]) == np.ndim(one[1]) == 0
            np.testing.assert_allclose(one, (ordered[i], overlap[i]), rtol=1e-12, atol=0)
            got = model.pair_sums(np.flatnonzero(rows), np.flatnonzero(cols[i]))
            np.testing.assert_allclose(got, one, rtol=1e-12, atol=0)
            nxt = cols[(i + 1) % len(cols)]
            got = model.pair_sums(np.flatnonzero(nxt), np.flatnonzero(cols[i]))
            np.testing.assert_allclose(got, (paired[0][i], paired[1][i]), rtol=1e-12, atol=0)


def _bits(pat):
    """Every field of a pattern, floats by their bits."""
    return {f: (v.hex() if isinstance(v, float) else
                v.tolist() if isinstance(v, np.ndarray) else v)
            for f, v in vars(pat).items()}


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 31 - 1), n=st.integers(2, 14), directed=st.booleans(),
       counting=st.sampled_from(["auto", "ordered", "unordered"]),
       relation=st.sampled_from(["overlap", "disjoint", "equal"]))
def test_score_bi_given_counts_is_bit_identical(seed, n, directed, counting, relation):
    rng = np.random.default_rng(seed)
    g = random_graph(seed, n=n, p=float(rng.uniform(0.1, 0.9)), directed=directed)
    try:
        model = fit_degree_prior(g)
    except FitError:
        assume(False)
    c = ScoreConstants(pair_counting=counting)
    mask1, mask2 = _extensions(rng, n, relation)
    over = mask1 & mask2
    counted = score_bi(g, model, W1, mask1, W2, mask2, c)
    given_counts = score_bi(g, model, W1, mask1, W2, mask2, c,
                            edges=g.count_edges_between(mask1, mask2),
                            inside=g.count_edges_between(over, over))
    assert (counted is None) == (given_counts is None)
    if counted is not None:
        assert _bits(given_counts) == _bits(counted)
