"""Pair and edge counts of scored patterns against plain enumeration, the
batched mass core of the background model against its one-row case, and the
searches' packed rows and the nested screen's counts against bool rows."""

from unittest.mock import patch

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from simine import (AttributedGraph, BackgroundModel, Description, EqualsSelector, FitError,
                    ScoreConstants, background, fit_degree_prior, score_bi, score_single,
                    search, update_with_pattern)
from simine.search import _BiScreen

from conftest import (brute_force_counts, class_histograms, random_graph, refiner_rows,
                      screen_pairs)

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
        h_r = class_histograms(model, rows[None, :])[0]
        H_c = class_histograms(model, cols)
        H_o = class_histograms(model, cols & rows)
        ordered, overlap = model.pair_sums_many(h_r, H_c, H_o)
        # one row set per column set, paired with it: the rows of each pair
        # are the next column set
        H_r = np.roll(H_c, -1, axis=0)
        H_p = class_histograms(model, cols & np.roll(cols, -1, axis=0))
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
       relation=st.sampled_from(["overlap", "disjoint", "equal"]), small_table=st.booleans())
def test_score_bi_given_counts_is_bit_identical(seed, n, directed, counting, relation,
                                                small_table):
    # a table budget of 3 cells leaves any model with K > 1 without a class
    # table; both orientations of each pair are scored, so the canonical swap
    # of undirected pair sums applies to one of them
    with patch.object(background, "_TABLE_CELLS", 3 if small_table else 2_000_000):
        rng = np.random.default_rng(seed)
        g = random_graph(seed, n=n, p=float(rng.uniform(0.1, 0.9)), directed=directed)
        try:
            model = fit_degree_prior(g)
        except FitError:
            assume(False)
        c = ScoreConstants(pair_counting=counting)
        mask1, mask2 = _extensions(rng, n, relation)
        refiner, rows = refiner_rows(g, model, np.array([mask1, mask2]))
        screen = _BiScreen(g, refiner, c, False)
        for (z1, m1, r1), (z2, m2, r2) in [((W1, mask1, 0), (W2, mask2, 1)),
                                           ((W2, mask2, 1), (W1, mask1, 0))]:
            over = m1 & m2
            counted = score_bi(g, model, z1, m1, z2, m2, c)
            h1, h2, h_o = screen.histograms(screen.w1_rows(rows[r1:r1 + 1]), rows,
                                            np.zeros(1, np.int64), np.full(1, r2))
            given_counts = score_bi(g, model, z1, m1, z2, m2, c,
                                    edges=g.count_edges_between(m1, m2),
                                    inside=g.count_edges_between(over, over),
                                    hists=(h1[0], h2[0], h_o[0]), ids1=np.flatnonzero(m1))
            assert (counted is None) == (given_counts is None)
            if counted is not None:
                assert _bits(given_counts) == _bits(counted)


def _graph_with_edges(rng, n, m, directed):
    """A graph on n vertices with min(m, number of vertex pairs) edges drawn
    at random."""
    pairs = [(u, v) for u in range(n) for v in range(n) if (u != v if directed else u < v)]
    picked = rng.choice(len(pairs), size=min(m, len(pairs)), replace=False)
    return AttributedGraph(n, [pairs[i] for i in sorted(picked)], directed=directed)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 31 - 1), n=st.sampled_from([2, 5, 63, 64, 65, 128, 130, 191]),
       m=st.sampled_from([None, 0, 63, 64, 65]),
       layout=st.sampled_from(["random", "words", "singletons"]), directed=st.booleans(),
       screen_cells=st.sampled_from([None, 1]))
def test_packed_class_counts_match_bool_rows(seed, n, m, layout, directed, screen_cells):
    # "words" puts every class boundary on a word boundary (64 vertices per
    # class); "singletons" makes every vertex its own class (K = n); 64 edges
    # fill the edge slice's first word, and m=None draws a G(n, p) graph
    # dense enough for several bit planes of neighbour counts; one screen
    # cell screens a W1 and a pair at a time
    rng = np.random.default_rng(seed)
    if layout == "singletons":
        cls = rng.permutation(n)
    elif layout == "words":
        cls = rng.permutation(n) // 64
    else:
        cls = rng.permutation(np.arange(n) % int(rng.integers(1, n + 1)))
    k = int(cls.max()) + 1
    model = BackgroundModel(n, directed, cls=cls, lam_row=rng.normal(size=k),
                            lam_col=rng.normal(size=k) if directed else None)
    g = (random_graph(seed, n=n, p=float(rng.uniform(0.02, 0.3)), directed=directed)
         if m is None else _graph_with_edges(rng, n, m, directed))
    masks1 = rng.random((5, n)) < rng.uniform(0.1, 0.9)
    masks2 = rng.random((6, n)) < rng.uniform(0.1, 0.9)
    masks1[0] = False  # an empty row
    masks2[0], masks2[1] = True, False  # a full row and an empty one
    masks2[2] = masks1[1]
    pi, pj = (x.ravel() for x in np.indices((len(masks1), len(masks2))))
    # the rows of both sides and of every pair's intersection, in one refiner
    masks = np.concatenate([masks1, masks2, masks1[pi] & masks2[pj]])
    refiner, rows = refiner_rows(g, model, masks)
    rows1, rows2, rows_o = np.split(rows, [len(masks1), len(masks1) + len(masks2)])
    np.testing.assert_array_equal(rows1[pi] & rows2[pj], rows_o)
    np.testing.assert_array_equal(refiner.class_counts(rows), class_histograms(model, masks))
    np.testing.assert_array_equal(refiner.class_counts(rows).sum(axis=1),
                                  np.count_nonzero(masks, axis=1))
    np.testing.assert_array_equal(refiner.masks(rows), masks)
    np.testing.assert_array_equal(refiner.edges_inside(rows),
                                  [g.count_edges_between(mask, mask) for mask in masks])
    block = search._SCREEN_CELLS if screen_cells is None else screen_cells
    with patch.object(search, "_SCREEN_CELLS", block):
        screen = _BiScreen(g, refiner, ScoreConstants(), False)
        _, _, H, sizes = screen.w1_rows(rows1[:screen.w1_step])
        np.testing.assert_array_equal(H, class_histograms(model, masks1[:screen.w1_step]))
        np.testing.assert_array_equal(sizes, np.count_nonzero(masks1[:screen.w1_step], axis=1))
        _, _, edges, inside, h1, h2, h_o = screen_pairs(screen, rows1, rows2, pi, pj,
                                                        np.full(pi.size, 2))
    np.testing.assert_array_equal(h1, class_histograms(model, masks1)[pi])
    np.testing.assert_array_equal(h2, class_histograms(model, masks2)[pj])
    np.testing.assert_array_equal(h_o, class_histograms(model, masks1[pi] & masks2[pj]))
    for i, j, e, e_in in zip(pi, pj, edges, inside):
        assert e == g.count_edges_between(masks1[i], masks2[j])
        if not directed:
            over = masks1[i] & masks2[j]
            assert e_in == g.count_edges_between(over, over)
