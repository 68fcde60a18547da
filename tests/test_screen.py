"""The batched screens of both searches against the exact scores of
``score_bi`` and ``score_single``, and against the score-everything
reference searches in ``conftest``."""

from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from simine import (AttributedGraph, BackgroundModel, Description, EqualsSelector, FitError,
                    ScoreConstants, SearchConfig, SelectorConfig, background, beam_search_single,
                    extension, fit_degree_prior, generate_selectors, iterate, nested_beam_search,
                    search, update_with_pattern)
from simine.search import _BiScreen, _Refiner, _SingleScreen

from conftest import (random_graph, reference_beam_search_single, reference_iterate, refiner_rows,
                      rendered, score_mask, score_masks, screen_pairs)


def _levels(g, model, sels, min_size):
    """A refiner of ``sels`` under ``model``, and the nodes of the
    admissible refinements of its root and of those refinements: the
    descriptions of up to two selectors a search would screen."""
    refiner = _Refiner(g, model, sels, min_size)
    levels, parents = [], [refiner.root]
    for _ in range(2):
        children = refiner.expand([parents])
        parents = refiner.nodes(children, np.arange(len(children.key)))
        levels.append(parents)
    return refiner, levels


def _absorb_random(g, model, sels, c, seed, updates, min_size):
    """``model`` after absorbing ``updates`` random bi patterns of the
    descriptions ``_levels`` lists, so classes split by their rows and
    columns."""
    rng = np.random.default_rng(seed)
    refiner, (level1, level2) = _levels(g, model, sels, min_size)
    nodes = level1 + level2
    masks = refiner.masks(np.array([nd.row for nd in nodes]))
    for _ in range(updates):
        i, j = rng.integers(0, len(nodes), size=2)
        pat = score_mask(g, model, refiner.description(nodes[i]), masks[i],
                         refiner.description(nodes[j]), masks[j], c)
        if pat is not None:
            model = update_with_pattern(model, pat)
    return model


def _assert_extensions(g, patterns):
    """Every pattern carries the ids of its descriptions' extensions, and a
    single-subgroup pattern its number of crossing edges."""
    for pat in patterns:
        mask1 = extension(pat.w1, g)
        np.testing.assert_array_equal(pat.ext1_ids, np.flatnonzero(mask1))
        if pat.is_single:
            assert pat.ext2_ids is None
            assert pat.inter_edges == g.inter_edge_count(mask1)
        else:
            np.testing.assert_array_equal(pat.ext2_ids, np.flatnonzero(extension(pat.w2, g)))
            assert pat.inter_edges is None


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 100_000), n=st.integers(12, 30), directed=st.booleans(),
       counting=st.sampled_from(["auto", "ordered", "unordered"]),
       shared=st.booleans(), disjoint=st.booleans(), updates=st.integers(0, 2),
       table_cells=st.sampled_from([None, 1, 12]),
       screen_cells=st.sampled_from([None, 1, 64]),
       x1=st.integers(1, 4), x2=st.integers(1, 5), depth=st.integers(1, 3))
def test_screen_matches_score_bi_and_reference(seed, n, directed, counting, shared, disjoint,
                                               updates, table_cells, screen_cells, x1, x2,
                                               depth):
    # a small table budget splits the model's class table, so pair sums
    # come from chunks of one (1) or a few (12) class rows;
    # a small screen budget screens W1s and W2s one (1) or a few (64 cells'
    # worth) at a time
    cells = background._TABLE_CELLS if table_cells is None else table_cells
    block = search._SCREEN_CELLS if screen_cells is None else screen_cells
    with patch.object(background, "_TABLE_CELLS", cells), \
            patch.object(search, "_SCREEN_CELLS", block):
        g = random_graph(seed, n=n, attrs=(("a", 2), ("b", 3), ("c", 2)),
                         directed=directed, numeric=("x",))
        try:
            model = fit_degree_prior(g)
        except FitError:
            assume(False)
        sels = generate_selectors(g, SelectorConfig(numeric_bins=3))
        c = ScoreConstants(pair_counting=counting)
        model = _absorb_random(g, model, sels, c, seed, updates, 1)
        # the rows under the final model: absorbing re-lays the classes
        refiner, (level1, level2) = _levels(g, model, sels, 1)
        nodes = level1 + level2

        # every W1 of nodes in one call, each paired with a seventh of the
        # nodes as W2s, a different seventh for consecutive W1s
        rows = np.array([nd.row for nd in nodes])
        masks = refiner.masks(rows)
        np.testing.assert_array_equal(masks, [extension(refiner.description(nd), g)
                                              for nd in nodes])
        lengths = np.array([len(nd.sels) for nd in nodes])
        pi, pj = np.nonzero(np.add.outer(np.arange(len(nodes)), np.arange(len(nodes))) % 7 == 0)
        si, bound, edges, inside, h1, h2, h_o = screen_pairs(
            _BiScreen(g, refiner, c, disjoint), rows, rows, pi, pj, lengths[pi] + lengths[pj])
        descs = [refiner.description(nd) for nd in nodes]
        pats = score_masks(g, model, [descs[i] for i in pi], masks[pi], [descs[j] for j in pj],
                           masks[pj], c)
        # the screen's product also pairs each shared vertex with itself: its
        # rounding, relative to the pair's ordered mass, grows by their ratio
        # (exactly 1 where the sides share no vertex; the mass is floored at
        # PROB_EPS, the least a pair u != v carries)
        T1, diag = model.row_mass(h1)
        product = (T1 * h2).sum(axis=1)
        ratio = product / np.maximum(product - h_o @ diag, background.PROB_EPS)
        assert np.all(ratio[h_o.sum(axis=1) == 0] == 1.0)
        for k, (i, j, pat) in enumerate(zip(pi.tolist(), pj.tolist(), pats)):
            # the screen's counts are the ones the mask path counts
            assert edges[k] == g.count_edges_between(masks[i], masks[j])
            if not directed:
                over = masks[i] & masks[j]
                assert inside[k] == g.count_edges_between(over, over)
            if pat is None or (disjoint and pat.overlap):
                assert si[k] == -np.inf
                continue
            assert pat.edges == edges[k]
            err = abs(si[k] - pat.si)
            assert err <= bound[k]
            # 1e-12 relative (times the product-over-mass ratio), or rounding
            # of a near-zero KL divergence
            assert err <= 1e-12 * ratio[k] * abs(pat.si) + 1e-13 * pat.n_w / pat.dl

        cfg = SearchConfig(x1=x1, x2=x2, depth=depth, require_shared_attribute=shared,
                           require_disjoint_extensions=disjoint, constants=c)
        # round 1 is nested_beam_search under the model, round 2 after absorbing
        got = iterate(g, model, sels, cfg, rounds=2).rounds
        want = reference_iterate(g, model, sels, cfg, rounds=2)
        assert [rendered(r) for r in got] == [rendered(r) for r in want]
        for pats in got:
            _assert_extensions(g, pats)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 100_000), n=st.integers(12, 30), directed=st.booleans(),
       counting=st.sampled_from(["auto", "ordered", "unordered"]), updates=st.integers(0, 2),
       table_cells=st.sampled_from([None, 1, 12]), width=st.integers(1, 6),
       depth=st.integers(1, 3), min_size=st.integers(1, 4))
def test_single_screen_matches_score_single_and_reference(seed, n, directed, counting,
                                                          updates, table_cells, width,
                                                          depth, min_size):
    cells = background._TABLE_CELLS if table_cells is None else table_cells
    with patch.object(background, "_TABLE_CELLS", cells):
        g = random_graph(seed, n=n, attrs=(("a", 2), ("b", 3), ("c", 2)),
                         directed=directed, numeric=("x",))
        try:
            model = fit_degree_prior(g)
        except FitError:
            assume(False)
        sels = generate_selectors(g, SelectorConfig(numeric_bins=3))
        c = ScoreConstants(pair_counting=counting)
        model = _absorb_random(g, model, sels, c, seed, updates, 2)
        refiner, levels = _levels(g, model, sels, 2)
        screen = _SingleScreen(g, refiner, c)
        for length, level in enumerate(levels, start=1):
            if not level:
                continue
            rows = np.array([nd.row for nd in level])
            masks = refiner.masks(rows)
            np.testing.assert_array_equal(masks, [extension(refiner.description(nd), g)
                                                  for nd in level])
            sizes = masks.sum(axis=1)
            edges = np.array([g.count_edges_between(m, m) for m in masks])
            si, bound = screen.scores(refiner.class_counts(rows), sizes, edges, length)
            pats = score_masks(g, model, [refiner.description(nd) for nd in level], masks, None,
                               None, c)
            for k, pat in enumerate(pats):
                err = abs(si[k] - pat.si)
                assert err <= bound[k]
                # 1e-12 relative, or rounding of a near-zero KL divergence
                assert err <= 1e-12 * abs(pat.si) + 1e-13 * pat.n_w / pat.dl

        cfg = SearchConfig(beam_width=width, depth=depth, min_extension_size=min_size,
                           constants=c)
        got = beam_search_single(g, model, sels, cfg)
        want = reference_beam_search_single(g, model, sels, cfg)
        assert rendered(got) == rendered(want)
        _assert_extensions(g, got)


@pytest.mark.parametrize("directed", [False, True])
def test_screen_blocks_leave_the_levels_unchanged(directed):
    """A block ANDs and counts the rows it gathers from the chunk's and the
    level's arrays in place, and takes its ordered masses from the chunk's
    products; with a small screen budget one search screens many blocks,
    and none of them writes to the arrays it read: the rows, planes,
    histograms, sizes and mass rows of the W1s, the W2s' arrays, or the
    products."""
    block, seen = _BiScreen._block, []

    def checked(screen, w1, w2, i, j, lengths, gross):
        before = [x.copy() for x in (*w1, *w2, gross)]
        out = block(screen, w1, w2, i, j, lengths, gross)
        for x, y in zip((*w1, *w2, gross), before):
            np.testing.assert_array_equal(x, y)
        seen.append(i.size)
        return out

    with patch.object(search, "_SCREEN_CELLS", 1), patch.object(_BiScreen, "_block", checked):
        g = random_graph(7, n=40, attrs=(("a", 2), ("b", 3), ("c", 2)), directed=directed,
                         numeric=("x",))
        nested_beam_search(g, fit_degree_prior(g), generate_selectors(g),
                           SearchConfig(x1=3, x2=3))
    assert len(set(seen)) > 1


def _screen_calls(calls):
    """``_BiScreen.w1_rows`` and ``_block`` patched to count their calls in
    ``calls`` (keys "w1_rows" and "_block")."""
    w1_rows, block = _BiScreen.w1_rows, _BiScreen._block

    def counted_rows(screen, rows):
        calls["w1_rows"] += 1
        return w1_rows(screen, rows)

    def counted_block(screen, *args):
        calls["_block"] += 1
        return block(screen, *args)

    return patch.multiple(_BiScreen, w1_rows=counted_rows, _block=counted_block)


@pytest.mark.parametrize("directed", [False, True])
@pytest.mark.parametrize("shared,disjoint", [(False, False), (True, False), (False, True),
                                             (True, True)])
def test_nested_reports_do_not_depend_on_the_screen_budget(directed, shared, disjoint):
    """The screen budget sets how many W1s a chunk holds and how many pairs
    a block screens, never what is reported: the nested search and two
    rounds of iterative mining print the same reports, SIs bit for bit,
    under screen budgets from one cell (chunks of a few W1s, blocks of a few
    pairs) to 2^30 (a depth's W1s in one chunk, a level in one block), which
    take different numbers of chunks and blocks."""
    g = random_graph(11, n=90, p=0.08, attrs=(("a", 3), ("b", 4), ("c", 3)),
                     directed=directed, numeric=("x",))
    model = fit_degree_prior(g)
    sels = generate_selectors(g, SelectorConfig(numeric_bins=3))
    cfg = SearchConfig(x1=4, x2=3, depth=2, require_shared_attribute=shared,
                       require_disjoint_extensions=disjoint)

    def bits(pats):
        return [float(p.si).hex() for p in pats]

    reports, calls = [], []
    for cells in (1, 64, search._SCREEN_CELLS, 1 << 30):
        counted = dict.fromkeys(["w1_rows", "_block"], 0)
        with patch.object(search, "_SCREEN_CELLS", cells), _screen_calls(counted):
            found = nested_beam_search(g, model, sels, cfg)
            rounds = iterate(g, model, sels, cfg, rounds=2, absorb=1).rounds
        assert found and len(rounds) == 2
        reports.append([(rendered(r), bits(r)) for r in [found, *rounds]])
        calls.append((counted["w1_rows"], counted["_block"]))
    assert all(r == reports[0] for r in reports[1:])
    # no more chunks or blocks as the budget grows, and fewer under the largest
    for counts in zip(*calls):
        assert list(counts) == sorted(counts, reverse=True) and counts[0] > counts[-1]


@pytest.mark.parametrize("directed", [False, True])
@pytest.mark.parametrize("screen_cells", [None, 1])
def test_screen_chunks_and_blocks_stay_within_the_budget(directed, screen_cells):
    """The memory the screen promises: a chunk holds at most ``w1_step``
    W1s, and a block's pairs times its widest row (the W1s' neighbour-count
    planes, the W2s' rows, or a class histogram with its boundary) hold at
    most half of ``floats`` cells, under the default budget and a small
    one."""
    w1_rows, block = _BiScreen.w1_rows, _BiScreen._block
    chunks, blocks = [], []

    def checked_rows(screen, rows):
        chunks.append((len(rows), screen.w1_step))
        return w1_rows(screen, rows)

    def checked_block(screen, w1, w2, i, j, lengths, gross):
        widest = max(w1[1][0].size, w2[0].shape[1], screen.model.n_classes + 1)
        blocks.append((i.size * widest, screen.floats))
        return block(screen, w1, w2, i, j, lengths, gross)

    cells = search._SCREEN_CELLS if screen_cells is None else screen_cells
    with patch.object(search, "_SCREEN_CELLS", cells), \
            patch.multiple(_BiScreen, w1_rows=checked_rows, _block=checked_block):
        g = random_graph(3, n=120, p=0.06, attrs=(("a", 3), ("b", 4), ("c", 3)),
                         directed=directed, numeric=("x",))
        assert nested_beam_search(g, fit_degree_prior(g), generate_selectors(g),
                                  SearchConfig(x1=4, x2=3, depth=2))
    assert chunks and all(0 < w1s <= step for w1s, step in chunks)
    assert blocks and all(used <= floats // 2 for used, floats in blocks)
    if screen_cells == 1:
        assert len(chunks) > 1 and len(blocks) > len(chunks)


@pytest.mark.parametrize("directed", [False, True])
@pytest.mark.parametrize("table_cells", [None, 1000])
def test_screen_bound_holds_for_many_classes(directed, table_cells):
    """At K = 240 classes (single vertices with spread multipliers), where
    the nested screen's product nests two 240-term sums, every screened
    pair's SI lies within its bound and within 1e-12 of the exact one; with
    a budget of 1,000 table cells the model holds its table in 60 chunks of
    four class rows.  About half the pairs overlap."""
    n = 240
    rng = np.random.default_rng(5)
    with patch.object(background, "_TABLE_CELLS", background._TABLE_CELLS
                      if table_cells is None else table_cells):
        model = BackgroundModel(n, directed, cls=rng.permutation(n),
                                lam_row=rng.normal(-2.0, 3.0, size=n),
                                lam_col=rng.normal(-2.0, 3.0, size=n) if directed else None)
        assert model.n_classes == n and len(model._chunks) == (1 if table_cells is None else 60)
        g = random_graph(5, n=n, p=0.05, attrs=(("a", 3), ("b", 4), ("c", 5)),
                         directed=directed)
        sels = generate_selectors(g)
        c = ScoreConstants()
        refiner, (level1, level2) = _levels(g, model, sels, 1)
        nodes = level1 + level2[::5]
        rows = np.array([nd.row for nd in nodes])
        masks = refiner.masks(rows)
        lengths = np.array([len(nd.sels) for nd in nodes])
        pi, pj = (x.ravel() for x in np.indices((len(nodes), len(nodes))))
        si, bound, edges, inside = screen_pairs(_BiScreen(g, refiner, c, False), rows, rows,
                                                pi, pj, lengths[pi] + lengths[pj])[:4]
        descs = [refiner.description(nd) for nd in nodes]
        pats = score_masks(g, model, [descs[i] for i in pi], masks[pi], [descs[j] for j in pj],
                           masks[pj], c)
        for k, pat in enumerate(pats):
            if pat is None:
                assert si[k] == -np.inf
                continue
            err = abs(si[k] - pat.si)
            assert err <= bound[k]
            assert err <= 1e-12 * abs(pat.si) + 1e-13 * pat.n_w / pat.dl


@pytest.mark.parametrize("directed", [False, True])
@pytest.mark.parametrize("lam", [(10.0, -33.0), (12.0, -35.0), (8.0, -29.0)])
def test_screen_bound_covers_self_pairs_that_outweigh_the_mass(directed, lam):
    """A pair (W, W) with W = {u, v} and an edge u-v, where u's multiplier
    is high and v's low: the nested screen's product pairs u with itself at
    a probability near 1, while u and v meet at one near 1e-10.  Taking the
    self-pairs off leaves a mass some 1e10 times smaller than the product,
    with the product's rounding, and the bound must grow with that ratio to
    hold the exact SI."""
    g = AttributedGraph(4, [(0, 1), (2, 3)], directed=directed)
    multipliers = np.array([*lam, 0.0, 0.0])
    model = BackgroundModel(4, directed, cls=np.arange(4), lam_row=multipliers,
                            lam_col=multipliers if directed else None)
    masks = np.array([[1, 1, 0, 0], [1, 1, 1, 0]], dtype=bool)
    refiner, rows = refiner_rows(g, model, masks)
    c = ScoreConstants()
    pi, pj = np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1])
    si, bound = screen_pairs(_BiScreen(g, refiner, c, False), rows, rows, pi, pj,
                             np.full(pi.size, 2))[:2]
    w = Description((EqualsSelector("s0", "in"),))
    for k, (i, j) in enumerate(zip(pi.tolist(), pj.tolist())):
        pat = score_mask(g, model, w, masks[i], w, masks[j], c)
        assert abs(si[k] - pat.si) <= bound[k]
