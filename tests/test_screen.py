"""The batched screens of both searches against ``score_bi`` and
``score_single``, and against the score-everything reference searches in
``conftest``."""

from unittest.mock import patch

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from simine import (FitError, ScoreConstants, SearchConfig, SelectorConfig, background,
                    beam_search_single, extension, fit_degree_prior, generate_selectors,
                    iterate, score_bi, score_single, search, update_with_pattern)
from simine.search import _BiScreen, _Refiner, _SingleScreen

from conftest import (random_graph, reference_beam_search_single, reference_iterate,
                      rendered, screen_pairs)


def _levels(g, model, sels, min_size):
    """A refiner of ``sels`` under ``model``, and the nodes of the
    admissible refinements of its root and of those refinements: the
    descriptions of up to two selectors a search would screen."""
    refiner = _Refiner(g, model, sels, min_size)
    levels, parents = [], [refiner.root]
    for _ in range(2):
        (children,), rows, sizes = refiner.expand([(parents, set(), None)])
        parents = list(refiner.nodes(parents, children, rows, sizes))
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
        pat = score_bi(g, model, refiner.description(nodes[i]), masks[i],
                       refiner.description(nodes[j]), masks[j], c)
        if pat is not None:
            model = update_with_pattern(model, pat)
    return model


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
    # a small table budget leaves the model without a class table, so pair
    # sums come from sub-tables in chunks of one (1) or a few (12) class rows;
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
        si, bound, edges, inside = screen_pairs(_BiScreen(g, refiner, c, disjoint), rows, rows,
                                                pi, pj, lengths[pi] + lengths[pj])[:4]
        descs = [refiner.description(nd) for nd in nodes]
        for k, (i, j) in enumerate(zip(pi.tolist(), pj.tolist())):
            pat = score_bi(g, model, descs[i], masks[i], descs[j], masks[j], c)
            # the screen's counts are the ones score_bi counts itself
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
            # 1e-12 relative, or rounding of a near-zero KL divergence
            assert err <= 1e-12 * abs(pat.si) + 1e-13 * pat.n_w / pat.dl

        cfg = SearchConfig(x1=x1, x2=x2, depth=depth, require_shared_attribute=shared,
                           require_disjoint_extensions=disjoint, constants=c)
        # round 1 is nested_beam_search under the model, round 2 after absorbing
        got = iterate(g, model, sels, cfg, rounds=2).rounds
        want = reference_iterate(g, model, sels, cfg, rounds=2)
        assert [rendered(r) for r in got] == [rendered(r) for r in want]


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
            si, bound = screen.scores(rows, sizes, edges, length)
            for k, nd in enumerate(level):
                pat = score_single(g, model, refiner.description(nd), masks[k], c)
                err = abs(si[k] - pat.si)
                assert err <= bound[k]
                # 1e-12 relative, or rounding of a near-zero KL divergence
                assert err <= 1e-12 * abs(pat.si) + 1e-13 * pat.n_w / pat.dl

        cfg = SearchConfig(beam_width=width, depth=depth, min_extension_size=min_size,
                           constants=c)
        got = beam_search_single(g, model, sels, cfg)
        want = reference_beam_search_single(g, model, sels, cfg)
        assert rendered(got) == rendered(want)
