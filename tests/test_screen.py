"""The batched screens of both searches against the exact scores of
``score_bi`` and ``score_single``, and against the score-everything
reference searches in ``conftest``."""

from unittest.mock import patch

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from simine import (FitError, ScoreConstants, SearchConfig, SelectorConfig, background,
                    beam_search_single, extension, fit_degree_prior, generate_selectors,
                    iterate, nested_beam_search, search, update_with_pattern)
from simine.scores import _score_masks
from simine.search import _BiScreen, _Refiner, _SingleScreen

from conftest import (random_graph, reference_beam_search_single, reference_block,
                      reference_iterate, reference_pair_sums_many, rendered, screen_pairs)


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
        pat = _score_masks(g, model, refiner.description(nodes[i]), masks[i],
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
            pat = _score_masks(g, model, descs[i], masks[i], descs[j], masks[j], c)
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
            # 1e-12 relative, or rounding of a near-zero KL divergence
            assert err <= 1e-12 * abs(pat.si) + 1e-13 * pat.n_w / pat.dl

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
            for k, nd in enumerate(level):
                pat = _score_masks(g, model, refiner.description(nd), masks[k], None, masks[k],
                                   c)
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


def _poisoned(block):
    """``block`` run after every buffer of the screen's workspace is filled
    with all-ones bytes (NaN floats, -1 integers), so a cell a block reads
    but did not write shows."""
    def run(screen, *args):
        for buf in screen._work.values():
            buf.view(np.uint8).fill(0xFF)
        return block(screen, *args)
    return run


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 100_000), n=st.integers(12, 40), directed=st.booleans(),
       counting=st.sampled_from(["auto", "ordered", "unordered"]), disjoint=st.booleans(),
       table_cells=st.sampled_from([None, 1, 12]), screen_cells=st.sampled_from([1, 64, 4096]),
       x1=st.integers(1, 4), x2=st.integers(1, 4), depth=st.integers(1, 3),
       rounds=st.integers(1, 3))
def test_screen_workspace_matches_fresh_allocation(seed, n, directed, counting, disjoint,
                                                   table_cells, screen_cells, x1, x2, depth,
                                                   rounds):
    """``_BiScreen.scores``, whose blocks gather, cast and compute in the
    search's reused buffers, returns the ``si``, ``bound``, ``edges`` and
    ``inside`` of the fresh-allocation reference block, bit for bit, in
    every screen call of ``iterate``: blocks of different pair counts share
    the buffers within a search (a small ``_SCREEN_CELLS``), K grows between
    rounds, the model may lack a full class table (a small ``_TABLE_CELLS``),
    and every buffer holds garbage when a block starts."""
    cells = background._TABLE_CELLS if table_cells is None else table_cells
    scores = _BiScreen.scores
    calls = []

    def checked(screen, w1, w2, pi, pj, lengths):
        got = scores(screen, w1, w2, pi, pj, lengths)
        with patch.object(_BiScreen, "_block", reference_block):
            want = scores(screen, w1, w2, pi, pj, lengths)
        for x, y in zip(got, want):
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
        calls.append(screen.model.n_classes)
        return got

    with patch.object(background, "_TABLE_CELLS", cells), \
            patch.object(search, "_SCREEN_CELLS", screen_cells), \
            patch.object(_BiScreen, "scores", checked), \
            patch.object(_BiScreen, "_block", _poisoned(_BiScreen._block)):
        g = random_graph(seed, n=n, attrs=(("a", 2), ("b", 3), ("c", 2)),
                         directed=directed, numeric=("x",))
        try:
            model = fit_degree_prior(g)
        except FitError:
            assume(False)
        sels = generate_selectors(g, SelectorConfig(numeric_bins=3))
        cfg = SearchConfig(x1=x1, x2=x2, depth=depth, require_disjoint_extensions=disjoint,
                           constants=ScoreConstants(pair_counting=counting))
        iterate(g, model, sels, cfg, rounds=rounds)
    assert calls


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 100_000), n=st.integers(6, 30), directed=st.booleans(),
       rows=st.integers(1, 12), layouts=st.lists(st.sampled_from("CF"), min_size=3, max_size=3),
       counts=st.lists(st.booleans(), min_size=3, max_size=3), same=st.booleans(),
       work=st.booleans())
def test_pair_sums_many_in_place_matches_expressions(seed, n, directed, rows, layouts, counts,
                                                     same, work):
    """``pair_sums_many``, its float copies and temporaries written in place
    on ``work`` or on fresh arrays, gives the reference's fresh-array
    expressions on the histograms cast by ``astype`` bit for bit, whatever
    the histograms' layouts (the screens pass C- and Fortran-ordered ones),
    int64 counts or floats, and with the single screen's ``(H, H, H)``."""
    g = random_graph(seed, n=n, directed=directed)
    try:
        model = fit_degree_prior(g)
    except FitError:
        assume(False)
    rng = np.random.default_rng(seed)
    H = [np.array(rng.integers(0, 4, size=(rows, model.n_classes)),
                  np.int64 if as_counts else np.float64, order=o)
         for o, as_counts in zip(layouts, counts)]
    if same:
        H = [H[0]] * 3
    before = [h.copy() for h in H]
    space = [np.full(H[0].size + 3, np.nan) for _ in range(4)] if work else None
    got = model.pair_sums_many(*H, work=space)
    floats = {id(h): h.astype(np.float64) for h in H}
    want = reference_pair_sums_many(model, *(floats[id(h)] for h in H))
    assert [x.tobytes() for x in got] == [x.tobytes() for x in want]
    assert all(np.array_equal(h, b) for h, b in zip(H, before))


def test_screen_blocks_reuse_one_set_of_buffers_per_search():
    """With a small screen budget one search screens many blocks of
    different pair counts, and all of them use the same buffers."""
    block, seen = _BiScreen._block, []

    def spy(screen, w1, w2, i, j, lengths):
        out = block(screen, w1, w2, i, j, lengths)
        seen.append((screen, dict(screen._work), i.size))
        return out

    with patch.object(search, "_SCREEN_CELLS", 1), patch.object(_BiScreen, "_block", spy):
        g = random_graph(7, n=40, attrs=(("a", 2), ("b", 3), ("c", 2)), numeric=("x",))
        nested_beam_search(g, fit_degree_prior(g), generate_selectors(g),
                           SearchConfig(x1=3, x2=3))
    assert len({screen for screen, _, _ in seen}) == 1
    assert len({pairs for _, _, pairs in seen}) > 1
    first = seen[0][1]
    assert first and all(work.keys() == first.keys()
                         and all(work[k] is first[k] for k in first) for _, work, _ in seen)
