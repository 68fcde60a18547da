"""Pair and edge counts of scored patterns against plain enumeration, the
screens' masses against the exact batched mass and the dense grid, and the
searches' packed rows and the nested screen's counts against bool rows."""

from unittest.mock import patch

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from simine import (AttributedGraph, BackgroundModel, Description, EqualsSelector, FitError,
                    ScoreConstants, background, fit_degree_prior, score_bi, score_single,
                    search, update_with_pattern)
from simine.scores import _with_extensions
from simine.search import _BiScreen

from conftest import (brute_force_counts, class_histograms, dense_pair_sums, pair_sums,
                      random_graph, reference_w1_planes, refiner_rows, score_mask,
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

    pat = score_mask(g, model, W1, mask1, W2, mask2, c)
    conv = _convention(counting, False, directed)
    want = brute_force_counts(g, mask1, mask2, conv)
    if want["pair_slots"] == 0:
        assert pat is None
    else:
        assert pat.convention == conv
        assert {f: getattr(pat, f) for f in FIELDS} == want
        if not directed:  # the mirrored pattern ties exactly
            mirror = score_mask(g, model, W2, mask2, W1, mask1, c)
            assert (mirror.si, mirror.k_w, mirror.n_w) == (pat.si, pat.k_w, pat.n_w)

    pat = score_mask(g, model, W1, mask1, None, mask1, c)
    conv = _convention(counting, True, directed)
    want = brute_force_counts(g, mask1, mask1, conv)
    if want["pair_slots"] == 0:
        assert pat is None
    else:
        assert pat.convention == conv
        assert {f: getattr(pat, f) for f in FIELDS} == want


def _chunk_rows(model):
    """The model's table chunks' class rows, as ``background._TABLE_CELLS``
    bounds them: ``_TABLE_CELLS // K`` classes each, at least one."""
    k = model.n_classes
    step = max(1, background._TABLE_CELLS // k)
    return [np.arange(lo, min(lo + step, k)) for lo in range(0, k, step)]


def _off_diagonal(model, a, b):
    """``_class_probs`` of the class grid a x b with its entries a == b set to 0."""
    P = model._class_probs(a, b)
    P[a[:, None] == b[None, :]] = 0.0
    return P


def _diagonal(model, a):
    """``_class_probs`` of the classes a with themselves, contiguous as the
    model holds its diagonal: a product with a strided vector takes
    matmul's loop instead of BLAS, and rounds differently."""
    return model._class_probs(a, a).diagonal().copy()


def _self_mass_reference(model, F):
    """The single screen's mass of each set of float class histogram ``F``
    paired with itself, from ``_class_probs`` of the classes present in F:
    each chunk's product with its present rows of the off-diagonal table,
    restricted to the present columns, summed chunk by chunk, times the row;
    then the h*h - h pairs inside each class on the diagonal."""
    ic = np.flatnonzero(F.any(axis=0))
    to_cols = 0.0
    for rows in _chunk_rows(model):
        a = rows[F[:, rows].any(axis=0)]
        if a.size:
            to_cols = to_cols + F[:, a] @ _off_diagonal(model, a, ic)
    h = F[:, ic]
    return (h * to_cols).sum(axis=-1) + (h * h - h) @ _diagonal(model, ic)


def _one_chunk_masses(model, H1, H_r, H_c, H_o):
    """With a table of one chunk, ``row_mass(H1)`` and ``pair_mass(H_r,
    H_c, H_o)`` from the whole table of ``_class_probs``, off-diagonal and
    diagonal: ``H1 P_off + H1 * diag``, and ``pair_mass``'s einsum
    expressions over every class on its canonical (undirected) or given
    (directed) order."""
    every = np.arange(model.n_classes)
    P_off, P_diag = _off_diagonal(model, every, every), _diagonal(model, every)
    F1 = H1.astype(np.float64)
    H_r, H_c, H_o = (h.astype(np.float64) for h in (H_r, H_c, H_o))
    if not model.directed:
        d = H_r - H_c
        swap = d[np.arange(len(d)), np.argmax(d != 0, axis=1)] < 0
        H_r[swap], H_c[swap] = H_c[swap], H_r[swap]
    ordered = ((H_c * np.einsum("ia,ab->ib", H_r, P_off)).sum(axis=-1)
               + ((H_r * H_c - H_o) * P_diag).sum(axis=-1))
    overlap = (np.zeros_like(ordered) if model.directed else
               (H_o * np.einsum("ia,ab->ib", H_o, P_off)).sum(axis=-1)
               + ((H_o * H_o - H_o) * P_diag).sum(axis=-1))
    return (F1 @ P_off + F1 * P_diag, P_diag), (ordered, overlap)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 31 - 1), directed=st.booleans(),
       table_cells=st.sampled_from([None, 1, 12]), updates=st.integers(0, 2))
def test_held_chunks_are_class_probs(seed, directed, table_cells, updates):
    """The model's table chunks, whose diagonal entries are 0, with the
    diagonal put back, are ``_class_probs`` over every class pair byte for
    byte, in ``_TABLE_CELLS // K``-row chunks: one chunk under the default
    budget, one (1) or a few (12) class rows each under a small one."""
    cells = background._TABLE_CELLS if table_cells is None else table_cells
    with patch.object(background, "_TABLE_CELLS", cells):
        rng = np.random.default_rng(seed)
        g = random_graph(seed, n=int(rng.integers(6, 30)), directed=directed)
        try:
            model = _absorb_random(g, fit_degree_prior(g), rng, updates)
        except FitError:
            assume(False)
        every = np.arange(model.n_classes)
        assert ([(rows.start, len(P)) for rows, P in model._chunks]
                == [(r[0], r.size) for r in _chunk_rows(model)])
        table = np.concatenate([P for _, P in model._chunks])
        assert not table[every, every].any()
        table[every, every] = model._diag
        assert table.tobytes() == model._class_probs(every, every).tobytes()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 31 - 1), directed=st.booleans(),
       table_cells=st.sampled_from([None, 1, 12]), updates=st.integers(0, 2))
def test_screen_masses_match_pair_mass(seed, directed, table_cells, updates):
    """The nested screen's mass of a pair (W1, W2), ``T1 . h2 - h_o . d``
    from W1's ``row_mass`` and ``self_mass`` of the overlap, against
    ``pair_mass`` (whose rows sum alike alone and in a batch) and the dense
    grid, for W2 disjoint from W1, inside it, around it and crossing it;
    and the single screen's ``self_mass`` against the bits of its expression
    from ``_class_probs``; with a table of one chunk, ``row_mass`` and
    ``pair_mass`` against the bits of their expressions over the whole
    table.  A table budget of 1 or 12 cells splits the table of a model of
    more classes into chunks of one or a few class rows."""
    cells = background._TABLE_CELLS if table_cells is None else table_cells
    with patch.object(background, "_TABLE_CELLS", cells):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(6, 30))
        g = random_graph(seed, n=n, directed=directed)
        try:
            model = _absorb_random(g, fit_degree_prior(g), rng, updates)
        except FitError:
            assume(False)
        assert (len(model._chunks) > 1) == (model.n_classes ** 2 > cells)
        masks1 = rng.random((5, n)) < rng.uniform(0.1, 0.9)
        masks1[0] = True
        some = rng.random((4, 5, n)) < 0.5
        # per W1: a W2 that shares no vertex, one inside it, one around it,
        # one crossing it
        masks2 = np.concatenate([some[0] & ~masks1, some[1] & masks1, some[2] | masks1,
                                 some[3]])
        pi, pj = np.tile(np.arange(5), 4), np.arange(20)
        H1, H2 = (class_histograms(model, m).astype(np.int64) for m in (masks1, masks2))
        H_o = class_histograms(model, masks1[pi] & masks2[pj]).astype(np.int64)
        before = [h.copy() for h in (H1, H2, H_o)]
        T, d = model.row_mass(H1)
        gross = (T[pi] * H2[pj]).sum(axis=1)
        ordered = gross - H_o @ d
        overlap = np.zeros(pi.size) if directed else model.self_mass(H_o)
        exact = model.pair_mass(H1[pi], H2[pj], H_o)
        if len(model._chunks) == 1:  # a one-chunk table's masses keep their bytes
            rows_before, exact_before = _one_chunk_masses(model, H1, H1[pi], H2[pj], H_o)
            assert all(x.tobytes() == y.tobytes()
                       for x, y in zip((T, d) + exact, rows_before + exact_before))
        # the product's rounding is relative to it, and the diagonal it
        # leaves out may be most of it; the overlap's mass cancels nothing
        assert np.all(np.abs(ordered - exact[0]) <= 1e-12 * gross)
        np.testing.assert_allclose(overlap, exact[1], rtol=1e-12, atol=0)
        for k in range(pi.size):
            rows, cols = np.flatnonzero(masks1[pi[k]]), np.flatnonzero(masks2[pj[k]])
            want = dense_pair_sums(model, rows, cols)
            assert abs(ordered[k] - want[0]) <= 1e-9 * gross[k]
            np.testing.assert_allclose(overlap[k], want[1], rtol=1e-9, atol=0)
            # a grid alone sums as it does in the batch
            one = model.pair_mass(H1[pi[k]], H2[pj[k]], H_o[k])
            assert [x.tolist() for x in one] == [[exact[0][k]], [exact[1][k]]]
            assert pair_sums(model, rows, cols) == (exact[0][k], exact[1][k])
        assert all(np.array_equal(h, b) for h, b in zip((H1, H2, H_o), before))
        # the single screen's sets, each paired with itself, as int64 counts
        F = class_histograms(model, np.concatenate([masks1, masks2]))
        H = F.astype(np.int64)
        single = model.self_mass(H)
        assert single.tobytes() == _self_mass_reference(model, F).tobytes()
        assert single.tobytes() == model.self_mass(F).tobytes()
        np.testing.assert_array_equal(H, F)
        np.testing.assert_allclose(single, model.pair_mass(F, F, F)[0], rtol=1e-12, atol=0)


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
    # score_bi and score_single fed the counts a search's screens hand over,
    # with the extensions' ids attached as a search attaches them to what it
    # reports, are bit for bit the mask path that counts them itself.  A
    # table budget of 3 cells splits the table of any model with K > 1 into
    # one-row chunks; both orientations of each pair are scored, so the canonical swap
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
            counted = score_mask(g, model, z1, m1, z2, m2, c)
            _, _, edges, inside, h1, h2, h_o = screen_pairs(
                screen, rows[r1:r1 + 1], rows, np.zeros(1, np.int64), np.full(1, r2),
                np.full(1, 2))
            given_counts = score_bi(model, [z1], [z2], (h1, h2, h_o), edges, inside, c)[0]
            assert (counted is None) == (given_counts is None)
            if counted is not None:
                assert given_counts.ext1_ids is None and given_counts.ext2_ids is None
                assert _bits(_with_extensions(given_counts, g, m1, m2)) == _bits(counted)
        # single patterns: the single search hands over one class histogram
        # of the refiner's row, three times over
        hists, edges = refiner.class_counts(rows), refiner.edges_inside(rows)
        for z, m, r in [(W1, mask1, 0), (W2, mask2, 1)]:
            counted = score_mask(g, model, z, m, None, m, c)
            given_counts = score_single(model, [z], hists[r:r + 1], edges[r:r + 1], c)[0]
            assert (counted is None) == (given_counts is None)
            if counted is not None:
                assert given_counts.ext1_ids is None and given_counts.inter_edges is None
                assert _bits(_with_extensions(given_counts, g, m, None)) == _bits(counted)


def _absorb_random(g, model, rng, updates):
    """``model`` after absorbing ``updates`` random bi patterns, so its
    classes split by their rows and columns."""
    for _ in range(updates):
        ext1, ext2 = _extensions(rng, g.n, "overlap")
        if ext1.any() and ext2.any():
            pat = score_mask(g, model, W1, ext1, W2, ext2, ScoreConstants())
            if pat is not None:
                model = update_with_pattern(model, pat)
    return model


DESCRIPTIONS = [Description(tuple(EqualsSelector(a, "v0") for a in "abc"[:k])) for k in (1, 2, 3)]


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2 ** 31 - 1), n=st.integers(2, 60), directed=st.booleans(),
       counting=st.sampled_from(["auto", "ordered", "unordered"]), single=st.booleans(),
       small_table=st.booleans(), updates=st.integers(0, 2), size=st.integers(1, 8),
       integer=st.booleans(), fortran=st.booleans())
def test_batched_core_is_row_invariant(seed, n, directed, counting, single, small_table,
                                       updates, size, integer, fortran):
    # a batch scored at once, one row at a time and in shuffled order gives
    # every row the same pattern, bit for bit, as the mask path does; on
    # undirected graphs each bi pair is followed by its mirror, which ties
    # exactly.  The histograms come as int64 or float, in C or Fortran
    # order.  A table budget of 3 cells splits the table of any model with
    # K > 1 into one-row chunks
    with patch.object(background, "_TABLE_CELLS", 3 if small_table else 2_000_000):
        rng = np.random.default_rng(seed)
        g = random_graph(seed, n=n, p=float(rng.uniform(0.1, 0.9)), directed=directed)
        try:
            model = _absorb_random(g, fit_degree_prior(g), rng, updates)
        except FitError:
            assume(False)
        c = ScoreConstants(pair_counting=counting)
        cases = []  # (w1, mask1, w2, mask2)
        for _ in range(size):
            m1, m2 = _extensions(rng, n, rng.choice(["overlap", "disjoint", "equal"]))
            z1, z2 = (DESCRIPTIONS[i] for i in rng.integers(0, len(DESCRIPTIONS), size=2))
            cases.append((z1, m1, None, m1) if single else (z1, m1, z2, m2))
            if not single and not directed:
                cases.append((z2, m2, z1, m1))
        hists, edges, inside = [], [], []
        for z1, m1, z2, m2 in cases:
            hists.append(model._histograms(np.flatnonzero(m1), np.flatnonzero(m2)))
            edges.append(g.count_edges_between(m1, m2))
            inside.append(g.count_edges_between(m1 & m2, m1 & m2))
        H = np.array(hists, dtype=np.int64 if integer else np.float64).transpose(1, 0, 2)
        edges, inside = np.array(edges), np.array(inside)

        def at(h, rows):
            return np.asfortranarray(h[rows]) if fortran else h[rows]

        def scored(rows):
            w1s = [cases[i][0] for i in rows]
            if single:
                pats = score_single(model, w1s, at(H[0], rows), edges[rows], c)
            else:
                pats = score_bi(model, w1s, [cases[i][2] for i in rows],
                                tuple(at(h, rows) for h in H), edges[rows], inside[rows], c)
            return [None if p is None else _bits(p) for p in pats]

        every = np.arange(len(cases))
        whole = scored(every)
        assert whole == [scored([i])[0] for i in every]
        order = rng.permutation(len(cases))
        assert scored(order) == [whole[i] for i in order]
        for got, (z1, m1, z2, m2) in zip(whole, cases):
            counted = score_mask(g, model, z1, m1, z2, m2, c)
            assert (got is None) == (counted is None)
            if counted is not None:
                ids = ("ext1_ids", "ext2_ids", "inter_edges")  # the mask path attaches them
                assert ({f: v for f, v in got.items() if f not in ids}
                        == {f: v for f, v in _bits(counted).items() if f not in ids})
        if not single and not directed:
            for pat, mirror in zip(whole[::2], whole[1::2]):
                assert (pat is None) == (mirror is None)
                if pat is not None:
                    fields = ("si", "p_w", "n_w", "k_w", "ic", "expected_edges", "pair_slots")
                    assert [pat[f] for f in fields] == [mirror[f] for f in fields]


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
        _, _, H, sizes, T, _ = screen.w1_rows(rows1[:screen.w1_step])
        np.testing.assert_array_equal(H, class_histograms(model, masks1[:screen.w1_step]))
        table = model._class_probs(np.arange(k), np.arange(k))
        np.testing.assert_allclose(T, H @ table, rtol=1e-12, atol=0)
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


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 31 - 1), n=st.sampled_from([63, 64, 65]), directed=st.booleans(),
       isolated=st.integers(0, 8), screen_cells=st.sampled_from([None, 1]))
def test_w1_neighbour_counts_match_dense_adjacency(seed, n, directed, isolated, screen_cells):
    # the bit planes of each W1's neighbour counts, a chunk of W1s at a
    # time, against the dense adjacency matrix's; isolated vertices have no
    # edge, the first W1 is empty and the second holds every vertex.  One
    # screen cell screens four W1s a chunk and counts members in slices of
    # about 8n neighbours, which cut through W1s as well as between them
    rng = np.random.default_rng(seed)
    cls = rng.permutation(np.arange(n) % int(rng.integers(1, n + 1)))
    k = int(cls.max()) + 1
    model = BackgroundModel(n, directed, cls=cls, lam_row=rng.normal(size=k),
                            lam_col=rng.normal(size=k) if directed else None)
    alone = set(rng.choice(n, size=isolated, replace=False).tolist())
    pairs = [(u, v) for u in range(n) for v in range(n)
             if (u != v if directed else u < v) and u not in alone and v not in alone]
    drawn = rng.random(len(pairs)) < rng.uniform(0.02, 0.6)
    g = AttributedGraph(n, [pair for pair, keep in zip(pairs, drawn) if keep], directed=directed)
    masks = rng.random((9, n)) < rng.uniform(0.1, 0.9)
    masks[0], masks[1] = False, True
    refiner, rows = refiner_rows(g, model, masks)
    block = search._SCREEN_CELLS if screen_cells is None else screen_cells
    with patch.object(search, "_SCREEN_CELLS", block):
        screen = _BiScreen(g, refiner, ScoreConstants(), False)
        for lo in range(0, len(masks), screen.w1_step):
            _, planes, _, _, _, _ = screen.w1_rows(rows[lo:lo + screen.w1_step])
            np.testing.assert_array_equal(
                planes, reference_w1_planes(g, refiner, masks[lo:lo + screen.w1_step]))
