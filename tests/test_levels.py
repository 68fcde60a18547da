"""The whole-array passes of a search level against one-at-a-time
references in ``conftest``: the refiner's expansion of groups of parents,
and the contender cut of many beams at once."""

from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simine import (BackgroundModel, SearchConfig, SelectorConfig, beam_search_single,
                    fit_degree_prior, generate_selectors, search)
from simine.search import _contenders, _Node, _Refiner

from conftest import (random_graph, reference_beam_search_single, reference_contenders,
                      reference_expand, rendered)


def _node(refiner, sels):
    """The node of the description of selector positions ``sels``, its key
    interned as the refiner interns keys."""
    row = refiner.root.row.copy()
    for j in sels:
        row &= refiner.rows[j]
    key = tuple(sorted(refiner.rid[j] for j in sels))
    return _Node(tuple(sels), refiner.ids.setdefault(key, len(refiner.ids)), row,
                 int(np.count_nonzero(refiner.unpack(row))))


def _assert_expansion(refiner, groups, got, want):
    """``expand``'s children, rows, sizes and seen mask are the reference's,
    and so are the nodes built from them."""
    children, rows, sizes, seen = want
    keys = {kid: key for key, kid in refiner.ids.items()}
    assert list(zip(got.group.tolist(), got.parent.tolist(), got.sel.tolist(),
                    [keys[k] for k in got.key.tolist()], got.row.tolist())) == children
    np.testing.assert_array_equal(got.rows, rows)
    assert got.sizes.tolist() == sizes
    if got.seen is not None:
        assert {keys[k] for k in np.flatnonzero(got.seen).tolist()} == seen
    parents = [p for grp in groups for p in grp]
    nodes = refiner.nodes(got, np.arange(len(children)))
    for node, (_, at, j, key, r) in zip(nodes, children):
        assert node.sels == parents[at].sels + (j,) and keys[node.key] == key
        np.testing.assert_array_equal(node.row, rows[r])
        assert node.size == sizes[r]


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2 ** 31 - 1), n=st.integers(6, 70), directed=st.booleans(),
       groups=st.integers(1, 4), shared=st.booleans(), calls=st.integers(1, 3),
       min_size=st.integers(1, 3), screen_cells=st.sampled_from([None, 1]))
def test_expand_matches_reference(seed, n, directed, groups, shared, calls, min_size,
                                  screen_cells):
    # every group draws its parents from one pool, so groups share children
    # and parents repeat, within a group and across groups; with several
    # calls a seen mask carries the keys of the earlier ones, as it does
    # across the parent chunks of a single-subgroup search level.  A few
    # selectors repeat: a repeat renders alike, so it shares its original's
    # keys but not its admit bit, and a child that admit rejects must still
    # take its key from a later child that admit would accept.  One screen
    # cell ANDs the parents' rows into the children's a row at a time
    rng = np.random.default_rng(seed)
    g = random_graph(seed, n=n, attrs=(("a", 2), ("b", 3), ("c", 2)), directed=directed,
                     numeric=("x",))
    cls = rng.permutation(np.arange(n) % int(rng.integers(1, n + 1)))
    model = BackgroundModel(n, directed, cls=cls, lam_row=np.zeros(int(cls.max()) + 1),
                            lam_col=np.zeros(int(cls.max()) + 1) if directed else None)
    sels = generate_selectors(g, SelectorConfig(numeric_bins=3))
    sels += [sels[i] for i in rng.choice(len(sels), size=3, replace=False)]
    refiner = _Refiner(g, model, sels, min_size)
    pool = [refiner.root]
    for _ in range(10):
        picks = rng.choice(len(sels), size=int(rng.integers(1, 3)), replace=False).tolist()
        if len({sels[j].attribute for j in picks}) == len(picks):
            pool.append(_node(refiner, picks))
    admit = rng.random((groups, len(sels))) < 0.3 if shared else None
    seen, want_seen = (np.zeros(0, dtype=bool), set()) if calls > 1 else (None, None)
    for _ in range(calls):
        grps = [[pool[i] for i in rng.integers(0, len(pool), size=int(rng.integers(0, 5)))]
                for _ in range(groups)]
        block = search._SCREEN_CELLS if screen_cells is None else screen_cells
        with patch.object(search, "_SCREEN_CELLS", block):
            got = refiner.expand(grps, admit, seen)
        want = reference_expand(refiner, grps, admit, want_seen)
        _assert_expansion(refiner, grps, got, want)
        if calls > 1:
            seen, want_seen = got.seen, want[3]


@pytest.mark.parametrize("seed", [3, 41, 43])
def test_single_search_seen_spans_parent_chunks(seed):
    # one screen cell makes every parent of a level its own chunk; each
    # chunk's expansion skips the keys the level's earlier chunks took
    g = random_graph(seed, n=40, attrs=(("a", 2), ("b", 3), ("c", 2), ("d", 3)))
    model = fit_degree_prior(g)
    sels = generate_selectors(g)
    cfg = SearchConfig(beam_width=5, depth=3)
    expand, calls = _Refiner.expand, []

    def checking(self, groups, admit=None, seen=None):
        keys = {kid: key for key, kid in self.ids.items()}
        before = None if seen is None else {keys[k] for k in np.flatnonzero(seen).tolist()}
        got = expand(self, groups, admit, seen)
        _assert_expansion(self, groups, got, reference_expand(self, groups, admit, before))
        calls.append((len(groups), len(groups[0]), bool(before)))
        return got

    with patch.object(search, "_SCREEN_CELLS", 1), patch.object(_Refiner, "expand", checking):
        got = beam_search_single(g, model, sels, cfg)
    assert rendered(got) == rendered(reference_beam_search_single(g, model, sels, cfg))
    assert all(groups == 1 and parents == 1 for groups, parents, _ in calls)
    assert sum(carried for *_, carried in calls) >= cfg.beam_width - 1


SIS = [-np.inf, -1.0, 0.0, 0.5, 1.0, 1.5, 3.0]


@settings(max_examples=300, deadline=None)
@given(data=st.data(), beams=st.integers(0, 5), width=st.integers(1, 4))
def test_segmented_cut_matches_per_beam_cut(data, beams, width):
    # SIs, bounds and kept SIs from a few levels tie exactly; a beam may
    # have no candidate, fewer than width, or kept entries only
    si, bound, beam, kept = [], [], [], []
    for b in range(beams):
        k = data.draw(st.integers(0, 6))
        si += data.draw(st.lists(st.sampled_from(SIS), min_size=k, max_size=k))
        bound += data.draw(st.lists(st.sampled_from([0.0, 0.25, 0.5]), min_size=k, max_size=k))
        beam += [b] * k
        kept.append(data.draw(st.lists(st.sampled_from(SIS), max_size=width)))
    si, bound = np.array(si, dtype=np.float64), np.array(bound, dtype=np.float64)
    beam = np.array(beam, dtype=np.int64)
    want = [np.flatnonzero(beam == b)[reference_contenders(si[beam == b], bound[beam == b],
                                                           kept[b], width)]
            for b in range(beams)]
    got = _contenders(si, bound, beam, np.array([x for k in kept for x in k], dtype=np.float64),
                      np.repeat(np.arange(beams), [len(k) for k in kept]), width)
    assert got.tolist() == [int(i) for picks in want for i in picks]
