"""The nested search's beams as arrays: the inner beams' merge order
against ``Pattern.sort_key``, the outer selection against the sequential
beam, exact ties against the score-everything reference, one inner search
per W1 key, and patterns built for reported entries only."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from simine import (AttributeColumn, AttributedGraph, Description, EqualsSelector, FitError,
                    Pattern, SearchConfig, fit_degree_prior, fit_density_prior,
                    generate_selectors, iterate, nested_beam_search, scores, search)
from simine.search import _beam_order

from conftest import (Beam, BeamEntry, outer_selection, random_graph,
                      reference_nested_beam_search, rendered)

# values whose renderings are prefixes of one another, and one that holds the
# separator of a rendered pair
VALUES = ["1", "10", "1 || b=1"]


def _pattern(w1, w2, si):
    return Pattern(w1, w2, 0, 0, 1, 0.0, 0.0, 1.0, si, 1, 1, 0, 0, 1, 0.0, "unordered")


@settings(max_examples=200, deadline=None)
@given(data=st.data(), groups=st.integers(1, 4), width=st.integers(1, 4))
def test_beam_order_sorts_as_pattern_sort_key(data, groups, width):
    # entries of one group share W1; their W2s tie exactly on SI and on
    # length, render alike or as prefixes of one another; each group's kept
    # entries are its first ``width`` by sort key, earlier positions first
    # on a full tie, which is also what a Beam keeps when offered in order
    sels = [EqualsSelector(attr, v) for attr in ("a", "b") for v in VALUES]
    w1s = [Description((EqualsSelector("c", str(g)),)) for g in range(groups)]
    k = data.draw(st.integers(0, 12))
    group = data.draw(st.lists(st.integers(0, groups - 1), min_size=k, max_size=k))
    si = data.draw(st.lists(st.sampled_from([0.0, 0.5, 1.5]), min_size=k, max_size=k))
    w2s = [Description(tuple(data.draw(st.lists(st.sampled_from(sels), min_size=1, max_size=2,
                                                 unique_by=lambda s: s.attribute))))
           for _ in range(k)]
    pats = [_pattern(w1s[g], w2, s) for g, w2, s in zip(group, w2s, si)]
    got = _beam_order(np.array(group, dtype=np.int64), np.array(si, dtype=np.float64),
                      np.array([len(w) for w in w2s], dtype=np.int64),
                      lambda i: str(w2s[i]), width)
    want, beams = [], [Beam(width) for _ in range(groups)]
    for g in range(groups):
        mine = sorted((i for i in range(k) if group[i] == g), key=lambda i: pats[i].sort_key())
        want += mine[:width]
    for i, (g, pat) in enumerate(zip(group, pats)):
        beams[g].try_add(BeamEntry(pat.sort_key(), i, i, i))
    assert got.tolist() == want == [e.payload for beam in beams for e in beam]


@settings(max_examples=300, deadline=None)
@given(data=st.data(), floor=st.integers(1, 8), x2=st.integers(1, 6))
def test_outer_selection_matches_sequential_beam(data, floor, x2):
    # each ident has one group (its W1), SI, length and rendering, drawn from
    # few values, so exact key ties are common and there may be fewer groups
    # than the floor; the stream comes in chunks, each offering an ident at
    # most once, as a search chunk offers each (W1, W2) once, and idents
    # recur across chunks, kept or evicted in between
    n = data.draw(st.integers(1, 40))
    groups = data.draw(st.integers(1, 10))

    def per_ident(values):
        return data.draw(st.lists(values, min_size=n, max_size=n))

    group, length = per_ident(st.integers(0, groups - 1)), per_ident(st.integers(1, 2))
    si, text = per_ident(st.sampled_from([0.0, 0.5, 1.0])), per_ident(st.sampled_from("ab"))
    chunks = data.draw(st.lists(st.lists(st.integers(0, n - 1), unique=True, max_size=n),
                                max_size=10))
    beam, want = Beam(floor * x2, diversity_floor=floor), []
    for chunk in chunks:
        for i in chunk:
            beam.try_add(BeamEntry((-si[i], length[i], text[i]), i, group[i], i))
        want.append([e.ident for e in beam])
    got = outer_selection([[(si[i], length[i], text[i], i, group[i]) for i in chunk]
                           for chunk in chunks], floor, floor * x2)
    assert got == want


def _tie_graph(seed, n, directed):
    """A graph whose descriptions tie exactly: ``a``, the last column, copies
    ``c``, so descriptions on either share an extension, and the copy's
    selectors come later but render first; values render as prefixes of one
    another or hold ``" || "``."""
    rng = np.random.default_rng(seed)
    edges = [(u, v) for u in range(n) for v in range(n)
             if (u != v if directed else u < v) and rng.random() < 0.3] or [(0, 1)]
    c = [VALUES[i] for i in rng.integers(0, 3, size=n)]
    b = [VALUES[i] for i in rng.integers(0, 3, size=n)]
    d = [str(i) for i in rng.integers(0, 2, size=n)]
    cols = [AttributeColumn(name, "nominal", vals) for name, vals in
            (("c", c), ("b", b), ("d", d), ("a", c))]
    return AttributedGraph(n, edges, directed=directed, columns=cols)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 100_000), n=st.integers(8, 20), directed=st.booleans(),
       density=st.booleans(), shared=st.booleans(), disjoint=st.booleans(),
       x1=st.integers(1, 4), x2=st.integers(1, 4), depth=st.integers(1, 3))
def test_exact_ties_match_reference(seed, n, directed, density, shared, disjoint, x1, x2,
                                    depth):
    # a density prior scores every pair of extensions with the same counts
    # alike, so (SI, length) ties are common, inside inner beams and between
    # mirrored or duplicated pairs in the outer beam
    g = _tie_graph(seed, n, directed)
    try:
        model = fit_density_prior(g, 0.3) if density else fit_degree_prior(g)
    except FitError:
        assume(False)
    sels = generate_selectors(g)
    cfg = SearchConfig(x1=x1, x2=x2, depth=depth, require_shared_attribute=shared,
                       require_disjoint_extensions=disjoint)
    got = nested_beam_search(g, model, sels, cfg)
    assert rendered(got) == rendered(reference_nested_beam_search(g, model, sels, cfg))


@pytest.mark.parametrize("depth", [3, 4])
@pytest.mark.parametrize("shared", [False, True])
@pytest.mark.parametrize("disjoint", [False, True])
def test_deep_searches_match_reference(depth, shared, disjoint):
    g = random_graph(29, n=30, attrs=(("a", 2), ("b", 3), ("c", 2), ("d", 2)))
    model = fit_degree_prior(g)
    sels = generate_selectors(g)
    cfg = SearchConfig(x1=3, x2=2, depth=depth, require_shared_attribute=shared,
                       require_disjoint_extensions=disjoint)
    got = nested_beam_search(g, model, sels, cfg)
    assert got
    assert rendered(got) == rendered(reference_nested_beam_search(g, model, sels, cfg))


@pytest.mark.parametrize("seed", [29, 31])
def test_each_w1_key_searched_once(monkeypatch, seed):
    # from depth 3 on, the outer beam refines old W1s again and reaches
    # W1 keys it has searched; those re-offer their first search's entries
    g = random_graph(seed, n=30, attrs=(("a", 2), ("b", 3), ("c", 2), ("d", 2)))
    model = fit_degree_prior(g)
    sels = generate_selectors(g)
    inner, expand = search._inner_searches, search._Refiner.expand
    searched, children, inside = [], [], []

    def inner_searches(*args):
        searched.extend(w1.key for w1 in args[5])
        inside.append(True)
        try:
            return inner(*args)
        finally:
            inside.pop()

    def expanding(self, groups, admit=None, seen=None):
        got = expand(self, groups, admit, seen)
        if not inside:
            children.extend(got.key.tolist())
        return got

    monkeypatch.setattr(search, "_inner_searches", inner_searches)
    monkeypatch.setattr(search._Refiner, "expand", expanding)
    cfg = SearchConfig(x1=3, x2=2, depth=4)
    got = nested_beam_search(g, model, sels, cfg)
    assert len(searched) == len(set(searched)) == len(set(children)) < len(children)
    monkeypatch.undo()
    assert rendered(got) == rendered(reference_nested_beam_search(g, model, sels, cfg))


@pytest.mark.parametrize("depth", [2, 4])
def test_patterns_built_for_reported_entries_only(monkeypatch, depth):
    # the inner levels rank on the scoring core's arrays: the only patterns
    # are the reported ones, and the outer selections take the inner
    # searches' offers, each once at depth 2, and the re-offers of W1 keys
    # searched before at depth 4
    g = random_graph(41, n=40)
    model = fit_degree_prior(g)
    sels = generate_selectors(g)
    built, made, offers = [], [], []
    inner, select = search._inner_searches, search._select

    class CountingPattern(Pattern):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    def inner_searches(*args):
        out = inner(*args)
        made.extend(len(entries.si) for entries in out)
        return out

    def selecting(beam, offered, *args):
        offers.append(len(offered.si))
        return select(beam, offered, *args)

    monkeypatch.setattr(scores, "Pattern", CountingPattern)
    monkeypatch.setattr(search, "_inner_searches", inner_searches)
    monkeypatch.setattr(search, "_select", selecting)
    cfg = SearchConfig(x1=3, x2=3, depth=depth)
    pats = nested_beam_search(g, model, sels, cfg)
    assert pats and len(built) == len(pats)
    assert len(pats) <= sum(made) <= sum(offers)
    if depth == 2:
        assert sum(made) == sum(offers)
    built.clear()
    rounds = iterate(g, model, sels, cfg, rounds=2).rounds
    assert len(built) == sum(map(len, rounds)) and len(rounds) == 2
