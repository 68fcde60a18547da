import inspect

import numpy as np
import pytest

from simine import (MEASURE_NAMES, AttributeColumn, AttributedGraph, Description,
                    EqualsSelector, RangeSelector, ScoreConstants, SearchConfig,
                    SelectorConfig, baseline_scores, baseline_search, beam_search_single,
                    extension, fit_degree_prior, fit_density_prior, generate_selectors,
                    iterate, nested_beam_search, rescore, score_bi, score_single, search,
                    update_with_pattern)

from conftest import (exhaustive_best_bi, exhaustive_best_single, outer_selection,
                      random_graph, reference_beam_search_single, reference_iterate,
                      reference_nested_beam_search, rendered, score_mask)


def entry(si, ident, group=None):
    return si, 1, ident, ident, group or ident


def offered(width, *offers, floor=1):
    """The idents the outer selection of ``width`` under ``floor`` holds
    after each of ``offers``, offered one at a time; a floor of one group
    keeps the best ``width`` offers, as a beam without a floor does."""
    return outer_selection([[o] for o in offers], floor, width)


class TestBeamDiscipline:
    def test_insert_into_empty(self):
        assert offered(3, entry(1.0, "a")) == [["a"]]

    def test_full_beam_rejects_weaker(self):
        held = offered(2, entry(5.0, "a"), entry(4.0, "b"), entry(3.0, "c"))
        assert held[-1] == held[-2] == ["a", "b"]

    def test_full_beam_replaces_minimum(self):
        held = offered(2, entry(5.0, "a"), entry(4.0, "b"), entry(6.0, "c"))
        assert held[-1] == ["c", "a"]

    def test_duplicate_skipped(self):
        assert offered(3, entry(5.0, "a"), entry(5.0, "a")) == [["a"], ["a"]]

    def test_min_never_decreases_without_floor(self):
        rng = np.random.default_rng(0)
        offers = [entry(float(si), f"c{i}") for i, si in enumerate(rng.random(100))]
        si = {ident: s for s, _, _, ident, _ in offers}
        prev_min = None
        for held in offered(4, *offers):
            if len(held) == 4:
                cur = si[held[-1]]
                if prev_min is not None:
                    assert cur >= prev_min
                prev_min = cur

    def test_diversity_trace(self):
        # capacity 3, floor 2: eviction may not collapse to one group
        held = offered(3, entry(5.0, "g1:p1", group="g1"), entry(4.0, "g1:p2", group="g1"),
                       entry(3.0, "g2:p1", group="g2"),
                       # candidate from g1 beats the g2 minimum, but replacing it
                       # would drop the distinct count below the floor; the target
                       # is g1's own minimum
                       entry(4.5, "g1:p3", group="g1"), floor=2)
        assert held[-1] == ["g1:p1", "g1:p3", "g2:p1"]

    def test_shared_group_replacement_keeps_count(self):
        held = offered(3, entry(5.0, "g1:p1", group="g1"), entry(4.0, "g2:p1", group="g2"),
                       entry(3.0, "g3:p1", group="g3"),
                       # same group as the current minimum: replacement allowed
                       entry(3.5, "g3:p2", group="g3"), floor=3)
        assert {ident.split(":")[0] for ident in held[-1]} == {"g1", "g2", "g3"}
        assert "g3:p2" in held[-1]

    def test_new_group_forced_in_under_floor(self):
        held = offered(3, entry(5.0, "g1:p1", group="g1"), entry(4.0, "g1:p2", group="g1"),
                       entry(3.0, "g1:p3", group="g1"),
                       # weaker than everything, but brings a second group while
                       # under floor
                       entry(0.5, "g2:p1", group="g2"), floor=2)
        assert "g2:p1" in held[-1]
        assert {ident.split(":")[0] for ident in held[-1]} == {"g1", "g2"}


def attr_graph(n, edges, **cols):
    columns = [AttributeColumn(name, "nominal", [str(v) for v in vals])
               for name, vals in cols.items()]
    return AttributedGraph(n, edges, columns=columns)


class TestSingleSearch:
    def test_planted_clique_found(self):
        rng = np.random.default_rng(1)
        n, k = 200, 20
        edges = {(u, v) for u in range(k) for v in range(u + 1, k)}
        edges |= {(u, v) for u in range(n) for v in range(u + 1, n)
                  if rng.random() < 0.02}
        core = ["yes"] * k + ["no"] * (n - k)
        noise = [f"v{x}" for x in rng.integers(0, 3, size=n)]
        g = attr_graph(n, sorted(edges), core=core, noise=noise)
        model = fit_degree_prior(g)
        sels = generate_selectors(g)
        pats = beam_search_single(g, model, sels, SearchConfig(beam_width=10, depth=1))
        assert str(pats[0].w1) == "core=yes"
        assert pats[0].direction == 0

    def test_width_covers_all_length1(self):
        g = random_graph(13, n=30)
        model = fit_degree_prior(g)
        sels = generate_selectors(g)
        pats = beam_search_single(g, model, sels,
                                  SearchConfig(beam_width=len(sels) + 5, depth=1))
        # equals exhaustive scoring of all admissible length-1 descriptions
        c = ScoreConstants()
        expect = []
        for s in sels:
            d = Description((s,))
            m = extension(d, g)
            if 2 <= m.sum() < g.n:
                expect.append(score_mask(g, model, d, m, None, m, c))
        expect.sort(key=lambda p: p.sort_key())
        assert [str(p.w1) for p in pats] == [str(p.w1) for p in expect]
        assert [p.si for p in pats] == pytest.approx([p.si for p in expect])

    def test_deterministic(self):
        g = random_graph(19, n=40)
        model = fit_degree_prior(g)
        sels = generate_selectors(g)
        cfg = SearchConfig(beam_width=8, depth=2)
        a = [(p.render(), p.si) for p in beam_search_single(g, model, sels, cfg)]
        b = [(p.render(), p.si) for p in beam_search_single(g, model, sels, cfg)]
        assert a == b

    @pytest.mark.parametrize("directed", [False, True])
    def test_counts_from_parent_edges(self, directed):
        # depth-2 children count their edges over the parent's inner edges
        # and derive inter-edges from degree sums; both match full scans
        g = random_graph(29, n=40, directed=directed)
        model = fit_degree_prior(g)
        pats = beam_search_single(g, model, generate_selectors(g),
                                  SearchConfig(beam_width=8, depth=2))
        assert any(len(p.w1) == 2 for p in pats)
        for p in pats:
            mask = g.as_mask(p.ext1_ids)
            assert p.edges == g.count_edges_between(mask, mask)
            assert p.inter_edges == g.inter_edge_count(mask)
        if directed:
            return  # the baseline measures are defined for undirected graphs
        for measure in MEASURE_NAMES:
            results = baseline_search(g, generate_selectors(g),
                                      SearchConfig(beam_width=8, depth=2), measure)
            assert any(len(r.w) == 2 for r in results)
            for r in results:
                mask = extension(r.w, g)
                assert r.size == np.count_nonzero(mask)
                assert r.edges == g.count_edges_between(mask, mask)
                assert r.inter_edges == g.inter_edge_count(mask)
                assert r.value == baseline_scores(g, mask)[measure]

    def test_empty_when_extensions_tiny(self):
        g = attr_graph(4, [(0, 1), (2, 3)], b=["0", "1", "2", "3"])
        model = fit_density_prior(g, 0.5)
        sels = generate_selectors(g)
        pats = beam_search_single(g, model, sels, SearchConfig(beam_width=4, depth=2))
        assert pats == []


class TestNestedSearch:
    def test_matches_exhaustive_on_tiny_instance(self):
        g = random_graph(101, n=25)
        model = fit_degree_prior(g, tol=1e-6)
        sels = generate_selectors(g)
        best = exhaustive_best_bi(g, model, sels, depth=2)
        got = nested_beam_search(g, model, sels,
                                 SearchConfig(x1=len(sels), x2=80, depth=2))
        assert got[0].sort_key() == best.sort_key()

    @pytest.mark.parametrize("directed", [False, True])
    def test_matches_exhaustive_directed_and_intervals(self, directed):
        # x1 = |S| and an x2 above the candidate count make the search
        # exhaustive over descriptions of up to 2 selectors
        for seed in (103, 104):
            g = random_graph(seed, n=22, attrs=(("a", 2), ("b", 3)), directed=directed,
                             numeric=("x",))
            model = fit_degree_prior(g, tol=1e-6)
            sels = generate_selectors(g, SelectorConfig(numeric_bins=3))
            assert any(isinstance(s, RangeSelector) for s in sels)
            best = exhaustive_best_bi(g, model, sels, depth=2)
            got = nested_beam_search(g, model, sels,
                                     SearchConfig(x1=len(sels), x2=200, depth=2))
            assert got[0].sort_key() == best.sort_key()

    def test_result_capped_at_x1_x2(self):
        g = random_graph(3, n=30)
        model = fit_degree_prior(g)
        sels = generate_selectors(g)
        pats = nested_beam_search(g, model, sels, SearchConfig(x1=3, x2=2, depth=2))
        assert len(pats) <= 6

    def test_diversity_floor_met(self):
        g = random_graph(7, n=35)
        model = fit_degree_prior(g)
        sels = generate_selectors(g)
        pats = nested_beam_search(g, model, sels, SearchConfig(x1=4, x2=2, depth=2))
        distinct = len({str(p.w1) for p in pats})
        assert distinct >= min(4, len(pats))

    def test_shared_attribute_constraint(self):
        g = random_graph(43, n=30)
        model = fit_degree_prior(g)
        sels = generate_selectors(g)
        cfg = SearchConfig(x1=4, x2=3, depth=2, require_shared_attribute=True)
        pats = nested_beam_search(g, model, sels, cfg)
        for p in pats:
            shared = p.w1.attributes & p.w2.attributes
            assert shared
            s1 = {s.attribute: s for s in p.w1.selectors}
            s2 = {s.attribute: s for s in p.w2.selectors}
            assert any(s1[a] != s2[a] for a in shared)

    def test_disjoint_constraint(self):
        g = random_graph(47, n=30)
        model = fit_degree_prior(g)
        sels = generate_selectors(g)
        cfg = SearchConfig(x1=4, x2=3, depth=2, require_disjoint_extensions=True)
        pats = nested_beam_search(g, model, sels, cfg)
        assert pats
        for p in pats:
            assert p.overlap == 0

    def test_planted_bipartite_block(self):
        rng = np.random.default_rng(8)
        n = 150
        edges = {(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.02}
        edges |= {(u, v) for u in range(30) for v in range(30, 60)
                  if rng.random() < 0.3}
        grp = ["p"] * 30 + ["q"] * 30 + ["none"] * (n - 60)
        g = attr_graph(n, sorted((min(u, v), max(u, v)) for u, v in edges), grp=grp)
        model = fit_degree_prior(g)
        sels = generate_selectors(g)
        pats = nested_beam_search(g, model, sels, SearchConfig(x1=4, x2=3, depth=2))
        top = pats[0]
        assert {str(top.w1), str(top.w2)} == {"grp=p", "grp=q"}
        assert top.direction == 0

    def test_deterministic(self):
        g = random_graph(53, n=30)
        model = fit_degree_prior(g)
        sels = generate_selectors(g)
        cfg = SearchConfig(x1=3, x2=2, depth=2)
        a = [(p.render(), p.si) for p in nested_beam_search(g, model, sels, cfg)]
        b = [(p.render(), p.si) for p in nested_beam_search(g, model, sels, cfg)]
        assert a == b

    def test_separator_in_values_keeps_both_patterns(self):
        # "a=x || b=y ‖ c=z" and "a=x ‖ b=y || c=z" render alike as
        # "W1 || W2"; a beam with room for every pair keeps both
        rng = np.random.default_rng(0)
        n = 40
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.15]
        g = attr_graph(n, edges, a=[["x", "x || b=y", "u"][i % 3] for i in range(n)],
                       b=[["y", "y || c=z", "v"][i // 3 % 3] for i in range(n)],
                       c=[["z", "w"][i // 9 % 2] for i in range(n)])
        model = fit_density_prior(g, 0.15)
        sels = generate_selectors(g)
        cfg = SearchConfig(x1=20, x2=20, depth=1)
        pats = nested_beam_search(g, model, sels, cfg)
        pairs = {(str(p.w1), str(p.w2)) for p in pats}
        assert {("a=x || b=y", "c=z"), ("a=x", "b=y || c=z")} <= pairs
        assert len(pairs) == len(pats) == len(sels) ** 2
        assert rendered(pats) == rendered(reference_nested_beam_search(g, model, sels, cfg))

    @pytest.mark.parametrize("shared", [False, True])
    def test_inner_levels_refine_each_w2_once(self, monkeypatch, shared):
        # an inner level refines only the W2s its previous level added, so no
        # W2 node is expanded twice within one W1's inner search; children
        # are filtered only under the shared-attribute constraint
        g = random_graph(41, n=40)
        model = fit_degree_prior(g)
        sels = generate_selectors(g)
        expand, inner = search._Refiner.expand, search._inner_searches
        runs, active = [], []

        def inner_searches(*args):
            active.append([])
            try:
                return inner(*args)
            finally:
                runs.append(active.pop())

        def expanding(self, groups, admit=None, seen=None):
            if active:
                active[-1].append([([(p.key, len(p.sels)) for p in parents],
                                    admit is not None and admit.shape[0] == len(groups))
                                   for parents in groups])
            return expand(self, groups, admit, seen)

        monkeypatch.setattr(search, "_inner_searches", inner_searches)
        monkeypatch.setattr(search._Refiner, "expand", expanding)
        cfg = SearchConfig(x1=3, x2=3, depth=3, require_shared_attribute=shared)
        assert nested_beam_search(g, model, sels, cfg)
        assert runs and all(len(levels) == 3 for levels in runs)
        deepest = 0
        for levels in runs:
            for w in range(len(levels[0])):
                refined = [parent for level in levels for parent in level[w][0]]
                keys = [key for key, _ in refined]
                assert len(keys) == len(set(keys))
                deepest = max(deepest, *(length for _, length in refined))
                assert all(level[w][1] == shared for level in levels)
        assert deepest == 2  # the third level refined some W2 of two selectors


@pytest.mark.parametrize("case", ["edgeless", "one-edge", "no-selectors", "n=63", "n=64",
                                  "n=65"])
def test_edge_cases_match_references(case):
    # graphs without edges or with one under a density prior, no selectors,
    # and vertex counts around a word of a packed row
    if case in ("edgeless", "one-edge"):
        g = attr_graph(12, [] if case == "edgeless" else [(2, 5)],
                       a=[i % 2 for i in range(12)], b=[i % 3 for i in range(12)])
        model = fit_density_prior(g, 0.1)
    else:
        g = random_graph(83, n=int(case[2:]) if case.startswith("n=") else 20, p=0.08)
        model = fit_degree_prior(g)
    sels = [] if case == "no-selectors" else generate_selectors(g)
    cfg = SearchConfig(beam_width=5, x1=3, x2=3, depth=2)
    assert (rendered(beam_search_single(g, model, sels, cfg))
            == rendered(reference_beam_search_single(g, model, sels, cfg)))
    assert (rendered(nested_beam_search(g, model, sels, cfg))
            == rendered(reference_nested_beam_search(g, model, sels, cfg)))
    got = iterate(g, model, sels, cfg, rounds=2).rounds
    assert ([rendered(r) for r in got]
            == [rendered(r) for r in reference_iterate(g, model, sels, cfg, rounds=2)])
    if case != "no-selectors":
        assert got


class TestSingleOracle:
    def test_matches_exhaustive(self):
        for seed in (201, 202, 203):
            g = random_graph(seed, n=30)
            model = fit_degree_prior(g, tol=1e-6)
            sels = generate_selectors(g)
            best = exhaustive_best_single(g, model, sels, depth=2)
            got = beam_search_single(g, model, sels,
                                     SearchConfig(beam_width=200, depth=2))
            assert got[0].sort_key() == best.sort_key()


class TestIterate:
    def test_absorbed_pattern_scores_near_zero(self):
        g = random_graph(61, n=40)
        model = fit_degree_prior(g)
        sels = generate_selectors(g)
        cfg = SearchConfig(x1=3, x2=2, depth=2)
        result = iterate(g, model, sels, cfg, rounds=2, absorb=1)
        top = result.rounds[0][0]
        re = rescore(g, result.models[1], top.w1, top.w2, cfg.constants)
        assert re.si < 1e-6

    def test_round_count_and_models(self):
        g = random_graph(67, n=30)
        model = fit_degree_prior(g)
        sels = generate_selectors(g)
        cfg = SearchConfig(x1=2, x2=2, depth=1)
        result = iterate(g, model, sels, cfg, rounds=3, absorb=2)
        assert len(result.rounds) == 3
        assert len(result.models) == 4
        assert len(result.models[-1].updates) == 6

    def test_rounds_validated(self):
        g = random_graph(71, n=20)
        model = fit_degree_prior(g)
        with pytest.raises(ValueError):
            iterate(g, model, generate_selectors(g), SearchConfig(), rounds=0)

    @pytest.mark.parametrize("absorb", [0, -1])
    def test_absorb_validated(self, absorb):
        g = random_graph(71, n=20)
        model = fit_degree_prior(g)
        with pytest.raises(ValueError, match="absorb"):
            iterate(g, model, generate_selectors(g), SearchConfig(), rounds=2,
                    absorb=absorb)


class TestScorerPath:
    """The single search scores the contenders of a level, and the nested
    search its reported patterns, in one batched call of the names
    ``simine.search.score_bi``/``score_single``, where a tracer that wraps
    them from outside finds them; both decode extensions for reported
    patterns only."""

    @staticmethod
    def _runs(g, model, sels):
        cfg = SearchConfig(beam_width=6, x1=3, x2=3, depth=2)
        return {
            "nested": lambda: nested_beam_search(g, model, sels, cfg),
            "single": lambda: beam_search_single(g, model, sels, cfg),
            "iterate": lambda: [p for pats in iterate(g, model, sels, cfg, rounds=2).rounds
                                for p in pats],
        }

    def test_contenders_scored_through_search_names(self, monkeypatch):
        g = random_graph(41, n=40)
        model = fit_degree_prior(g)
        sels = generate_selectors(g)
        returned, screened = [], []

        def counting(fn, out):
            def wrapper(*args, **kwargs):
                out.append(fn(*args, **kwargs))
                return out[-1]
            return wrapper

        monkeypatch.setattr(search, "score_bi", counting(score_bi, returned))
        monkeypatch.setattr(search, "score_single", counting(score_single, returned))
        for screen in (search._BiScreen, search._SingleScreen):
            monkeypatch.setattr(screen, "scores", counting(screen.scores, screened))
        for name, run in self._runs(g, model, sels).items():
            returned.clear()
            screened.clear()
            pats = run()
            assert pats and screened, name
            if name == "single":
                # one batch per screened level, and every reported pattern
                # is the very object a batch returned
                assert len(returned) == len(screened), name
                assert sum(map(len, returned)) > len(returned), name
                seen = {id(p) for batch in returned for p in batch}
                assert all(id(p) in seen for p in pats), name
            else:
                # one batch per nested search, of the reported patterns only
                assert len(returned) == (1 if name == "nested" else 2), name
                assert [id(p) for batch in returned for p in batch] == list(map(id, pats)), name

    @pytest.mark.parametrize("fn", [score_bi, score_single])
    def test_scorers_take_no_optional_parameters(self, fn):
        params = inspect.signature(fn).parameters.values()
        assert all(p.default is inspect.Parameter.empty for p in params)

    def test_only_reported_patterns_decoded(self, monkeypatch):
        g = random_graph(43, n=40)
        model = fit_degree_prior(g)
        sels = generate_selectors(g)
        decoded = []
        masks = search._Refiner.masks

        def counting(self, rows):
            decoded.append(len(rows))
            return masks(self, rows)

        monkeypatch.setattr(search._Refiner, "masks", counting)
        runs = self._runs(g, model, sels)
        pats = runs["nested"]()
        assert pats and sum(decoded) == 2 * len(pats) and len(decoded) == 2
        decoded.clear()
        pats = runs["single"]()
        assert pats and sum(decoded) == len(pats) and len(decoded) == 1

    def test_descriptions_rendered_per_score_and_report(self, monkeypatch):
        # the searches identify candidates by node keys: a scored pattern
        # renders its descriptions once, for its sort key, and a reported
        # one at most once more
        g = random_graph(41, n=40)
        model = fit_degree_prior(g)
        sels = generate_selectors(g)
        scored, renders = [], []
        to_str = Description.__str__

        def counting(fn):
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                scored.extend(out)
                return out
            return wrapper

        def counting_str(self):
            renders.append(1)
            return to_str(self)

        monkeypatch.setattr(search, "score_bi", counting(score_bi))
        monkeypatch.setattr(search, "score_single", counting(score_single))
        monkeypatch.setattr(Description, "__str__", counting_str)
        for name, run in self._runs(g, model, sels).items():
            scored.clear()
            renders.clear()
            pats = run()
            assert pats and scored, name
            assert len(renders) <= 2 * len(scored) + 2 * len(pats), name

    def test_class_histograms_counted_once(self, monkeypatch):
        # each chunk counts its W1 rows once and each inner level its W2 rows
        # once; the screen counts one overlap row per screened pair whose
        # sides share a vertex, and the exact inner scores one more per
        # contender
        g = random_graph(47, n=40)
        model = fit_degree_prior(g)
        sels = generate_selectors(g)
        Screen, class_counts = search._BiScreen, search._Refiner.class_counts
        phase, counted, offered, scored = [None], [], [], []

        def counting(self, rows):
            counted.append((phase[0], len(rows)))
            return class_counts(self, rows)

        def in_phase(name, fn, rows_of):
            def wrapper(*args):
                offered.append((name, rows_of(*args)))
                phase[0] = name
                try:
                    return fn(*args)
                finally:
                    phase[0] = None
            return wrapper

        def scoring(*args):
            scored.extend(args[1])
            return score_bi(*args)

        monkeypatch.setattr(search._Refiner, "class_counts", counting)
        monkeypatch.setattr(Screen, "w1_rows",
                            in_phase("w1", Screen.w1_rows, lambda _, rows: len(rows)))

        def sharing(screen, w1, w2, pi, pj, lengths):
            words = screen.refiner.words
            o = np.bitwise_count(w1[0][pi, :words] & w2[0][pj, :words]).sum(axis=1)
            return len(w2[0]), int(np.count_nonzero(o)), len(pi)

        monkeypatch.setattr(Screen, "scores", in_phase("screen", Screen.scores, sharing))
        monkeypatch.setattr(Screen, "overlaps", in_phase(
            "overlaps", Screen.overlaps, lambda _, w1, rows2, pi, pj: len(pi)))
        monkeypatch.setattr(search, "score_bi", scoring)
        pats = nested_beam_search(g, model, sels, SearchConfig(x1=3, x2=3, depth=2))
        assert pats

        def rows(name, of=lambda r: r):
            return [of(r) for n, r in offered if n == name]

        def counts(name):
            return sum(r for n, r in counted if n == name)

        # the W2 rows of each inner level, counted once by the level itself
        assert [r for n, r in counted if n is None] == rows("screen", lambda r: r[0])
        assert counts("w1") == sum(rows("w1")) > 0
        assert counts("screen") == sum(rows("screen", lambda r: r[1]))
        assert 0 < counts("screen") < sum(rows("screen", lambda r: r[2]))
        assert counts("overlaps") == sum(rows("overlaps")) >= len(scored) > 0
        # the reported patterns are scored from the counts kept with them
        assert len(scored) == len(pats)


class TestBaselineSearch:
    @pytest.mark.parametrize("alpha", [float("nan"), float("inf")])
    def test_non_finite_edge_surplus_alpha_rejected(self, alpha):
        g = attr_graph(4, [(0, 1), (2, 3)], t=["a", "a", "b", "b"])
        with pytest.raises(ValueError, match="edge_surplus_alpha"):
            baseline_search(g, generate_selectors(g), SearchConfig(depth=1), "pool",
                            edge_surplus_alpha=alpha)
        with pytest.raises(ValueError, match="edge_surplus_alpha"):
            baseline_scores(g, [0, 1], edge_surplus_alpha=alpha)

    def test_density_prefers_pairs(self):
        g = attr_graph(6, [(0, 1), (2, 3), (2, 4), (3, 4), (4, 5)],
                       t=["a", "a", "b", "b", "c", "c"],
                       u=["x", "y", "x", "y", "x", "y"])
        pats = baseline_search(g, generate_selectors(g),
                               SearchConfig(beam_width=10, depth=1), "edge_density")
        assert pats[0].value == pytest.approx(1.0)
        assert pats[0].size == 2 and pats[0].edges == 1

    def test_inverse_conductance_whole_component(self):
        # two components, one describable: its inverse conductance is +inf
        g = attr_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5)],
                       blk=["1", "1", "1", "0", "0", "0"])
        pats = baseline_search(g, generate_selectors(g),
                               SearchConfig(beam_width=5, depth=1), "inv_conductance")
        assert pats[0].inter_edges == 0
        assert pats[0].value == float("inf")
