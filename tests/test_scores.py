import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simine import (AttributedGraph, Description, ScoreConstants,
                    baseline_scores, description_length, extension,
                    fit_density_prior, fit_degree_prior, generate_selectors,
                    information_content, kl_bernoulli, pair_universe, parse_description,
                    rescore, score_bi, score_single, score_single_counts)
from simine.scores import _score_masks

from conftest import brute_force_tail, exact_tail_probability, random_graph


class TestPairCounting:
    def test_single_unordered(self):
        assert pair_universe(4, 4, 4, "unordered") == 6
        assert pair_universe(2, 2, 2, "unordered") == 1

    def test_single_ordered(self):
        assert pair_universe(78, 78, 78, "ordered") == 6006

    def test_single_too_small(self):
        assert pair_universe(1, 1, 1, "unordered") == 0
        assert pair_universe(1, 1, 1, "ordered") == 0
        with pytest.raises(ValueError):
            score_single_counts(size=1, edges=0, expected_edges=0.0)

    def test_bi_disjoint(self):
        assert pair_universe(3, 5, 0, "unordered") == 15
        assert pair_universe(3, 5, 0, "ordered") == 15

    def test_bi_full_overlap_matches_single(self):
        assert pair_universe(4, 4, 4, "unordered") == 6 == 4 * 3 // 2

    def test_bi_partial_overlap(self):
        # sets {u, x} and {u, y}: distinct unordered cross pairs are
        # {u,x}, {u,y}, {x,y}
        assert pair_universe(2, 2, 1, "unordered") == 3

    def test_bi_ordered(self):
        assert pair_universe(2, 2, 1, "ordered") == 3
        assert pair_universe(4, 4, 4, "ordered") == 12

    def test_bi_overlap_bound(self):
        for convention in ("ordered", "unordered"):
            with pytest.raises(ValueError):
                pair_universe(2, 3, 3, convention)
            with pytest.raises(ValueError):
                pair_universe(2, 3, -1, convention)

    def test_unknown_convention(self):
        with pytest.raises(ValueError):
            pair_universe(2, 3, 0, "both")

    def test_convention_choice(self):
        auto, unordered = ScoreConstants(), ScoreConstants(pair_counting="unordered")
        assert auto.convention(single=True, directed=False) == "ordered"
        assert auto.convention(single=False, directed=False) == "unordered"
        assert unordered.convention(single=True, directed=False) == "unordered"
        assert unordered.convention(single=False, directed=True) == "ordered"

    @pytest.mark.parametrize("directed", [False, True])
    @pytest.mark.parametrize("counting", ["ordered", "unordered"])
    def test_single_is_bi_with_equal_sides(self, directed, counting):
        # a single-subgroup pattern is the bi pattern W1 = W2
        g = random_graph(17, n=30, directed=directed)
        model = fit_degree_prior(g)
        c = ScoreConstants(pair_counting=counting)
        scored = 0
        for s in generate_selectors(g):
            w = Description((s,))
            m = extension(w, g)
            single = _score_masks(g, model, w, m, None, m, c)
            bi = _score_masks(g, model, w, m, w, m, c)
            if single is None:
                assert bi is None
                continue
            assert (bi.n_w, bi.k_w, bi.p_w) == (single.n_w, single.k_w, single.p_w)
            assert (bi.edges, bi.pair_slots) == (single.edges, single.pair_slots)
            scored += 1
        assert scored > 0


class TestKL:
    def test_zero_at_equality(self):
        assert kl_bernoulli(0.3, 0.3) == 0.0

    def test_two_term_value(self):
        # 0.5 ln 2 + 0.5 ln(2/3) = 0.5 ln(4/3)
        assert kl_bernoulli(0.5, 0.25) == pytest.approx(0.5 * math.log(4 / 3), abs=1e-12)
        assert kl_bernoulli(0.5, 0.25) == pytest.approx(0.14384, abs=5e-6)

    def test_degenerate_q(self):
        assert kl_bernoulli(1.0, 0.5) == pytest.approx(math.log(2.0), abs=1e-12)
        assert kl_bernoulli(0.0, 0.5) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_p_clamped(self):
        assert math.isfinite(kl_bernoulli(0.5, 0.0))
        assert math.isfinite(kl_bernoulli(0.5, 1.0))

    @settings(max_examples=200, deadline=None)
    @given(q=st.floats(0.0, 1.0), p=st.floats(0.001, 0.999))
    def test_symmetry_identity(self, q, p):
        assert kl_bernoulli(q, p) == pytest.approx(kl_bernoulli(1 - q, 1 - p), abs=1e-12)
        assert kl_bernoulli(q, p) >= 0.0


class TestInformationContent:
    def test_zero_when_unsurprising(self):
        assert information_content(10, 3, 0.3) == 0.0

    def test_direct_value(self):
        # 10 * KL(0.8 || 0.3) = 10 * (0.8 ln(8/3) + 0.2 ln(2/7))
        expect = 10 * (0.8 * math.log(8 / 3) + 0.2 * math.log(2 / 7))
        assert information_content(10, 8, 0.3) == pytest.approx(expect, abs=1e-12)
        assert information_content(10, 8, 0.3) == pytest.approx(5.341, abs=5e-4)

    def test_printed_row_value(self):
        # ordered counting: 6006 * KL(96/3003 || 8.929/3003)
        ic = information_content(6006, 192, 8.929 / 3003)
        assert ic == pytest.approx(284.4, rel=1e-3)

    def test_strictly_increasing_away_from_expectation(self):
        p = 0.3
        vals_hi = [information_content(20, k, p) for k in range(6, 21)]
        vals_lo = [information_content(20, k, p) for k in range(6, -1, -1)]
        assert all(b > a for a, b in zip(vals_hi, vals_hi[1:]))
        assert all(b > a for a, b in zip(vals_lo, vals_lo[1:]))

    def test_needs_pairs(self):
        with pytest.raises(ValueError):
            information_content(0, 0, 0.5)


class TestDescriptionLength:
    def test_single_default(self):
        assert description_length(1, None, ScoreConstants()) == pytest.approx(0.8)

    def test_bi_defaults(self):
        assert description_length(1, 1, ScoreConstants()) == pytest.approx(1.1)
        assert description_length(2, 1, ScoreConstants()) == pytest.approx(1.4)

    def test_invalid(self):
        with pytest.raises(ValueError):
            description_length(0, None, ScoreConstants())
        with pytest.raises(ValueError):
            ScoreConstants(alpha=0.0)

    @pytest.mark.parametrize("field", ["alpha", "beta"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_constants_must_be_finite_and_positive(self, field, value):
        # alpha=nan used to pass, and beta=inf gave every SI 0.0
        with pytest.raises(ValueError, match="finite and positive"):
            ScoreConstants(**{field: value})


class TestPrintedSIRows:
    def test_row_1(self):
        out = score_single_counts(size=78, edges=96, expected_edges=8.929)
        assert out["si"] == pytest.approx(355.533, rel=0.01)
        assert out["i"] == 0 and out["convention"] == "ordered"

    def test_row_2(self):
        out = score_single_counts(size=165, edges=220, expected_edges=60.040)
        assert out["si"] == pytest.approx(316.725, rel=0.01)

    def test_zero_when_matching_expectation(self):
        out = score_single_counts(size=10, edges=9, expected_edges=9.0)
        assert out["si"] == 0.0

    def test_unordered_halves(self):
        c = ScoreConstants(pair_counting="unordered")
        ordered = score_single_counts(size=78, edges=96, expected_edges=8.929)
        unordered = score_single_counts(size=78, edges=96, expected_edges=8.929, c=c)
        assert unordered["si"] == pytest.approx(ordered["si"] / 2, rel=1e-12)


class TestHistogramLayout:
    """Exact SIs read the values of the class histograms, not their memory
    layout: strided float, contiguous float and int64 histograms score alike,
    bit for bit, and as ``rescore`` does."""

    @pytest.mark.parametrize("directed,seed,pair", [(False, 3, ("a=v0", "b=v0")),
                                                    (True, 0, ("a=v0", "b=v2"))])
    def test_layouts_score_as_rescore(self, directed, seed, pair):
        g = random_graph(seed, n=60, attrs=(("a", 3), ("b", 3), ("c", 4)), directed=directed)
        model = fit_degree_prior(g)
        c = ScoreConstants()
        d1, d2 = (parse_description(text) for text in pair)
        m1, m2 = extension(d1, g), extension(d2, g)
        # both bi patterns of the pair, each side's mirror, and both singles
        for w1, w2, x1, x2 in [(d1, d2, m1, m2), (d2, d1, m2, m1), (d1, None, m1, m1),
                               (d2, None, m2, m2)]:
            hists = model._histograms(np.flatnonzero(x1), np.flatnonzero(x2))
            layouts = [hists, tuple(h.astype(np.int64) for h in hists),
                       tuple(np.stack(hists, axis=1).T)]  # columns of one array
            assert not layouts[2][0].flags.c_contiguous
            over = x1 & x2
            edges, inside = g.count_edges_between(x1, x2), g.count_edges_between(over, over)
            sis = [(score_single(g, model, w1, h[0], edges, c) if w2 is None
                    else score_bi(g, model, w1, w2, h, edges, inside, c)).si for h in layouts]
            assert sis == [rescore(g, model, w1, w2, c).si] * 3, (str(w1), str(w2))


class TestExactTail:
    def test_two_fair_coins(self):
        assert exact_tail_probability([0.5, 0.5], 2) == pytest.approx(0.25)
        assert exact_tail_probability([0.5, 0.5], 1) == pytest.approx(0.75)

    def test_three_trials_enumerated(self):
        # exhaustive enumeration of the 8 outcomes gives 0.25
        probs = [0.2, 0.3, 0.5]
        expect = brute_force_tail(probs, 2, "at_least")
        assert expect == pytest.approx(0.25, abs=1e-12)
        assert exact_tail_probability(probs, 2) == pytest.approx(expect, abs=1e-12)

    def test_at_most(self):
        probs = [0.2, 0.3, 0.5]
        assert exact_tail_probability(probs, 1, "at_most") == pytest.approx(
            brute_force_tail(probs, 1, "at_most"), abs=1e-12)

    def test_sides_complement(self):
        probs = [0.1, 0.6, 0.4, 0.9]
        for k in range(5):
            assert (exact_tail_probability(probs, k, "at_least")
                    + exact_tail_probability(probs, k - 1, "at_most")
                    ) == pytest.approx(1.0, abs=1e-12)

    def test_oversize_rejected(self):
        with pytest.raises(ValueError):
            exact_tail_probability([0.5] * 26, 3)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(0.01, 0.99), min_size=1, max_size=8),
           st.integers(0, 8))
    def test_matches_enumeration(self, probs, k):
        k = min(k, len(probs))
        assert exact_tail_probability(probs, k) == pytest.approx(
            brute_force_tail(probs, k, "at_least"), abs=1e-9)


class TestBoundValidity:
    def test_bound_dominates_exact_tail(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            n = int(rng.integers(1, 21))
            probs = rng.uniform(0.02, 0.98, size=n)
            k = int(rng.integers(0, n + 1))
            p_w = probs.mean()
            bound = math.exp(-n * kl_bernoulli(k / n, p_w))
            if k / n >= p_w:
                tail = exact_tail_probability(probs, k, "at_least")
            else:
                tail = exact_tail_probability(probs, k, "at_most")
            assert bound >= tail - 1e-12


class TestBaselines:
    def test_adjacent_pair(self):
        g = AttributedGraph(4, [(0, 1), (1, 2), (2, 3)])
        vals = baseline_scores(g, [0, 1])
        assert vals["edge_density"] == pytest.approx(1.0)
        assert vals["pool"] == pytest.approx(2.0)

    def test_whole_graph(self, fig_graph):
        vals = baseline_scores(fig_graph, range(fig_graph.n))
        assert vals["segregation"] == pytest.approx(1.0)
        assert vals["inv_conductance"] == math.inf
        assert vals["inv_avg_odf"] == pytest.approx(1.0)

    def test_triangle_minus_edge(self):
        g = AttributedGraph(3, [(0, 1), (1, 2)])
        vals = baseline_scores(g, [0, 1, 2])
        assert vals["edge_density"] == pytest.approx(2 / 3)
        assert vals["avg_degree"] == pytest.approx(4 / 3)
        assert vals["pool"] == pytest.approx(3.0)

    def test_edge_surplus_table_form(self):
        # printed form without the 1/2 on the possible-pair term
        g = AttributedGraph(3, [(0, 1), (1, 2), (0, 2)])
        vals = baseline_scores(g, [0, 1, 2], edge_surplus_alpha=1 / 3)
        assert vals["edge_surplus"] == pytest.approx(3 - (1 / 3) * 6)

    def test_modularity_single_community(self):
        g = AttributedGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
        vals = baseline_scores(g, [0, 1, 2])
        k, m = 3, g.m
        deg_sum = 3 + 2 + 3
        assert vals["modularity1"] == pytest.approx(k / m - (deg_sum / (2 * m)) ** 2)

    def test_pool_tracks_edge_surplus(self):
        # Pool == 3 * edge surplus at alpha = 1/6, over every subgroup
        import itertools
        g = random_graph(3, n=9)
        for r in range(2, 6):
            for sub in itertools.combinations(range(g.n), r):
                vals = baseline_scores(g, list(sub), edge_surplus_alpha=1 / 6)
                assert vals["pool"] == pytest.approx(3 * vals["edge_surplus"], abs=1e-9)

    def test_too_small(self, fig_graph):
        with pytest.raises(ValueError):
            baseline_scores(fig_graph, [3])

    def test_directed_rejected(self):
        g = AttributedGraph(3, [(0, 1)], directed=True)
        with pytest.raises(ValueError):
            baseline_scores(g, [0, 1])


class TestScaleBehavior:
    def test_si_scales_inversely_with_dl_constants(self):
        from simine import generate_selectors, extension, Description
        g = random_graph(7, n=25)
        model = fit_degree_prior(g)
        sels = generate_selectors(g)
        base = ScoreConstants()
        scaled = ScoreConstants(alpha=0.6, beta=1.0)
        pats_base, pats_scaled = [], []
        for s in sels:
            d = Description((s,))
            m = extension(d, g)
            if m.sum() < 2:
                continue
            pats_base.append(_score_masks(g, model, d, m, None, m, base))
            pats_scaled.append(_score_masks(g, model, d, m, None, m, scaled))
        for p1, p2 in zip(pats_base, pats_scaled):
            assert p2.si == pytest.approx(p1.si / 2, rel=1e-12)
        best1 = min(pats_base, key=lambda p: p.sort_key())
        best2 = min(pats_scaled, key=lambda p: p.sort_key())
        assert best1.w1 == best2.w1
