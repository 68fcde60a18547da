import json
import math
import re
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simine import (AttributeColumn, AttributedGraph, BackgroundModel, FitError, background,
                    block_mean_probability, fit_block_prior, fit_degree_prior,
                    fit_density_prior, update_with_pattern)

from conftest import (dense_probabilities, random_graph, reference_fit, reference_sigmoid,
                      table_probabilities)


def cycle_graph(n):
    return AttributedGraph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n):
    return AttributedGraph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def expected_degrees(model):
    """Independent check: row sums of the full probability matrix."""
    ids = np.arange(model.n)
    p = dense_probabilities(model, ids, ids)
    np.fill_diagonal(p, 0.0)
    return p.sum(axis=1)


def dense_p(model, u, v):
    """Probability of the pair (u, v) from the dense per-vertex reference."""
    return float(dense_probabilities(model, [u], [v])[0, 0])


def table_p(model, u, v):
    """Probability of the pair (u, v) as the model's class table holds it."""
    return float(table_probabilities(model, [u], [v])[0, 0])


class FakePattern:
    def __init__(self, ext1, ext2, edges):
        self.ext1_ids = np.asarray(ext1)
        self.ext2_ids = None if ext2 is None else np.asarray(ext2)
        self.edges = edges


class TestDensityPrior:
    def test_uniform(self, triangle):
        m = fit_density_prior(triangle, 0.5)
        assert dense_p(m, 0, 2) == pytest.approx(0.5)
        assert dense_p(m, 1, 2) == pytest.approx(0.5)

    def test_observed_density_matches_edge_count(self, fig_graph):
        n, e = fig_graph.n, fig_graph.m
        m = fit_density_prior(fig_graph, e / (n * (n - 1) / 2))
        ids = np.arange(n)
        p = dense_probabilities(m, ids, ids)
        np.fill_diagonal(p, 0.0)
        assert p.sum() / 2 == pytest.approx(e, rel=1e-9)

    def test_directed_ordered_pairs(self):
        g = AttributedGraph(4, [(0, 1), (1, 0), (2, 3)], directed=True)
        m = fit_density_prior(g, g.m / (g.n * (g.n - 1)))
        ids = np.arange(4)
        p = dense_probabilities(m, ids, ids)
        np.fill_diagonal(p, 0.0)
        assert p.sum() == pytest.approx(g.m, rel=1e-9)

    def test_range_checked(self, triangle):
        with pytest.raises(ValueError):
            fit_density_prior(triangle, 1.0)
        with pytest.raises(ValueError):
            fit_density_prior(triangle, 0.0)


class TestDegreePrior:
    def test_regular_graph_uniform(self):
        g = cycle_graph(8)
        m = fit_degree_prior(g, tol=1e-9)
        for u, v in [(0, 1), (0, 4), (2, 7)]:
            assert dense_p(m, u, v) == pytest.approx(2 / 7, abs=1e-6)

    def test_complete_graph_saturates(self):
        g = complete_graph(6)
        m = fit_degree_prior(g, tol=1e-4)
        for u in range(1, 6):
            assert dense_p(m, 0, u) >= 1 - 1e-6

    def test_star_constraints(self, star5):
        m = fit_degree_prior(star5, tol=1e-4)
        got = expected_degrees(m)
        assert np.allclose(got, [4, 1, 1, 1, 1], atol=1e-4)

    def test_random_graphs_calibrated(self):
        for seed in range(5):
            g = random_graph(seed, n=60)
            m = fit_degree_prior(g)
            assert np.max(np.abs(expected_degrees(m) - g.degrees())) <= 1e-4

    def test_directed(self):
        rng = np.random.default_rng(5)
        n = 30
        edges = {(i, (i + 1) % n) for i in range(n)}  # cycle: no zero degrees
        edges |= {(u, v) for u in range(n) for v in range(n)
                  if u != v and rng.random() < 0.1}
        g = AttributedGraph(n, sorted(edges), directed=True)
        m = fit_degree_prior(g, tol=1e-6)
        ids = np.arange(n)
        p = dense_probabilities(m, ids, ids)
        np.fill_diagonal(p, 0.0)
        assert np.allclose(p.sum(axis=1), g.out_degrees(), atol=1e-6)
        assert np.allclose(p.sum(axis=0), g.in_degrees(), atol=1e-6)

    def test_directed_zero_degree_vertices_waived(self):
        # sparse citation-style graph: many vertices with no in- or out-edges
        g = AttributedGraph(20, [(0, 1), (2, 1), (3, 4), (5, 1), (6, 4)],
                            directed=True)
        m = fit_degree_prior(g, tol=1e-6)
        ids = np.arange(20)
        p = dense_probabilities(m, ids, ids)
        np.fill_diagonal(p, 0.0)
        live_rows = g.out_degrees() > 0
        assert np.allclose(p.sum(axis=1)[live_rows], g.out_degrees()[live_rows],
                           atol=1e-6)
        assert p.sum(axis=1)[~live_rows].max() < 1e-6

    def test_isolated_vertex_clamped(self):
        g = AttributedGraph(5, [(0, 1), (1, 2), (0, 2)])
        m = fit_degree_prior(g)
        assert m.class_lam_row[m.cls[3]] == -30.0
        assert expected_degrees(m)[3] <= 1e-4

    def test_empty_graph_rejected(self):
        g = AttributedGraph(3, [])
        with pytest.raises(ValueError, match="no edges"):
            fit_degree_prior(g)

    def test_non_convergence_reported(self):
        g = random_graph(3, n=40)
        with pytest.raises(FitError, match="worst constraint"):
            fit_degree_prior(g, tol=1e-12, max_iter=1)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0, -1e-4])
    def test_tol_must_be_finite_and_positive(self, tol):
        g = random_graph(3, n=12)
        with pytest.raises(ValueError, match="tol must be a finite number > 0"):
            fit_degree_prior(g, tol=tol)
        with pytest.raises(ValueError, match="tol must be a finite number > 0"):
            fit_block_prior(g, ["a"], tol=tol)

    def test_max_iter_must_not_be_negative(self):
        g = random_graph(3, n=12)
        with pytest.raises(ValueError, match="max_iter must be >= 0"):
            fit_degree_prior(g, max_iter=-3)
        with pytest.raises(ValueError, match="max_iter must be >= 0"):
            fit_block_prior(g, ["a"], max_iter=-1)
        # zero sweeps is a valid budget: the starting point is checked only
        with pytest.raises(FitError, match="no convergence after 0 sweeps"):
            fit_degree_prior(g, max_iter=0)


def _named(g):
    """``g`` with vertex labels n0, n1, ... so that messages name vertices
    unambiguously."""
    return AttributedGraph(g.n, g.edges, directed=g.directed, columns=g.columns,
                           labels=[f"n{u}" for u in range(g.n)])


class TestFitDiagnostics:
    """The fit names its worst constraint and reports saturated ones."""

    @pytest.mark.parametrize("directed", [False, True])
    def test_worst_degree_constraint_named(self, directed):
        g = _named(random_graph(3, n=40, directed=directed))
        kind = "(out|in)-degree" if directed else "(degree)"
        with pytest.raises(FitError, match=rf"worst constraint: {kind} of vertex 'n\d+' "
                                           r"\(residual "):
            fit_degree_prior(g, tol=1e-12, max_iter=1)
        m = fit_degree_prior(g, tol=1e-6)
        worst = m.fit_info["max_residual"]
        named = re.fullmatch(rf"{kind} of vertex 'n(\d+)'", m.fit_info["worst_constraint"])
        assert named and 0 < worst <= 1e-6
        ids = np.arange(g.n)
        p = dense_probabilities(m, ids, ids)
        np.fill_diagonal(p, 0.0)
        if directed:
            res = {"out": np.abs(p.sum(axis=1) - g.out_degrees()),
                   "in": np.abs(p.sum(axis=0) - g.in_degrees())}[named.group(1)]
        else:
            res = np.abs(p.sum(axis=1) - g.degrees())
        assert res[int(named.group(2))] == pytest.approx(worst, abs=1e-10)
        assert res.max() <= worst + 1e-10

    def test_worst_block_constraint_named(self):
        g = _named(random_graph(5, n=40, attrs=(("p1", 2), ("p2", 3))))
        name = r"block \((p1|p2): (v\d) x (v\d)\)"
        with pytest.raises(FitError, match=rf"worst constraint: {name} \(residual "):
            fit_block_prior(g, ["p1", "p2"], with_degrees=False, tol=1e-12, max_iter=1)
        m = fit_block_prior(g, ["p1", "p2"], with_degrees=False, tol=1e-6)
        worst = m.fit_info["max_residual"]
        named = re.fullmatch(name, m.fit_info["worst_constraint"])
        assert named and 0 < worst <= 1e-6
        ids = np.arange(g.n)
        p = dense_probabilities(m, ids, ids)
        np.fill_diagonal(p, 0.0)
        part = next(q for q in m.partitions if q.attribute == named.group(1))
        b1, b2 = (part.bin_values.index(v) for v in named.group(2, 3))
        i1, i2 = np.flatnonzero(part.bins == b1), np.flatnonzero(part.bins == b2)
        expected = p[np.ix_(i1, i2)].sum() / (2.0 if b1 == b2 else 1.0)
        observed = g.count_edges_between(g.as_mask(i1), g.as_mask(i2))
        assert abs(expected - observed) == pytest.approx(worst, abs=1e-10)

    def test_isolated_vertex_saturated_and_clamped(self):
        g = _named(AttributedGraph(5, [(0, 1), (1, 2), (0, 2), (2, 3)]))
        m = fit_degree_prior(g)
        info = m.fit_info
        assert info["clamped"] == ["n4"]
        assert "n4" not in info["worst_constraint"]
        lam = m.class_lam_row[m.cls]
        assert lam[4] == -30.0
        # the isolated vertex's expected degree, which its clamped multiplier
        # cannot lower further
        partners = 1.0 / (1.0 + np.exp(-(lam[4] + lam[:4])))
        assert info["saturated_residual"] == pytest.approx(partners.sum(), rel=1e-9)
        assert info["saturated_residual"] > 0 and info["max_residual"] <= info["tol"]


class TestBlockPrior:
    def two_cliques(self):
        # two 4-cliques, no cross edges, grp marks the cliques
        edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
        edges += [(u, v) for u in range(4, 8) for v in range(u + 1, 8)]
        cols = [AttributeColumn("grp", "nominal", ["a"] * 4 + ["b"] * 4)]
        return AttributedGraph(8, edges, columns=cols)

    def test_single_bin_reduces_to_degrees(self):
        g = random_graph(11, n=30, attrs=(("z", 1), ("b", 2)))
        # attribute z has a single value: one bin spanning all vertices
        m1 = fit_degree_prior(g, tol=1e-7)
        m2 = fit_block_prior(g, ["z"], with_degrees=True, tol=1e-7)
        ids = np.arange(g.n)
        assert np.allclose(dense_probabilities(m1, ids, ids),
                           dense_probabilities(m2, ids, ids), atol=1e-5)

    def test_zero_cross_block(self):
        g = self.two_cliques()
        m = fit_block_prior(g, ["grp"], with_degrees=False, tol=1e-6)
        assert dense_p(m, 0, 5) < 1e-6
        assert dense_p(m, 0, 1) == pytest.approx(1.0, abs=1e-5)

    @staticmethod
    def assert_block_residuals(g, m):
        """Expected degrees and per-bin-pair edge counts equal the observed."""
        bins, k = m.partitions[0].bins, len(m.partitions[0].bin_values)
        ids = np.arange(g.n)
        p = dense_probabilities(m, ids, ids)
        np.fill_diagonal(p, 0.0)
        assert np.max(np.abs(p.sum(axis=1) - g.degrees())) <= 1e-5
        for b1 in range(k):
            for b2 in range(b1, k):
                i1, i2 = np.flatnonzero(bins == b1), np.flatnonzero(bins == b2)
                if b1 == b2:
                    exp = p[np.ix_(i1, i1)].sum() / 2
                else:
                    exp = p[np.ix_(i1, i2)].sum()
                obs = g.count_edges_between(g.as_mask(i1), g.as_mask(i2))
                assert exp == pytest.approx(obs, abs=1e-5 * max(1, obs) + 1e-5)

    def test_block_residuals(self):
        g = random_graph(21, n=50, attrs=(("grp", 3), ("b", 2)))
        self.assert_block_residuals(g, fit_block_prior(g, ["grp"], with_degrees=True,
                                                       tol=1e-5))

    def test_missing_values_form_their_own_bin(self):
        # vertices without a value share the last bin, "∅missing", which is
        # fitted like any other
        g = random_graph(21, n=50, attrs=(("b", 2),))
        rng = np.random.default_rng(3)
        grp = [None if x == 3 else f"v{x}" for x in rng.integers(0, 4, size=g.n)]
        g = AttributedGraph(g.n, g.edges, columns=[AttributeColumn("grp", "nominal", grp)])
        m = fit_block_prior(g, ["grp"], with_degrees=True, tol=1e-5)
        part = m.partitions[0]
        assert part.bin_values == ["v0", "v1", "v2", "∅missing"]
        missing = g.column("grp").missing_mask()
        assert missing.any() and np.array_equal(part.bins == 3, missing)
        self.assert_block_residuals(g, m)

    def test_value_spelled_like_the_missing_label_keeps_its_own_bin(self):
        # a real "∅missing" value is not merged with the missing vertices,
        # and every bin, the value's own too, has members
        values = ["a", "a", "∅missing", "∅missing", None, None, "b", "b"]
        g = AttributedGraph(len(values), [(0, 1), (2, 3), (4, 5), (6, 7), (1, 6)],
                            columns=[AttributeColumn("grp", "nominal", values)])
        bins, labels = background._partition_bins(g, "grp")
        assert bins.tolist() == [0, 0, 2, 2, 3, 3, 1, 1]
        assert labels == ["a", "b", "∅missing", "∅missing"]
        assert np.bincount(bins, minlength=len(labels)).all()

    def test_multiple_partitions_jointly(self):
        g = random_graph(5, n=40, attrs=(("p1", 2), ("p2", 3)))
        m = fit_block_prior(g, ["p1", "p2"], with_degrees=False, tol=1e-5)
        assert len(m.partitions) == 2

    def test_numeric_partition_rejected(self, fig_graph):
        with pytest.raises(ValueError, match="nominal"):
            fit_block_prior(fig_graph, ["a"])


class TestEdgeProbability:
    def test_update_shift(self, triangle):
        m = fit_density_prior(triangle, 0.5)
        m2 = update_with_pattern(m, FakePattern([0, 1], [2], edges=2))
        # analytic: p' = p e^l / (1 - p + p e^l); calibration forces p' = 1 - eps
        assert table_p(m2, 0, 2) == table_p(m2, 1, 2)
        assert table_p(m2, 0, 1) == 0.5

    def test_lambda_zero_is_identity(self, fig_graph):
        m = fit_density_prior(fig_graph, 0.25)
        # expectation over 4 pairs is exactly 1 = observed, so lam = 0 and
        # the update map is the identity
        m2 = update_with_pattern(m, FakePattern([0, 1], [2, 3], edges=1))
        assert m2.updates[-1].lam == 0.0
        assert table_p(m2, 0, 2) == table_p(m, 0, 2)

    def test_plug_in_formula(self):
        # p = 0.5 with shift ln 3 gives 0.75
        p, lam = 0.5, math.log(3.0)
        assert p * math.exp(lam) / (1 - p + p * math.exp(lam)) == pytest.approx(0.75)


class TestBlockMean:
    def test_uniform(self, fig_graph):
        m = fit_density_prior(fig_graph, 0.37)
        p_w, n_w = block_mean_probability(m, np.arange(4), np.arange(4, 9))
        assert p_w == pytest.approx(0.37) and n_w == 20

    def test_disjoint_counts(self, fig_graph):
        m = fit_density_prior(fig_graph, 0.1)
        p_w, n_w = block_mean_probability(m, [0, 1], [2, 3, 4])
        assert (p_w, n_w) == (pytest.approx(0.1), 6)

    def test_single_group(self, fig_graph):
        m = fit_density_prior(fig_graph, 0.2)
        p_w, n_w = block_mean_probability(m, np.arange(5), np.arange(5))
        assert n_w == 10 and p_w == pytest.approx(0.2)

    def test_empty_pair_universe(self, fig_graph):
        m = fit_density_prior(fig_graph, 0.2)
        with pytest.raises(ValueError):
            block_mean_probability(m, [3], [3])

    @pytest.mark.parametrize("rows, cols", [
        ([0, 0, 1], [2]),  # a repeated id would count (0, 2) twice
        ([0], [2, 2]),
        ([-1], [2]),  # -1 would silently mean vertex n - 1
        ([0], [11]),
    ])
    def test_bad_vertex_ids_rejected(self, fig_graph, rows, cols):
        m = fit_density_prior(fig_graph, 0.2)
        with pytest.raises(ValueError, match="vertex ids"):
            block_mean_probability(m, rows, cols)


class TestPatternUpdate:
    def test_calibrated_pattern_gives_zero(self, fig_graph):
        m = fit_density_prior(fig_graph, 0.25)
        # 4 cross pairs at p = 0.25: expectation exactly 1
        m2 = update_with_pattern(m, FakePattern([0, 1], [2, 3], edges=1))
        assert m2.updates[-1].lam == 0.0

    def test_uniform_root_ln3(self, fig_graph):
        m = fit_density_prior(fig_graph, 0.5)
        m2 = update_with_pattern(m, FakePattern([0, 1], [2, 3], edges=3))
        assert m2.updates[-1].lam == pytest.approx(math.log(3.0), abs=1e-9)
        assert dense_p(m2, 0, 2) == pytest.approx(0.75, abs=1e-9)

    def test_calibration_and_locality(self):
        g = random_graph(17, n=40)
        m = fit_degree_prior(g)
        rows, cols = np.arange(0, 12), np.arange(8, 25)
        k = 30
        m2 = update_with_pattern(m, FakePattern(rows, cols, edges=k))
        expect, n_w = block_mean_probability(m2, rows, cols)
        assert expect * n_w == pytest.approx(k, abs=1e-6 * max(1, n_w))
        # outside the pair block: bit-identical probabilities
        for u, v in [(30, 35), (26, 39), (0, 30)]:
            assert table_p(m, u, v) == table_p(m2, u, v)

    def test_monotone_sign(self):
        g = random_graph(23, n=30)
        m = fit_degree_prior(g)
        rows, cols = np.arange(0, 10), np.arange(10, 20)
        base_exp, n_w = block_mean_probability(m, rows, cols)
        for k in (0, 5, 50, 99, 100):
            m2 = update_with_pattern(m, FakePattern(rows, cols, edges=k))
            lam = m2.updates[-1].lam
            if k > base_exp * n_w:
                assert lam > 0
            elif k < base_exp * n_w:
                assert lam < 0

    def test_extreme_counts_clamped(self, fig_graph):
        m = fit_density_prior(fig_graph, 0.5)
        lo = update_with_pattern(m, FakePattern([0, 1], [2, 3], edges=0))
        hi = update_with_pattern(m, FakePattern([0, 1], [2, 3], edges=4))
        assert lo.updates[-1].lam == -30.0 and hi.updates[-1].lam == 30.0

    def test_empty_extension_rejected(self, fig_graph):
        m = fit_density_prior(fig_graph, 0.5)
        with pytest.raises(ValueError):
            update_with_pattern(m, FakePattern([], [1], edges=0))

    def test_pattern_without_ids_rejected(self, fig_graph):
        # score_bi and score_single score counts alone: their patterns carry
        # no extension ids until a search or rescore attaches them
        m = fit_density_prior(fig_graph, 0.5)
        pat = FakePattern([0, 1], [2, 3], edges=1)
        pat.ext1_ids = None
        with pytest.raises(ValueError, match="no extension ids"):
            update_with_pattern(m, pat)

    @pytest.mark.parametrize("ext1, ext2", [
        ([0, 1, 2, 3, 3], None),  # a repeated id would weigh its pairs twice
        ([0, 1], [2, 2, 3]),
        ([0, 1], [-1]),
        ([0, 11], [2]),
    ])
    def test_bad_vertex_ids_rejected(self, fig_graph, ext1, ext2):
        m = fit_density_prior(fig_graph, 0.5)
        with pytest.raises(ValueError, match="vertex ids"):
            update_with_pattern(m, FakePattern(ext1, ext2, edges=2))

    def test_reabsorb_is_noop(self):
        g = random_graph(29, n=35)
        m = fit_degree_prior(g)
        pat = FakePattern(np.arange(0, 9), np.arange(9, 21), edges=40)
        m2 = update_with_pattern(m, pat)
        m3 = update_with_pattern(m2, pat)
        assert m3.updates[-1].lam == 0.0

    def test_overlapping_extensions(self):
        g = random_graph(31, n=30)
        m = fit_degree_prior(g)
        rows, cols = np.arange(0, 12), np.arange(6, 18)
        m2 = update_with_pattern(m, FakePattern(rows, cols, edges=25))
        expect, n_w = block_mean_probability(m2, rows, cols)
        assert n_w == 12 * 12 - 6 * 7 // 2
        assert expect * n_w == pytest.approx(25, abs=1e-6 * n_w)


def _shared_class_member(blob):
    """A vertex whose class has another member."""
    classes = blob["classes"]
    return next(u for u, c in enumerate(classes) if classes.count(c) > 1)


def _move_to_other_bin(blob, u):
    bins = blob["partitions"][0]["bins"]
    bins[u] = (bins[u] + 1) % len(blob["partitions"][0]["bin_values"])


class TestSerialization:
    def test_replay_identical(self, tmp_path):
        g = random_graph(37, n=40, attrs=(("grp", 3), ("b", 2)))
        m = fit_block_prior(g, ["grp"], with_degrees=True, tol=1e-5)
        m = update_with_pattern(m, FakePattern(np.arange(0, 10), np.arange(10, 22),
                                               edges=17))
        path = tmp_path / "model.json"
        m.save(path)
        m2 = BackgroundModel.load(path)
        ids = np.arange(g.n)
        assert np.array_equal(table_probabilities(m, ids, ids),
                              table_probabilities(m2, ids, ids))
        assert m2.prior == m.prior
        # the file itself is valid versioned JSON with a class id per vertex
        blob = json.loads(path.read_text())
        assert blob["format"] == "simine-model" and blob["version"] == 2
        assert len(blob["classes"]) == g.n and len(blob["lam_row"]) == m.n_classes

    def test_replay_identical_directed(self, tmp_path):
        g = random_graph(41, n=30, directed=True)
        m = fit_degree_prior(g, tol=1e-6)
        m = update_with_pattern(m, FakePattern(np.arange(0, 12), np.arange(6, 20), edges=30))
        path = tmp_path / "model.json"
        m.save(path)
        m2 = BackgroundModel.load(path)
        ids = np.arange(g.n)
        assert np.array_equal(table_probabilities(m, ids, ids),
                              table_probabilities(m2, ids, ids))

    @staticmethod
    def _blob():
        g = random_graph(43, n=20, attrs=(("grp", 3),))
        m = fit_block_prior(g, ["grp"], with_degrees=True)
        m = update_with_pattern(m, FakePattern(np.arange(0, 6), np.arange(4, 12), edges=9))
        return json.loads(json.dumps(m.to_dict()))

    def test_v1_file_rejected(self):
        blob = self._blob()
        blob["version"] = 1
        with pytest.raises(ValueError, match=r"version 1 .*re-run `simine fit`"):
            BackgroundModel.from_dict(blob)

    @pytest.mark.parametrize("corrupt, message", [
        (lambda b: b.update(classes=b["classes"][:-1]), "expected n=20"),
        (lambda b: b["classes"].__setitem__(0, len(b["lam_row"])), "class ids must lie"),
        (lambda b: b["classes"].__setitem__(0, -1), "class ids must lie"),
        (lambda b: b["classes"].__setitem__(0, 0.5), "class ids must be integers"),
        (lambda b: b["lam_row"].append(0.0), "at least one vertex"),
        (lambda b: b["partitions"][0]["bins"].__setitem__(0, 3), "need n bins in"),
        (lambda b: b["partitions"][0].update(bins=b["partitions"][0]["bins"][:5]),
         "need n bins in"),
        (lambda b: b["lam_row"].__setitem__(0, float("nan")), "finite"),
        (lambda b: b["partitions"][0]["gammas"][0].__setitem__(0, float("inf")), "finite"),
        (lambda b: b["updates"][0].update(lam=float("nan")), "finite"),
        (lambda b: b["updates"][0].update(rows=[25]), r"update vertex ids"),
        (lambda b: b.update(lam_col=b["lam_row"]), "tie column multipliers"),
        (lambda b: _move_to_other_bin(b, _shared_class_member(b)),
         "differ within a vertex class"),
        (lambda b: b.pop("classes"), "malformed model file"),
        (lambda b: b.update(directed="false"), "'directed' must be true or false"),
        (lambda b: b.update(directed=0), "'directed' must be true or false"),
        (lambda b: b.pop("directed"), "'directed' must be true or false"),
        # every number must have its JSON type: counts and ids are integers,
        # the multipliers numbers, and neither is a boolean or a string
        (lambda b: b.update(n=20.7), "n must be a JSON integer"),
        (lambda b: b.update(n="20"), "n must be a JSON integer"),
        (lambda b: b.update(n=True), "n must be a JSON integer"),
        (lambda b: b.update(offset="0.5"), "offset must be a JSON number"),
        (lambda b: b.update(offset=True), "offset must be a JSON number"),
        (lambda b: b.update(offset=[0.5]), "offset must be a JSON number"),
        (lambda b: b.update(lam_row=[str(x) for x in b["lam_row"]]),
         "lam_row must be a JSON number"),
        (lambda b: b.update(lam_row=None), "lam_row must be a JSON number"),
        (lambda b: b.update(lam_col=[False] * len(b["lam_row"])),
         "lam_col must be a JSON number"),
        (lambda b: b["partitions"][0].update(
            gammas=[[x > 0 for x in row] for row in b["partitions"][0]["gammas"]]),
         "gammas must be a JSON number"),
        (lambda b: b["partitions"][0]["gammas"][0].__setitem__(0, True),
         "gammas must be a JSON number"),
        (lambda b: b["updates"][0].update(lam="1.5"), "lam must be a JSON number"),
        (lambda b: b["updates"][0].update(observed=9.0), "observed must be a JSON integer"),
        (lambda b: b["updates"][0].update(observed=True), "observed must be a JSON integer"),
        (lambda b: b["updates"][0].update(n_pairs="48"), "n_pairs must be a JSON integer"),
        (lambda b: b["classes"].__setitem__(0, True), "class ids must be integers"),
        (lambda b: b["partitions"][0]["bins"].__setitem__(0, False), "bins must be integers"),
        (lambda b: b["updates"][0]["rows"].__setitem__(0, "0"), "update rows must be integers"),
        (lambda b: b["updates"][0]["cols"].__setitem__(0, 2 ** 70), "malformed model file"),
        # the texts, lists and objects must have their JSON types too: a dict
        # for a list iterates as no partitions, a string as its characters
        (lambda b: b.update(prior=7), "malformed model file: prior must be a JSON string"),
        (lambda b: b.update(graph_fingerprint=12),
         "malformed model file: graph_fingerprint must be a JSON string"),
        (lambda b: b.update(partitions={}),
         "malformed model file: partitions must be a JSON array"),
        (lambda b: b.update(updates={}), "malformed model file: updates must be a JSON array"),
        (lambda b: b["partitions"][0].update(attribute=3),
         "malformed model file: partition attribute must be a JSON string"),
        (lambda b: b["partitions"][0].update(attribute=["a"]),
         "malformed model file: partition attribute must be a JSON string"),
        (lambda b: b["partitions"][0].update(bin_values="".join(b["partitions"][0]["bin_values"])),
         "malformed model file: bin_values must be a JSON array"),
        (lambda b: b["partitions"][0]["bin_values"].__setitem__(0, 1),
         "malformed model file: bin value must be a JSON string"),
        (lambda b: b.update(fit_info="abc"),
         "malformed model file: fit_info must be a JSON object"),
        (lambda b: b.update(fit_info=[["iterations", 3]]),
         "malformed model file: fit_info must be a JSON object"),
    ])
    def test_malformed_file_rejected(self, corrupt, message):
        blob = self._blob()
        corrupt(blob)
        with pytest.raises(ValueError, match=message):
            BackgroundModel.from_dict(blob)


def _fit_case_graph(seed, shape, directed):
    """A graph with nominal attributes a (2 values) and b (3 values):
    G(n, p) for "random"; with vertex 0 isolated for "isolated" or joined
    to every other vertex (both ways when directed) for "hub"; every pair
    joined for "complete"; no edge between a=v0 and a=v1 for "zero-block";
    each vertex u joined to u + 1, ..., u + r mod n for "circulant", so that
    every vertex has one degree and the classes are the bin pairs."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 41))
    a, b = rng.integers(0, 2, n), rng.integers(0, 3, n)
    p = 1.0 if shape == "complete" else float(rng.uniform(0.15, 0.6))
    edges = [(u, v) for u in range(n) for v in range(n)
             if (u != v if directed else u < v)
             and (rng.random() < p or (shape == "hub" and 0 in (u, v)))
             and not (shape == "isolated" and 0 in (u, v))
             and not (shape == "zero-block" and a[u] != a[v])]
    if shape == "circulant":
        r = int(rng.integers(1, (n - 1) // 2 + 1))
        edges = [(u, (u + j) % n) for u in range(n) for j in range(1, r + 1)]
    if not edges:
        u, v = next((u, v) for u in range(1, n) for v in range(u + 1, n) if a[u] == a[v])
        edges = [(u, v)]
    cols = [AttributeColumn("a", "nominal", [f"v{x}" for x in a]),
            AttributeColumn("b", "nominal", [f"v{x}" for x in b])]
    return AttributedGraph(n, edges, directed=directed, columns=cols)


def _fit_or_error(fit):
    try:
        return fit()
    except FitError as exc:
        return str(exc)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 31 - 1), directed=st.booleans(),
       shape=st.sampled_from(["random", "isolated", "hub", "complete", "zero-block",
                              "circulant"]),
       prior=st.sampled_from(["degree", "blocks", "blocks+degree"]),
       partitions=st.sampled_from([["a"], ["b", "a"]]),
       tol=st.sampled_from([1e-4, 1e-9]), max_iter=st.sampled_from([1, 3, 500]),
       table_cells=st.sampled_from([None, 1, 7, 40]))
def test_fit_matches_per_constraint_reference(seed, directed, shape, prior, partitions, tol,
                                              max_iter, table_cells):
    # the whole-array fit is the per-constraint fit bit for bit: multipliers,
    # classes, fit_info and FitError text; small table budgets split the
    # gamma sums and the convergence check into row chunks of the class grid
    g = _fit_case_graph(seed, shape, directed)
    with_degrees = prior != "blocks"
    if prior == "degree":
        partitions, label = [], "degree"
    else:
        label = "blocks:" + ",".join(partitions) + ("+degree" if with_degrees else "")
    cells = background._TABLE_CELLS if table_cells is None else table_cells
    with patch.object(background, "_TABLE_CELLS", cells):
        if prior == "degree":
            got = _fit_or_error(lambda: fit_degree_prior(g, tol=tol, max_iter=max_iter))
        else:
            got = _fit_or_error(lambda: fit_block_prior(g, partitions, with_degrees=with_degrees,
                                                        tol=tol, max_iter=max_iter))
        want = _fit_or_error(lambda: reference_fit(g, partitions, with_degrees, tol, max_iter,
                                                   label))
    assert type(got) is type(want)
    if isinstance(want, str):
        assert got == want
        return
    assert got.cls.tobytes() == want.cls.tobytes()
    assert got.class_lam_row.tobytes() == want.class_lam_row.tobytes()
    assert got.class_lam_col.tobytes() == want.class_lam_col.tobytes()
    assert [p.gammas.tobytes() for p in got.partitions] == [
        p.gammas.tobytes() for p in want.partitions]
    assert got.fit_info == want.fit_info
    assert json.dumps(got.fit_info) == json.dumps(want.fit_info)


def test_sigmoid_matches_two_branch_formula():
    # bit for bit, NaN signs included, and without a RuntimeWarning
    tiny = np.finfo(np.float64).smallest_subnormal
    edges = [0.0, 30.0, 709.0, 745.0, np.inf, np.nan, tiny, 1e3 * tiny,
             np.finfo(np.float64).tiny, 36.7, 746.0, 1e308]
    special = np.array(edges + [-x for x in edges])
    rng = np.random.default_rng(7)
    batches = [special, rng.permutation(np.repeat(special, 9))]
    batches += [rng.normal(size=1000) * scale for scale in (1e-300, 1e-8, 1.0, 40.0, 800.0)]
    for x in batches:
        got, want = background._sigmoid(x), reference_sigmoid(x)
        assert got.dtype == np.float64 and got.shape == x.shape
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()
