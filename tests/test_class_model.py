"""The class-table background model against the dense per-vertex reference."""

from unittest import mock

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from simine import (FitError, block_mean_probability, fit_block_prior,
                    fit_degree_prior, update_with_pattern)
from simine import background

from conftest import (dense_pair_sums, dense_probabilities, distinct_pairs,
                      random_graph, table_probabilities)

RTOL = 1e-9


class _Pat:
    def __init__(self, ext1, ext2, edges):
        self.ext1_ids = ext1
        self.ext2_ids = ext2
        self.edges = edges


def _close(got, ref):
    return abs(got - ref) <= RTOL * abs(ref)


def _vertex_set(rng, n, base=None):
    """A random vertex set; with ``base``, one that overlaps it."""
    size = int(rng.integers(1, n // 2 + 1))
    ids = rng.choice(n, size=size, replace=False)
    if base is not None and rng.random() < 0.7:
        ids = np.union1d(ids, base[:int(rng.integers(1, base.size + 1))])
    return np.sort(ids)


def _check_fit(g, model, tol):
    """Expected degrees and block counts from the dense grid match the graph
    for every multiplier not pinned at the clamp."""
    ids = np.arange(g.n)
    P = dense_probabilities(model, ids, ids)
    np.fill_diagonal(P, 0.0)
    if "degree" in model.prior:
        free_r = np.abs(model.class_lam_row[model.cls]) < background.LOGIT_CLAMP
        free_c = np.abs(model.class_lam_col[model.cls]) < background.LOGIT_CLAMP
        if g.directed:
            assert np.all(np.abs(P.sum(1) - g.out_degrees())[free_r] <= tol)
            assert np.all(np.abs(P.sum(0) - g.in_degrees())[free_c] <= tol)
        else:
            assert np.all(np.abs(P.sum(1) - g.degrees())[free_r] <= tol)
    for part in model.partitions:
        for b1 in range(part.n_bins):
            for b2 in range(part.n_bins):
                if abs(part.gammas[b1, b2]) >= background.LOGIT_CLAMP:
                    continue
                i1, i2 = np.flatnonzero(part.bins == b1), np.flatnonzero(part.bins == b2)
                exp = P[np.ix_(i1, i2)].sum()
                obs = g.count_edges_between(g.as_mask(i1), g.as_mask(i2))
                if not g.directed and b1 == b2:
                    exp /= 2.0
                assert abs(exp - obs) <= tol


def _check_reads(model, rng):
    n = model.n
    ids = np.arange(n)
    assert np.allclose(table_probabilities(model, ids, ids),
                       dense_probabilities(model, ids, ids), rtol=1e-12, atol=0.0)
    for _ in range(4):
        rows = _vertex_set(rng, n)
        cols = rows if rng.random() < 0.3 else _vertex_set(rng, n, base=rows)
        got, ref = model.pair_sums(rows, cols), dense_pair_sums(model, rows, cols)
        assert _close(got[0], ref[0]) and _close(got[1], ref[1]), (got, ref)
        if not model.directed:
            assert model.pair_sums(cols, rows) == got  # mirrored patterns tie exactly
        pairs = distinct_pairs(rows, cols, model.directed)
        if not pairs:
            continue
        p_w, n_w = block_mean_probability(model, rows, cols)
        us, vs = np.array(pairs).T
        ref_total = dense_probabilities(model, us, vs).diagonal().sum()
        assert n_w == len(pairs) and _close(p_w * n_w, ref_total)


def _absorb_and_check(model, rng):
    """Absorb a random (possibly self-overlapping) pattern, sometimes with no
    edge or with every pair an edge.  Its dense expected count must equal the
    observed count; where the multiplier is clamped, it must stay on the
    observed count's side: at least observed at -30, at most at +30."""
    rows = _vertex_set(rng, model.n)
    single = rng.random() < 0.25
    cols = None if single else _vertex_set(rng, model.n, base=rows)
    pairs = distinct_pairs(rows, rows if single else cols, model.directed)
    if not pairs:
        return model
    draw = rng.random()
    if draw < 0.15:
        observed = 0
    elif draw < 0.3:
        observed = len(pairs)
    else:
        observed = int(rng.integers(1, len(pairs))) if len(pairs) > 1 else 1
    updated = update_with_pattern(model, _Pat(rows, cols, observed))
    upd = updated.updates[-1]
    assert upd.n_pairs == len(pairs)
    us, vs = np.array(pairs).T
    expected = dense_probabilities(updated, us, vs).diagonal().sum()
    if upd.lam == -background.LOGIT_CLAMP:
        assert expected >= observed, (expected, observed)
    elif upd.lam == background.LOGIT_CLAMP:
        assert expected <= observed, (expected, observed)
    elif 0 < observed < len(pairs):
        assert _close(expected, observed), (expected, observed)
    else:
        # an end count is only reached at a clamp, or already within the
        # calibration tolerance with no shift at all
        assert upd.lam == 0.0 and abs(expected - observed) <= 1e-9 * len(pairs)
    return updated


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 31 - 1), directed=st.booleans(),
       prior=st.sampled_from(["degree", "blocks", "blocks+degree"]),
       n_updates=st.integers(0, 3), small_table=st.booleans())
def test_class_model_matches_dense_reference(seed, directed, prior, n_updates, small_table):
    """Fit, pair sums, block means and stacked absorptions agree with the
    dense per-vertex grid, with the full class table and with chunked
    sub-tables (a table budget too small for any K > 1)."""
    rng = np.random.default_rng(seed)
    g = random_graph(seed, n=int(rng.integers(8, 26)), directed=directed,
                     attrs=(("a", 3), ("b", 2)))
    tol = 1e-6
    with mock.patch.object(background, "_TABLE_CELLS", 3 if small_table else 2_000_000):
        try:
            if prior == "degree":
                model = fit_degree_prior(g, tol=tol)
            else:
                model = fit_block_prior(g, ["a"], with_degrees=prior.endswith("degree"),
                                        tol=tol)
        except FitError:
            # a few tiny graphs have degree and block targets with no finite
            # solution; the fit reports that, and there is no model to compare
            assume(False)
        assert model.fit_info["classes"] == model.n_classes
        _check_fit(g, model, tol * (1 + 1e-6))
        _check_reads(model, rng)
        for _ in range(n_updates):
            model = _absorb_and_check(model, rng)
            _check_reads(model, rng)
