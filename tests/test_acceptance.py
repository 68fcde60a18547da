"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or ``-v``)
and asserts the criterion.  Run via ``pytest tests/test_acceptance.py -v``.
"""

import math
import time

import numpy as np
import pytest

from simine import (AttributedGraph, PlantedBlock, ScoreConstants, SearchConfig,
                    SynthConfig, baseline_search, beam_search_single,
                    block_mean_probability, fit_degree_prior, generate_selectors,
                    generate_synthetic, iterate, kl_bernoulli, nested_beam_search,
                    rescore, score_single_counts, update_with_pattern)

from conftest import (dense_probabilities, exact_tail_probability, exhaustive_best_bi,
                      exhaustive_best_single, random_graph, table_probabilities)


def report(name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'} {name} {detail}".rstrip())
    assert ok, f"{name} failed: {detail}"


def test_criterion_1_printed_si_rows():
    """SI from printed row counts matches the published values within 1%."""
    t0 = time.perf_counter()
    row1 = score_single_counts(size=78, edges=96, expected_edges=8.929)
    row2 = score_single_counts(size=165, edges=220, expected_edges=60.040)
    err1 = abs(row1["si"] - 355.533) / 355.533
    err2 = abs(row2["si"] - 316.725) / 316.725
    dt = time.perf_counter() - t0
    report("criterion-1 printed-SI-reproduction",
           err1 <= 0.01 and err2 <= 0.01,
           f"si1={row1['si']:.3f} (err {err1:.2e}), si2={row2['si']:.3f} "
           f"(err {err2:.2e}), {dt * 1000:.1f} ms")


def _circulant(n, offsets):
    edges = set()
    for u in range(n):
        for d in offsets:
            v = (u + d) % n
            edges.add((min(u, v), max(u, v)))
    return AttributedGraph(n, sorted(edges))


def test_criterion_2_degree_prior_calibration():
    """Expected degrees within 1e-4 on 50 random graphs; k-regular uniform."""
    rng = np.random.default_rng(20)
    worst = 0.0
    for trial in range(50):
        n = int(rng.integers(20, 301))
        p = float(rng.uniform(0.03, 0.3))
        g = random_graph(int(rng.integers(0, 2 ** 31)), n=n, p=p)
        model = fit_degree_prior(g)  # default tol 1e-4
        ids = np.arange(g.n)
        probs = dense_probabilities(model, ids, ids)
        np.fill_diagonal(probs, 0.0)
        worst = max(worst, float(np.max(np.abs(probs.sum(axis=1) - g.degrees()))))
    ok_random = worst <= 1e-4

    worst_reg = 0.0
    regs = [(_circulant(50, [1]), 2), (_circulant(30, [1, 2]), 4),
            (_circulant(21, [1, 2, 3]), 6),
            (AttributedGraph(8, [(u, v) for u in range(8)
                                 for v in range(u + 1, 8)]), 7)]
    for g, k in regs:
        model = fit_degree_prior(g, tol=1e-8, max_iter=2000)
        target = k / (g.n - 1)
        ids = np.arange(g.n)
        probs = dense_probabilities(model, ids, ids)
        np.fill_diagonal(probs, target)
        worst_reg = max(worst_reg, float(np.max(np.abs(probs - target))))
    report("criterion-2 degree-prior-calibration",
           ok_random and worst_reg <= 1e-6,
           f"worst residual {worst:.2e} (tol 1e-4), "
           f"worst regular deviation {worst_reg:.2e} (tol 1e-6)")


class _Pat:
    def __init__(self, ext1, ext2, edges):
        self.ext1_ids = np.asarray(ext1)
        self.ext2_ids = np.asarray(ext2)
        self.edges = edges


def test_criterion_3_i_projection():
    """Calibration to 1e-6*max(1, n_w), exact locality, idempotent re-absorb."""
    rng = np.random.default_rng(30)
    ok = True
    details = []
    for trial in range(5):
        g = random_graph(int(rng.integers(0, 2 ** 31)), n=50)
        model = fit_degree_prior(g)
        a = rng.choice(g.n, size=14, replace=False)
        b = rng.choice(g.n, size=18, replace=False)
        base_p, n_w = block_mean_probability(model, a, b)
        k = int(rng.integers(0, n_w // 2)) + 1
        pat = _Pat(a, b, k)
        m2 = update_with_pattern(model, pat)
        p2, _ = block_mean_probability(m2, a, b)
        calibrated = abs(p2 * n_w - k) <= 1e-6 * max(1, n_w)
        outside = [u for u in range(g.n) if u not in set(a) | set(b)]
        us, vs = outside[:-1], outside[1:]
        local = np.array_equal(table_probabilities(model, us, vs).diagonal(),
                               table_probabilities(m2, us, vs).diagonal())
        m3 = update_with_pattern(m2, pat)
        lam_zero = m3.updates[-1].lam == 0.0
        ok = ok and calibrated and local and lam_zero
        details.append(f"t{trial}: cal={calibrated} local={local} lam0={lam_zero}")
    # re-absorbing a mined pattern drops its SI below 1e-6
    g = random_graph(77, n=60)
    model = fit_degree_prior(g)
    sels = generate_selectors(g)
    pats = nested_beam_search(g, model, sels, SearchConfig(x1=3, x2=2, depth=2))
    m2 = update_with_pattern(model, pats[0])
    si_after = rescore(g, m2, pats[0].w1, pats[0].w2, ScoreConstants()).si
    ok = ok and si_after < 1e-6
    report("criterion-3 i-projection", ok,
           f"{'; '.join(details)}; si-after-absorb {si_after:.2e}")


def test_criterion_4_bound_validity():
    """Chernoff bound dominates the exact Poisson-binomial tail, pointwise."""
    rng = np.random.default_rng(40)
    violations = 0
    for _ in range(1000):
        n = int(rng.integers(1, 21))
        probs = rng.uniform(0.01, 0.99, size=n)
        k = int(rng.integers(0, n + 1))
        p_w = float(probs.mean())
        bound = math.exp(-n * kl_bernoulli(k / n, p_w))
        side = "at_least" if k / n >= p_w else "at_most"
        tail = exact_tail_probability(probs, k, side)
        if bound < tail - 1e-12:
            violations += 1
    report("criterion-4 bound-validity", violations == 0,
           f"{violations} violations in 1000 random blocks")


def test_criterion_5_search_oracle_equivalence():
    """Both searches return the exhaustive SI argmax on 20 tiny instances."""
    ok_single = ok_bi = 0
    for seed in range(20):
        g = random_graph(seed, n=int(12 + (seed * 13) % 29))
        model = fit_degree_prior(g, tol=1e-6)
        sels = generate_selectors(g)
        assert len(sels) <= 8
        best_s = exhaustive_best_single(g, model, sels, depth=2)
        got_s = beam_search_single(g, model, sels,
                                   SearchConfig(beam_width=200, depth=2))
        if best_s is not None and got_s and got_s[0].sort_key() == best_s.sort_key():
            ok_single += 1
        best_b = exhaustive_best_bi(g, model, sels, depth=2)
        got_b = nested_beam_search(g, model, sels,
                                   SearchConfig(x1=len(sels), x2=100, depth=2))
        if got_b and got_b[0].sort_key() == best_b.sort_key():
            ok_bi += 1
    report("criterion-5 search-oracle-equivalence",
           ok_single == 20 and ok_bi == 20,
           f"single {ok_single}/20, nested {ok_bi}/20")


def _planted_cfg(seed, blocks):
    return SynthConfig(n=400, background_density=0.02, blocks=blocks,
                       noise_attrs=2, noise_values=3, seed=seed)


def _matches_block(pat, block):
    s1, s2 = set(block["side1_ids"]), set(block["side2_ids"])
    e1, e2 = set(pat.ext1_ids.tolist()), set(pat.ext2_ids.tolist())
    return (e1 == s1 and e2 == s2) or (e1 == s2 and e2 == s1)


def test_criterion_6_planted_pattern_recovery():
    """Top pattern equals the planted block in >= 9/10 seeds; iterate
    recovers the second block after absorbing the first in >= 8/10."""
    hits = 0
    for seed in range(10):
        g, man = generate_synthetic(_planted_cfg(
            seed, [PlantedBlock("grp", "g1", 50, "grp", "g2", 50, 0.3)]))
        model = fit_degree_prior(g)
        sels = generate_selectors(g)
        pats = nested_beam_search(g, model, sels, SearchConfig(x1=4, x2=3, depth=2))
        if pats and _matches_block(pats[0], man["blocks"][0]):
            hits += 1
    two_hits = 0
    for seed in range(10):
        g, man = generate_synthetic(_planted_cfg(
            seed, [PlantedBlock("grp", "g1", 50, "grp", "g2", 50, 0.4),
                   PlantedBlock("grp", "h1", 50, "grp", "h2", 50, 0.3)]))
        model = fit_degree_prior(g)
        sels = generate_selectors(g)
        res = iterate(g, model, sels, SearchConfig(x1=4, x2=3, depth=2),
                      rounds=2, absorb=1)
        if (len(res.rounds) == 2
                and _matches_block(res.rounds[0][0], man["blocks"][0])
                and _matches_block(res.rounds[1][0], man["blocks"][1])):
            two_hits += 1
    report("criterion-6 planted-pattern-recovery",
           hits >= 9 and two_hits >= 8,
           f"single-block {hits}/10 (need 9), two-block iterate {two_hits}/10 (need 8)")


def test_criterion_7_baseline_bias():
    """Edge density returns only (2,1) patterns; Pool tracks edge surplus at
    alpha=1/6; the inverse-conductance optimum has zero inter-edges."""
    cfg = SynthConfig(n=200, background_density=0.0,
                      blocks=[PlantedBlock("blk", "1", 50, "blk", "1", 50, 0.4),
                              PlantedBlock("blk", "0", 150, "blk", "0", 150, 0.05)],
                      noise_attrs=2, noise_values=3, pair_tags=12, seed=3)
    g, _ = generate_synthetic(cfg)
    sels = generate_selectors(g)
    sc = SearchConfig(beam_width=20, depth=2)

    dens = baseline_search(g, sels, sc, "edge_density")
    shape_ok = all(r.size == 2 and r.edges == 1 for r in dens[:10])

    pool = baseline_search(g, sels, sc, "pool")
    surplus = baseline_search(g, sels, sc, "edge_surplus", edge_surplus_alpha=1 / 6)
    rank_ok = [str(r.w) for r in pool] == [str(r.w) for r in surplus]

    cond = baseline_search(g, sels, sc, "inv_conductance")
    cond_ok = cond[0].inter_edges == 0 and cond[0].value == math.inf

    report("criterion-7 baseline-bias",
           shape_ok and rank_ok and cond_ok,
           f"density-shape={shape_ok} pool-vs-surplus={rank_ok} "
           f"conductance-zero-inter={cond_ok}")


def test_criterion_8_scaling():
    """Mining wall time grows by <= 2.5x per doubling of |S|."""
    cfg = SynthConfig(n=1000, background_density=0.02,
                      blocks=[PlantedBlock("grp", "g1", 60, "grp", "g2", 60, 0.25)],
                      noise_attrs=40, noise_values=10, seed=7)
    g, _ = generate_synthetic(cfg)
    model = fit_degree_prior(g)
    sels = generate_selectors(g)
    assert len(sels) >= 400
    sc = SearchConfig(beam_width=20, depth=2)
    beam_search_single(g, model, sels[:50], sc)  # warm-up
    # two samples per size, taken in two interleaved rounds over the sizes,
    # so that a slow spell of the host slows every size alike
    sizes = (50, 100, 200, 400)
    times = [math.inf] * len(sizes)
    for _ in range(2):
        for i, size in enumerate(sizes):
            t0 = time.perf_counter()
            beam_search_single(g, model, sels[:size], sc)
            times[i] = min(times[i], time.perf_counter() - t0)
    ratios = [b / a for a, b in zip(times, times[1:])]
    report("criterion-8 scaling", all(r <= 2.5 for r in ratios),
           "times " + ", ".join(f"{t:.2f}s" for t in times)
           + "; ratios " + ", ".join(f"{r:.2f}" for r in ratios))
