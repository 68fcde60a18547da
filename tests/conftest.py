"""Shared fixtures and independent oracles for the test suite."""

import itertools

import numpy as np
import pytest

from simine import (EMPTY_DESCRIPTION, AttributeColumn, AttributedGraph, Beam, BeamEntry,
                    Description, ScoreConstants, extension, score_bi, score_single)

# 11-vertex example: one numeric attribute plus three binary ones.  The edge
# set is an arbitrary 18-edge layout; tests only rely on the attribute table.
FIG_A = [3.5, 2.6, 3.8, 3.2, 1.8, 1.2, 5.4, 0.9, 6.7, 2.3, 3.1]
FIG_B = [1, 1, 1, 1, 1, 0, 0, 1, 0, 0, 0]
FIG_C = [0, 0, 1, 0, 0, 0, 1, 1, 1, 1, 1]
FIG_D = [1, 0, 1, 1, 1, 0, 0, 0, 0, 1, 0]
FIG_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5),
             (5, 6), (6, 7), (7, 8), (8, 9), (9, 10), (10, 0), (4, 9), (5, 10),
             (6, 8), (2, 7)]


@pytest.fixture
def fig_graph():
    cols = [
        AttributeColumn("a", "numeric", FIG_A),
        AttributeColumn("b", "nominal", [str(x) for x in FIG_B]),
        AttributeColumn("c", "nominal", [str(x) for x in FIG_C]),
        AttributeColumn("d", "nominal", [str(x) for x in FIG_D]),
    ]
    return AttributedGraph(11, FIG_EDGES, columns=cols)


@pytest.fixture
def triangle():
    return AttributedGraph(3, [(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def path4():
    return AttributedGraph(4, [(0, 1), (1, 2), (2, 3)])


@pytest.fixture
def star5():
    return AttributedGraph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])


def random_graph(seed, n=None, p=None, attrs=(("a", 2), ("b", 2), ("c", 2), ("d", 2)),
                 directed=False, numeric=()):
    """Random G(n, p) with random nominal attributes and standard normal
    numeric ones named by ``numeric``; always has an edge."""
    rng = np.random.default_rng(seed)
    n = n or int(rng.integers(12, 41))
    p = p or float(rng.uniform(0.1, 0.4))
    edges = [(u, v) for u in range(n) for v in range(n)
             if (u != v if directed else u < v) and rng.random() < p]
    if not edges:
        edges = [(0, 1)]
    cols = [AttributeColumn(name, "nominal", [f"v{x}" for x in rng.integers(0, k, size=n)])
            for name, k in attrs]
    cols += [AttributeColumn(name, "numeric", rng.normal(size=n)) for name in numeric]
    return AttributedGraph(n, edges, directed=directed, columns=cols)


def dense_probabilities(model, rows, cols):
    """Reference edge probabilities for the rows x cols grid (diagonal
    included), built per vertex from the model's raw multipliers, partition
    bins and update ledger rather than from its class table."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    L = (model.offset + model.class_lam_row[model.cls[rows]][:, None]
         + model.class_lam_col[model.cls[cols]][None, :])
    for part in model.partitions:
        L = L + part.gammas[part.bins[rows][:, None], part.bins[cols][None, :]]
    for upd in model.updates:
        r_in = np.isin(rows, upd.rows)
        c_in = np.isin(cols, upd.cols)
        member = r_in[:, None] & c_in[None, :]
        if not model.directed:
            member |= np.isin(rows, upd.cols)[:, None] & np.isin(cols, upd.rows)[None, :]
        L = L + upd.lam * member
    return np.clip(1.0 / (1.0 + np.exp(-L)), 1e-12, 1.0 - 1e-12)


def table_probabilities(model, rows, cols):
    """The model's own class-table probabilities for the rows x cols grid
    (diagonal included)."""
    return model._class_probs(model.cls[np.asarray(rows, dtype=np.int64)],
                              model.cls[np.asarray(cols, dtype=np.int64)])


def dense_pair_sums(model, rows, cols):
    """Reference for ``BackgroundModel.pair_sums`` by summing the dense grid."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    P = dense_probabilities(model, rows, cols)
    ordered = float(P[rows[:, None] != cols[None, :]].sum())
    if model.directed:
        return ordered, 0.0
    common = np.intersect1d(rows, cols)
    Q = dense_probabilities(model, common, common)
    return ordered, float(Q[common[:, None] != common[None, :]].sum())


def class_histograms(model, masks):
    """Class histograms (float) of many vertex sets, one per row of the
    (C, n) boolean array ``masks``, from bool rows gathered in class order:
    the reference for the nested search's packed class counts."""
    order, starts = model.class_order()
    return np.add.reduceat(masks[:, order], starts, axis=1).astype(np.float64)


def screen_pairs(screen, masks1, masks2, pi, pj, lengths):
    """The nested search's screen ``screen`` over the pairs (W1 ``pi[k]`` of
    ``masks1``, W2 ``pj[k]`` of ``masks2``), called as the search calls it, a
    chunk of ``w1_step`` W1s at a time: ``(si, bound, edges, inside)`` of
    ``scores`` and ``(h1, h2, h_o)`` of ``histograms``, one entry per pair."""
    parts, at = [], []
    for i0 in range(0, len(masks1), screen.w1_step):
        sel = np.flatnonzero((pi >= i0) & (pi < i0 + screen.w1_step))
        if sel.size:
            rows1 = screen.w1_rows(masks1[i0:i0 + screen.w1_step])
            parts.append(screen.scores(rows1, masks2, pi[sel] - i0, pj[sel], lengths[sel])
                         + screen.histograms(rows1, masks2, pi[sel] - i0, pj[sel]))
            at.append(sel)
    at = np.concatenate(at)
    out = []
    for k in range(len(parts[0])):
        got = np.concatenate([part[k] for part in parts])
        out.append(np.empty_like(got))
        out[-1][at] = got
    return out


def distinct_pairs(rows, cols, directed):
    """Every distinct vertex pair spanned by two vertex sets, listed once."""
    pairs = {(int(u), int(v)) if directed else (min(int(u), int(v)), max(int(u), int(v)))
             for u in rows for v in cols if u != v}
    return sorted(pairs)


def brute_force_counts(g, mask1, mask2, convention):
    """Pair and edge counts of the pattern (W1, W2) by enumerating vertex
    pairs: ``pair_slots`` distinct pairs and ``edges`` of them joined by an
    edge; ``n_w`` and ``k_w`` the same over ordered pairs (u in W1, v in W2)
    in the ordered convention."""
    edge_set = {(int(u), int(v)) for u, v in g.edges}
    if not g.directed:
        edge_set |= {(v, u) for u, v in edge_set}
    ids1, ids2 = np.flatnonzero(mask1), np.flatnonzero(mask2)
    slots = distinct_pairs(ids1, ids2, g.directed)
    edges = sum(pair in edge_set for pair in slots)
    if convention == "ordered":
        ordered = [(int(u), int(v)) for u in ids1 for v in ids2 if u != v]
        n_w, k_w = len(ordered), sum(pair in edge_set for pair in ordered)
    else:
        n_w, k_w = len(slots), edges
    return {"n_w": n_w, "k_w": k_w, "edges": edges, "pair_slots": len(slots)}


def enumerate_descriptions(g, selectors, max_len, min_size):
    """All canonical descriptions up to max_len selectors, one per attribute."""
    out = []
    for r in range(1, max_len + 1):
        for combo in itertools.combinations(selectors, r):
            if len({s.attribute for s in combo}) < r:
                continue
            d = Description(tuple(combo))
            m = extension(d, g)
            if int(m.sum()) >= min_size:
                out.append((d, m))
    return out


def exhaustive_best_single(g, model, selectors, depth, constants=None):
    """Brute-force SI argmax over all single-subgroup candidates."""
    c = constants or ScoreConstants()
    best = None
    for d, m in enumerate_descriptions(g, selectors, depth, 2):
        pat = score_single(g, model, d, m, c)
        if pat is not None and (best is None or pat.sort_key() < best.sort_key()):
            best = pat
    return best


def exhaustive_best_bi(g, model, selectors, depth, constants=None):
    """Brute-force SI argmax over all bi-subgroup candidate pairs."""
    c = constants or ScoreConstants()
    descs = enumerate_descriptions(g, selectors, depth, 1)
    best = None
    for d1, m1 in descs:
        for d2, m2 in descs:
            pat = score_bi(g, model, d1, m1, d2, m2, c)
            if pat is not None and (best is None or pat.sort_key() < best.sort_key()):
                best = pat
    return best


def _reference_constraints_ok(z1, z2, mask1, mask2, cfg):
    if cfg.require_shared_attribute:
        sel1 = {s.attribute: s for s in z1.selectors}
        if not any(s.attribute in sel1 and sel1[s.attribute] != s for s in z2.selectors):
            return False
    if cfg.require_disjoint_extensions and bool(np.any(mask1 & mask2)):
        return False
    return True


def _reference_expand(g, selectors, min_size, desc, mask, size, seen):
    """The admissible refinements of one description not in ``seen`` yet,
    as ``(description, extension, size)``; each joins ``seen``."""
    out = []
    for sel in selectors:
        if sel.attribute in desc.attributes:
            continue
        child = desc.with_selector(sel)
        if str(child) in seen:
            continue
        cmask = mask & extension(Description((sel,)), g)
        csize = int(np.count_nonzero(cmask))
        if csize < min_size or csize == size:
            continue
        seen.add(str(child))
        out.append((child, cmask, csize))
    return out


def reference_beam_search_single(g, model, selectors, cfg):
    """The single-subgroup beam search with every candidate scored by
    ``score_single`` and offered to the beam, one at a time: the plainly
    correct reference for the screened search."""
    min_size = max(2, cfg.min_extension_size)
    rows = [(EMPTY_DESCRIPTION, np.ones(g.n, dtype=bool), g.n)]
    collected = {}
    for _ in range(cfg.depth):
        beam, seen = Beam(cfg.beam_width), set()
        for row in rows:
            for w, m, s in _reference_expand(g, selectors, min_size, *row, seen):
                pat = score_single(g, model, w, m, cfg.constants)
                if pat is not None:
                    beam.try_add(BeamEntry(pat.sort_key(), str(w), group=str(w),
                                           payload=(pat, m, s)))
        if not len(beam):
            break
        rows = [(e.payload[0].w1, e.payload[1], e.payload[2]) for e in beam]
        for e in beam:
            collected.setdefault(e.ident, e.payload[0])
    return sorted(collected.values(), key=lambda p: p.sort_key())


def reference_nested_beam_search(g, model, selectors, cfg):
    """The nested bi-subgroup beam search with every inner candidate scored
    by ``score_bi`` and offered to the inner beam, one at a time: the plainly
    correct reference for the screened search."""
    def expand(desc, mask, size, seen):
        return _reference_expand(g, selectors, min_size, desc, mask, size, seen)

    def inner_search(z1, m1):
        inner = Beam(cfg.x2)
        rows = [(EMPTY_DESCRIPTION, full, g.n)]
        for _ in range(cfg.depth):
            seen = set()
            cands = [c for row in rows for c in expand(*row, seen)]
            for z2, m2, s2 in cands:
                if not _reference_constraints_ok(z1, z2, m1, m2, cfg):
                    continue
                pat = score_bi(g, model, z1, m1, z2, m2, cfg.constants)
                if pat is not None:
                    inner.try_add(BeamEntry(pat.sort_key(), str(z2), group=str(z2),
                                            payload=(pat, m2, s2)))
            rows = [(e.payload[0].w2, e.payload[1], e.payload[2]) for e in inner]
        return [e.payload[0] for e in inner]

    min_size = max(1, cfg.min_extension_size)
    full = np.ones(g.n, dtype=bool)
    outer = Beam(cfg.x1 * cfg.x2, diversity_floor=cfg.x1)
    w1_rows = {}
    for depth in range(cfg.depth):
        frontier = [(EMPTY_DESCRIPTION, full, g.n)]
        if depth:
            named = dict.fromkeys(str(e.payload.w1) for e in outer.entries)
            frontier = [w1_rows[ident] for ident in named]
        seen1 = set()
        for row in frontier:
            for z1, m1, s1 in expand(*row, seen1):
                w1_rows.setdefault(str(z1), (z1, m1, s1))
                for pat in inner_search(z1, m1):
                    outer.try_add(BeamEntry(pat.sort_key(), pat.render(),
                                            group=str(pat.w1), payload=pat))
    return [e.payload for e in outer.entries]


def exact_tail_probability(pair_probs, k, side="at_least"):
    """Exact Poisson-binomial tail by dynamic programming, the oracle the
    Chernoff bound is checked against.

    ``side`` is "at_least" for P[X >= k] or "at_most" for P[X <= k].
    Limited to 25 trials.
    """
    probs = np.asarray(pair_probs, dtype=np.float64)
    if probs.size > 25:
        raise ValueError("exact tail oracle is limited to 25 pair probabilities")
    if np.any((probs < 0) | (probs > 1)):
        raise ValueError("probabilities must lie in [0, 1]")
    pmf = np.array([1.0])
    for p in probs:
        nxt = np.zeros(pmf.size + 1)
        nxt[:-1] = pmf * (1.0 - p)
        nxt[1:] += pmf * p
        pmf = nxt
    if side == "at_least":
        return float(pmf[max(k, 0):].sum())
    if side == "at_most":
        return float(pmf[:k + 1].sum()) if k >= 0 else 0.0
    raise ValueError(f"unknown side {side!r}")


def brute_force_tail(probs, k, side):
    """Tail probability by explicit enumeration of all 2^n outcomes."""
    total = 0.0
    n = len(probs)
    for bits in itertools.product((0, 1), repeat=n):
        cnt = sum(bits)
        if (side == "at_least" and cnt >= k) or (side == "at_most" and cnt <= k):
            pr = 1.0
            for b, p in zip(bits, probs):
                pr *= p if b else (1.0 - p)
            total += pr
    return total


def write_dataset(tmp_path, edge_lines, attr_lines, prefix="data"):
    edge_path = tmp_path / f"{prefix}.edges"
    attr_path = tmp_path / f"{prefix}.csv"
    edge_path.write_text("\n".join(edge_lines) + "\n", encoding="utf-8")
    attr_path.write_text("\n".join(attr_lines) + "\n", encoding="utf-8")
    return str(edge_path), str(attr_path)
