"""Shared fixtures and independent oracles for the test suite."""

import csv
import itertools
import logging
from bisect import insort
from collections import Counter
from dataclasses import dataclass

import numpy as np
import pytest

from simine import (EMPTY_DESCRIPTION, AttributeColumn, AttributedGraph, Description,
                    EqualsSelector, GraphFormatError, LoadOptions, ScoreConstants, extension,
                    search, update_with_pattern)
from simine.background import (LOGIT_CLAMP, BackgroundModel, FitError, PartitionGammas,
                               _logit, _partition_bins)
from simine.graph import NOMINAL, NUMERIC
from simine.scores import _score_masks, pair_counts
from simine.search import _screen_si

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


def dense_probabilities(model, rows, cols, clip=True):
    """Reference edge probabilities for the rows x cols grid (diagonal
    included), built per vertex from the model's raw multipliers, partition
    bins and update ledger rather than from its class table.  They are
    clipped to [1e-12, 1 - 1e-12] as the table's are, unless ``clip`` is
    False: the fit's constraints are on the sigmoid itself."""
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
    P = 1.0 / (1.0 + np.exp(-L))
    return np.clip(P, 1e-12, 1.0 - 1e-12) if clip else P


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
    the reference for the packed class counts of the searches' rows."""
    order, starts = model.class_order()
    return np.add.reduceat(masks[:, order], starts, axis=1).astype(np.float64)


def refiner_rows(g, model, masks):
    """A ``search._Refiner`` under ``model`` of a copy of ``g`` with one
    selector per row of the (C, n) boolean array ``masks``, whose extension
    that row is, and the refiner's rows of those selectors, one per mask."""
    cols = [AttributeColumn(f"s{i}", "nominal", ["in" if b else "out" for b in mask])
            for i, mask in enumerate(masks)]
    copy = AttributedGraph(g.n, g.edges.tolist(), directed=g.directed, columns=cols)
    refiner = search._Refiner(copy, model, [EqualsSelector(f"s{i}", "in")
                                            for i in range(len(masks))], 1)
    return refiner, refiner.rows


def screen_pairs(screen, rows1, rows2, pi, pj, lengths):
    """The nested search's screen ``screen`` over the pairs (W1 ``pi[k]`` of
    the refiner rows ``rows1``, W2 ``pj[k]`` of ``rows2``), called as the
    search calls it, a chunk of ``w1_step`` W1s at a time: ``(si, bound,
    edges, inside)`` of ``scores`` and the class histograms ``(h1, h2, h_o)``
    that ``score_bi`` gets, one entry per pair."""
    H2 = screen.refiner.class_counts(rows2)
    w2 = rows2, H2, H2.sum(axis=1)
    parts, at = [], []
    for i0 in range(0, len(rows1), screen.w1_step):
        sel = np.flatnonzero((pi >= i0) & (pi < i0 + screen.w1_step))
        if sel.size:
            chunk = screen.w1_rows(rows1[i0:i0 + screen.w1_step])
            parts.append(screen.scores(chunk, w2, pi[sel] - i0, pj[sel], lengths[sel])
                         + (chunk[2][pi[sel] - i0], H2[pj[sel]],
                            screen.overlaps(chunk, rows2, pi[sel] - i0, pj[sel])))
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
        pat = _score_masks(g, model, d, m, None, m, c)
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
            pat = _score_masks(g, model, d1, m1, d2, m2, c)
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


def _reference_refinements(g, selectors, min_size, desc, mask, size, seen):
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


def reference_expand(refiner, groups, admit=None, seen=None):
    """``search._Refiner.expand`` one child at a time: per group (a list of
    parent nodes), each parent's admissible refinements in selector order,
    from the packed rows of ``refiner``, skipping keys in ``seen`` or taken
    earlier in the group; a child that ``admit`` (a bool row per group over
    the selectors, or None) rejects still takes its key.  Children with
    equal keys share one row, the rows in the order their keys first
    appear.  Returns ``(children, rows, sizes, seen)``: per child ``(group,
    position of its parent among the groups' parents, selector position,
    key, row)``, the rows, the size of each row's set, and ``seen`` plus
    every key a group took."""
    children, rows, sizes, row_of = [], [], [], {}
    taken_by_all = set(seen or ())
    at = 0
    for w, parents in enumerate(groups):
        taken = set(seen or ())
        for parent in parents:
            used = {refiner.selectors[i].attribute for i in parent.sels}
            for j, sel in enumerate(refiner.selectors):
                if sel.attribute in used:
                    continue
                row = parent.row & refiner.rows[j]
                size = int(np.count_nonzero(refiner.unpack(row)))
                if size < refiner.min_size or size == parent.size:
                    continue
                key = tuple(sorted(refiner.rid[i] for i in parent.sels + (j,)))
                if key in taken:
                    continue
                taken.add(key)
                if admit is not None and not any(admit[w][i] for i in parent.sels + (j,)):
                    continue
                if key not in row_of:
                    row_of[key] = len(rows)
                    rows.append(row)
                    sizes.append(size)
                children.append((w, at, j, key, row_of[key]))
            at += 1
        taken_by_all |= taken
    width = refiner.root.row.size
    return children, np.array(rows, dtype="<u8").reshape(-1, width), sizes, taken_by_all


def reference_contenders(si, bound, kept, width):
    """The contender cut of one beam of ``width`` already holding entries of
    exact SIs ``kept``, for screened candidates of SIs ``si`` within
    ``bound``: positions of the finite ones whose upper bound reaches the
    ``width``-th best lower bound among them and the kept entries."""
    finite = np.isfinite(si)
    lower = np.concatenate([(si - bound)[finite], kept])
    cut = -np.inf
    if lower.size >= width:
        cut = np.partition(lower, lower.size - width)[lower.size - width]
    return np.flatnonzero(finite & (si + bound >= cut))


def reference_w1_planes(g, refiner, masks):
    """The bit planes ``_BiScreen.w1_rows`` gives the vertex sets ``masks``
    (bool rows in vertex order), from the dense adjacency matrix: plane b
    of a set holds bit b of each vertex's number of edges from the set into
    it (either way when undirected), in class order, packed as the
    refiner packs its rows."""
    A = np.zeros((g.n, g.n), dtype=np.int64)
    np.add.at(A, (g.edges[:, 0], g.edges[:, 1]), 1)
    if not g.directed:
        A += A.T
    D = (masks.astype(np.int64) @ A)[:, np.argsort(refiner.pos)]
    planes = np.zeros((len(masks), int(D.max(initial=0)).bit_length(), 8 * refiner.words),
                      dtype=np.uint8)
    for b in range(planes.shape[1]):
        packed = np.packbits((D >> b) & 1, axis=-1, bitorder="little")
        planes[:, b, :packed.shape[-1]] = packed
    return planes.view("<u8")


@dataclass
class BeamEntry:
    key: object  # ordered by <
    ident: object  # a beam holds one entry per ident
    group: object
    payload: object

    def __lt__(self, other):
        return self.key < other.key


class Beam:
    """Bounded best-first container with an optional W1-diversity floor.

    Entries stay sorted best-first.  When full, a candidate replaces the
    worst entry it beats, except that an eviction may never drop the number
    of distinct groups below the floor; in that case the worst entry of an
    over-represented group is the replacement target.  A candidate with a
    brand-new group is force-inserted while the floor is unmet.
    """

    def __init__(self, capacity: int, diversity_floor: int | None = None):
        if diversity_floor is not None and capacity < diversity_floor:
            raise ValueError("capacity must be at least the diversity floor")
        self.capacity = capacity
        self.floor = diversity_floor
        self.entries: list[BeamEntry] = []
        self._present: set = set()
        self._group_counts: dict = {}

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def distinct_groups(self) -> int:
        return len(self._group_counts)

    def _insert(self, entry):
        insort(self.entries, entry)
        self._present.add(entry.ident)
        self._group_counts[entry.group] = self._group_counts.get(entry.group, 0) + 1

    def _evict(self, entry):
        self.entries.remove(entry)
        self._present.discard(entry.ident)
        cnt = self._group_counts[entry.group] - 1
        if cnt:
            self._group_counts[entry.group] = cnt
        else:
            del self._group_counts[entry.group]

    def try_add(self, entry: BeamEntry) -> bool:
        if entry.ident in self._present:
            return False
        if len(self.entries) < self.capacity:
            self._insert(entry)
            return True
        groups = self._group_counts
        if (self.floor is not None and entry.group not in groups
                and len(groups) < self.floor):
            # diversity floor unmet: force the new group in by evicting the
            # worst entry of an over-represented group
            victim = next(e for e in reversed(self.entries) if groups[e.group] >= 2)
            self._evict(victim)
            self._insert(entry)
            return True
        victim = None
        for e in reversed(self.entries):
            if self._eviction_keeps_floor(e, entry):
                victim = e
                break
        if victim is None or not entry.key < victim.key:
            return False
        self._evict(victim)
        self._insert(entry)
        return True

    def _eviction_keeps_floor(self, victim, entry):
        if self.floor is None:
            return True
        if entry.group not in self._group_counts:
            return True  # eviction is at worst neutral for diversity
        if victim.group == entry.group or self._group_counts[victim.group] >= 2:
            return True
        return len(self._group_counts) - 1 >= self.floor


def outer_selection(chunks, floor, width):
    """What the nested search's outer beam (``search._select``) of
    ``width`` under a diversity floor of ``floor`` holds after each of
    ``chunks``, lists of offers ``(si, length, text, ident, group)`` taken a
    chunk at a time: its idents, best first.  An offer ranks by SI
    descending, then length, then text; its group stands for its W1 and its
    ident for its (W1, W2) pair.  Idents and groups are ints or strings."""
    ids, texts = {}, {o[3]: o[2] for chunk in chunks for o in chunk}

    def entries(offers):
        si, length, _, ident, group = zip(*offers) if offers else ((),) * 5
        return search._Entries(
            np.array(si, dtype=np.float64), np.array(length, dtype=np.int64),
            np.array([ids.setdefault(("group", x), len(ids)) for x in group], dtype=np.int64),
            np.array([ids.setdefault(("ident", x), len(ids)) for x in ident], dtype=np.int64),
            np.fromiter(group, object), np.fromiter(ident, object),
            np.zeros((len(si), 0), dtype=np.int64))

    beam, held = entries([]), []
    for chunk in chunks:
        beam = search._select(beam, entries(chunk), floor, width,
                              lambda e, i: texts[e.node2[i]])
        held.append(beam.node2.tolist())
    return held


def reference_beam_search_single(g, model, selectors, cfg):
    """The single-subgroup beam search with every candidate scored from
    its extension (``scores._score_masks``) and offered to the beam, one at
    a time: the plainly correct reference for the screened search."""
    min_size = max(2, cfg.min_extension_size)
    rows = [(EMPTY_DESCRIPTION, np.ones(g.n, dtype=bool), g.n)]
    collected = {}
    for _ in range(cfg.depth):
        beam, seen = Beam(cfg.beam_width), set()
        for row in rows:
            for w, m, s in _reference_refinements(g, selectors, min_size, *row, seen):
                pat = _score_masks(g, model, w, m, None, m, cfg.constants)
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
    from its extensions (``scores._score_masks``) and offered to the inner
    beam, one at a time: the plainly correct reference for the screened
    search."""
    def expand(desc, mask, size, seen):
        return _reference_refinements(g, selectors, min_size, desc, mask, size, seen)

    def inner_search(z1, m1):
        inner = Beam(cfg.x2)
        rows = [(EMPTY_DESCRIPTION, full, g.n)]
        for _ in range(cfg.depth):
            seen = set()
            cands = [c for row in rows for c in expand(*row, seen)]
            for z2, m2, s2 in cands:
                if not _reference_constraints_ok(z1, z2, m1, m2, cfg):
                    continue
                pat = _score_masks(g, model, z1, m1, z2, m2, cfg.constants)
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
                    outer.try_add(BeamEntry(pat.sort_key(), (str(pat.w1), str(pat.w2)),
                                            group=str(pat.w1), payload=pat))
    return [e.payload for e in outer.entries]


def reference_iterate(g, model, selectors, cfg, rounds):
    """``iterate`` with one absorbed pattern per round, each round mined by
    ``reference_nested_beam_search``: its per-round rankings."""
    out = []
    for _ in range(rounds):
        pats = reference_nested_beam_search(g, model, selectors, cfg)
        if not pats:
            break
        out.append(pats)
        model = update_with_pattern(model, pats[0])
    return out


def rendered(pats):
    """What a report prints of each pattern, for comparing rankings."""
    return [(p.render(), p.si, p.k_w, p.n_w, p.p_w, p.edges, p.expected_edges)
            for p in pats]


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


def reference_domain(values):
    """A nominal column's sorted distinct strings; None is missing."""
    return sorted(set(v for v in values if v is not None))


def reference_equals_mask(values, value):
    """``attribute = value`` by comparing strings; None never matches."""
    return [v is not None and v == value for v in values]


def reference_partition_bins(values):
    """Block-prior bins by value, in domain order, with the missing values
    (None only, never a string such as "∅missing") in one last bin labelled
    "∅missing", and the bins' labels."""
    domain = reference_domain(values)
    labels = domain + (["∅missing"] if None in values else [])
    return [len(domain) if v is None else domain.index(v) for v in values], labels


def write_dataset(tmp_path, edge_lines, attr_lines, prefix="data"):
    edge_path = tmp_path / f"{prefix}.edges"
    attr_path = tmp_path / f"{prefix}.csv"
    edge_path.write_text("\n".join(edge_lines) + "\n", encoding="utf-8")
    attr_path.write_text("\n".join(attr_lines) + "\n", encoding="utf-8")
    return str(edge_path), str(attr_path)


def reference_edge_arrays(n, edges, directed):
    """``graph._edge_arrays`` edge by edge against a set of the pairs seen:
    the ends of the edges, undirected ones as (min, max), or the
    ``GraphFormatError`` of the first edge at fault."""
    seen = set()
    e0, e1 = [], []
    for u, v in edges:
        u, v = int(u), int(v)
        if u == v:
            raise GraphFormatError(f"self-loop on vertex {u} is not allowed")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"edge ({u},{v}) references a vertex id >= n={n}")
        if not directed and u > v:
            u, v = v, u
        if (u, v) in seen:
            raise GraphFormatError(f"duplicate edge ({u},{v})")
        seen.add((u, v))
        e0.append(u)
        e1.append(v)
    return np.asarray(e0, dtype=np.int64), np.asarray(e1, dtype=np.int64)


def reference_parse_attr_table(path, options):
    """``graph._parse_attr_table`` row by row and cell by cell."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh, delimiter=options.delimiter)
        # each non-blank row with the physical line it ends on
        rows = [(reader.line_num, row) for row in reader
                if row and any(tok.strip() for tok in row)]
    if not rows:
        raise GraphFormatError(f"attribute file {path} is empty")
    header = [h.strip() for h in rows[0][1]]
    body = rows[1:]
    if not body:
        raise GraphFormatError(f"attribute file {path} has a header but no rows")
    id_col = options.id_column
    if id_col is None:
        id_idx = 0
    elif isinstance(id_col, int):
        id_idx = id_col
    else:
        if id_col not in header:
            raise GraphFormatError(f"id column {id_col!r} not in header {header}")
        id_idx = header.index(id_col)
    if not (0 <= id_idx < len(header)):
        raise GraphFormatError(f"id column index {id_idx} out of range")
    cells = [[] for _ in header]
    for lineno, row in body:
        if len(row) != len(header):
            raise GraphFormatError(
                f"{path}:{lineno}: ragged row has {len(row)} fields, expected {len(header)}")
        for j, tok in enumerate(row):
            cells[j].append(tok.strip())
    labels = cells[id_idx]
    bad = next((lab for lab in labels if lab.startswith("#")), None)
    if bad is not None:
        raise GraphFormatError(f"vertex id {bad!r} starts with '#', which the edge "
                               "file reads as a comment")
    if len(set(labels)) != len(labels):
        counts = Counter(labels)
        dup = next(lab for lab in labels if counts[lab] > 1)
        raise GraphFormatError(f"duplicate vertex id {dup!r} in attribute file")
    columns = []
    for j, name in enumerate(header):
        if j == id_idx:
            continue
        raw = cells[j]
        missing = [tok in options.missing_tokens for tok in raw]
        present = [tok for tok, miss in zip(raw, missing) if not miss]
        kind = options.kinds.get(name)
        if kind is None:
            kind = NOMINAL
            parsed = []
            for tok in present:
                try:
                    parsed.append(float(tok))
                except ValueError:
                    parsed = None
                    break
            if parsed and any(not v.is_integer() for v in parsed):
                kind = NUMERIC
        if kind == NUMERIC:
            vals = np.array([np.nan if miss else float(tok) for tok, miss in zip(raw, missing)])
        else:
            vals = [None if miss else tok for tok, miss in zip(raw, missing)]
        columns.append(AttributeColumn(name, kind, vals))
    return labels, columns


def reference_parse_edge_lines(path, label_to_id, options):
    """``graph._parse_edge_lines`` line by line: a list of (u, v) ids."""
    edges = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            toks = line.split()
            if len(toks) != 2:
                raise GraphFormatError(
                    f"{path}:{lineno}: expected two whitespace-separated tokens")
            try:
                u = label_to_id[toks[0]]
                v = label_to_id[toks[1]]
            except KeyError as exc:
                raise GraphFormatError(
                    f"{path}:{lineno}: unknown vertex label {exc.args[0]!r}") from None
            if u == v:
                if options.directed and options.allow_self_loops:
                    logging.getLogger("simine.graph").warning(
                        "%s:%d: dropping self-loop on %r", path, lineno, toks[0])
                    continue
                raise GraphFormatError(f"{path}:{lineno}: self-loop on {toks[0]!r}")
            edges.append((u, v))
    return edges


def reference_load_graph(edge_path, attr_path, options=None):
    """``load_graph`` by the row-by-row references: the attribute table,
    the edge file and the edge checks."""
    options = options or LoadOptions()
    labels, columns = reference_parse_attr_table(attr_path, options)
    label_to_id = {lab: i for i, lab in enumerate(labels)}
    edges = reference_parse_edge_lines(edge_path, label_to_id, options)
    e0, e1 = reference_edge_arrays(len(labels), edges, options.directed)
    return AttributedGraph(len(labels), np.stack([e0, e1], axis=1),
                           directed=options.directed, columns=columns, labels=labels)


def reference_pair_sums_many(model, H_r, H_c, H_o):
    """``BackgroundModel.pair_sums_many`` with the full class table, each
    step a fresh array."""
    to_cols = H_r @ model._P_off
    ordered = (H_c * to_cols).sum(axis=-1) + (H_c * H_r - H_o) @ model._P_diag
    if model.directed or H_o is H_r:
        return ordered, ordered * 0.0 if model.directed else ordered
    overlap = (H_o * H_o - H_o) @ model._P_diag
    return ordered, overlap + ((H_o @ model._P_off) * H_o).sum(axis=-1)


def reference_block(screen, w1, w2, i, j, lengths):
    """``search._BiScreen._block`` with every temporary a fresh array, and
    the mass by ``reference_pair_sums_many`` (by ``pair_sums_many`` without
    a full class table)."""
    R1, P1, H1, a = w1
    R2, H2, b = w2
    words = screen.refiner.words
    width = words if screen.directed else R1.shape[1]
    B2 = R2[j, :width]
    over = R1[i, :width]
    over &= B2
    H_o = screen.refiner.class_counts(over)
    o = H_o.sum(axis=1)
    a, b = a[i], b[j]
    mass = (reference_pair_sums_many if screen.model._P_off is not None
            else type(screen.model).pair_sums_many)
    ordered, overlap = mass(screen.model, *(h.astype(np.float64) for h in (H1[i], H2[j], H_o)))
    X = P1[i]
    X &= B2[:, None, :words]
    weights = np.left_shift(1, np.arange(X.shape[1], dtype=np.int64))
    orient = np.bitwise_count(X).sum(axis=-1, dtype=np.int64) @ weights
    inside = np.zeros_like(o) if screen.directed else screen.refiner.edges_inside(over)
    edges = orient - inside
    n_w, k_w, mass, slots = pair_counts(a, b, o, edges, inside, ordered, overlap,
                                        screen.conv, screen.directed)
    valid = slots > 0
    if screen.require_disjoint:
        valid &= o == 0
    si, bound = _screen_si(n_w, k_w, mass, screen.c.alpha * lengths + screen.c.beta,
                           screen.rho, valid)
    return si, bound, edges, inside


def reference_sigmoid(x):
    """The logistic function by two masked branches, each evaluating exp on
    a non-positive argument: the reference for ``background._sigmoid``."""
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def reference_classes(columns):
    """``background._classes`` by ``np.unique`` over the rows of the stacked
    columns: the distinct rows in lexicographic order, and each vertex's."""
    keys, cls = np.unique(np.stack(columns, axis=1), axis=0, return_inverse=True)
    return keys, cls.ravel()


def _reference_dual(ell, w, s, target, t):
    return float((w * np.logaddexp(0.0, ell + s * t)).sum()) - target * t


def _reference_step(ell, w, s, target, t0):
    p = reference_sigmoid(ell + s * t0)
    grad = float((w * s * p).sum()) - target
    hess = max(float((w * s * s * p * (1.0 - p)).sum()), 1e-12)
    step = -grad / hess
    f0 = _reference_dual(ell, w, s, target, t0)
    for _ in range(60):
        t1 = float(np.clip(t0 + step, -LOGIT_CLAMP, LOGIT_CLAMP))
        if _reference_dual(ell, w, s, target, t1) <= f0 + 1e-12 * max(1.0, abs(f0)):
            return t1
        step *= 0.5
    return t0


class _ReferenceMaxEnt:
    """The max-ent dual, one constraint at a time: each constraint's terms
    are built from scratch when it is reached, in the sweep and in the
    convergence check alike."""

    def __init__(self, g, partition_attrs, with_degrees):
        self.g, self.directed = g, g.directed
        self.parts = []
        for attr in partition_attrs:
            bins, values = _partition_bins(g, attr)
            self.parts.append(PartitionGammas(attr, bins, values,
                                              np.zeros((len(values), len(values)))))
        if not with_degrees:
            degrees = []
        elif self.directed:
            degrees = [g.out_degrees(), g.in_degrees()]
        else:
            degrees = [g.degrees()]
        keys, self.cls = reference_classes(degrees + [p.bins for p in self.parts])
        self.k = len(keys)
        self.sizes = np.bincount(self.cls, minlength=self.k).astype(np.float64)
        self.rep = np.empty(self.k, dtype=np.int64)
        self.rep[self.cls] = np.arange(g.n)
        targets = keys[:, :len(degrees)].astype(np.float64).T
        self.class_bins = [keys[:, len(degrees) + j] for j in range(len(self.parts))]
        n1 = g.n - 1
        if not with_degrees:
            self.lam_row = np.zeros(self.k)
            self.lam_col = self.lam_row if not self.directed else np.zeros(self.k)
            self.targets = []
        elif self.directed:
            self.lam_row = 0.5 * _logit(targets[0] / n1)
            self.lam_col = 0.5 * _logit(targets[1] / n1)
            self.targets = [("out-degree", True, targets[0]), ("in-degree", False, targets[1])]
        else:
            self.lam_row = np.clip(_logit(targets[0] / n1), -LOGIT_CLAMP, LOGIT_CLAMP)
            self.lam_col = self.lam_row
            self.targets = [("degree", True, targets[0])]
        e0, e1 = g.edges[:, 0], g.edges[:, 1]
        self.block_info = []
        for part, cb in zip(self.parts, self.class_bins):
            nb = part.n_bins
            obs = np.bincount(part.bins[e0] * nb + part.bins[e1],
                              minlength=nb * nb).reshape(nb, nb)
            if not self.directed:
                obs = np.triu(obs + obs.T) - np.diag(np.diag(obs))
            self.block_info.append([
                {"b1": b1, "b2": b2, "observed": int(obs[b1, b2]),
                 "cls1": np.flatnonzero(cb == b1), "cls2": np.flatnonzero(cb == b2)}
                for b1 in range(nb) for b2 in (range(nb) if self.directed else range(b1, nb))])

    def _degree_terms(self, a, use_row):
        G = np.zeros(self.k)
        for part, cb in zip(self.parts, self.class_bins):
            G += part.gammas[cb[a], cb] if use_row else part.gammas[cb, cb[a]]
        ell = (self.lam_col if use_row else self.lam_row) + G
        w = self.sizes.copy()
        w[a] -= 1.0
        if self.directed:
            return ell, w, 1.0
        ell[a] = G[a]
        s = np.ones(self.k)
        s[a] = 2.0
        w[a] *= 0.5
        return ell, w, s

    def _block_terms(self, part_i, block):
        A, B = block["cls1"], block["cls2"]
        w = np.outer(self.sizes[A], self.sizes[B])
        if block["b1"] == block["b2"]:
            w -= np.diag(self.sizes[A])
            if not self.directed:
                w *= 0.5
        L = self.lam_row[A][:, None] + self.lam_col[B][None, :]
        for j, (part, cb) in enumerate(zip(self.parts, self.class_bins)):
            if j != part_i:
                L = L + part.gammas[cb[A][:, None], cb[B][None, :]]
        return L.ravel(), w.ravel()

    def constraints(self):
        for name, use_row, target in self.targets:
            lam = self.lam_row if use_row else self.lam_col
            for a in range(self.k):
                yield (name, lam, a, *self._degree_terms(a, use_row), float(target[a]))
        for part_i, (part, blocks) in enumerate(zip(self.parts, self.block_info)):
            for block in blocks:
                ell, w = self._block_terms(part_i, block)
                if w.any():
                    yield (part, part.gammas, (block["b1"], block["b2"]), ell, w, 1.0,
                           float(block["observed"]))

    def sweep(self):
        for _, mult, i, ell, w, s, target in self.constraints():
            mult[i] = _reference_step(ell, w, s, target, mult[i])
            if mult.ndim == 2 and not self.directed:
                mult[i[::-1]] = mult[i]

    def residuals(self):
        eps = 1e-9
        worst_at, worst, waived = None, 0.0, 0.0
        for label, mult, i, ell, w, s, target in self.constraints():
            r = float((w * s * reference_sigmoid(ell + s * mult[i])).sum()) - target
            if ((r > 0 and mult[i] <= -LOGIT_CLAMP + eps)
                    or (r < 0 and mult[i] >= LOGIT_CLAMP - eps)):
                waived = max(waived, abs(r))
            elif abs(r) > worst:
                worst_at, worst = (label, i), abs(r)
        name = ""
        if worst_at is not None:
            label, i = worst_at
            if isinstance(label, str):
                name = f"{label} of vertex {self.g.vertex_label(int(self.rep[i]))!r}"
            else:
                values = label.bin_values
                name = f"block ({label.attribute}: {values[i[0]]} x {values[i[1]]})"
        return name, worst, waived


def reference_fit(g, partitions, with_degrees, tol, max_iter, prior):
    """The degree/block max-ent fit by cyclic coordinate Newton, one
    constraint at a time: a slow, plainly correct reference whose
    class-pair probabilities ``background._fit_max_ent``'s Newton solve must
    match within the fit's tolerance.  ``max_iter`` counts its sweeps.
    Returns the fitted model or raises ``FitError``."""
    prob = _ReferenceMaxEnt(g, partitions, with_degrees)
    worst_name, worst, waived = prob.residuals()
    sweeps = 0
    while worst > tol:
        if sweeps >= max_iter:
            raise FitError(
                f"no convergence after {max_iter} sweeps; worst constraint: "
                f"{worst_name} (residual {worst:.3g} > tol {tol:g})")
        prob.sweep()
        sweeps += 1
        worst_name, worst, waived = prob.residuals()
    pinned = (np.abs(prob.lam_row) >= LOGIT_CLAMP) | (np.abs(prob.lam_col) >= LOGIT_CLAMP)
    clamped = [g.vertex_label(int(u)) for u in np.flatnonzero(pinned[prob.cls])]
    info = {"prior": prior, "iterations": sweeps, "max_residual": worst,
            "saturated_residual": waived, "worst_constraint": worst_name,
            "tol": tol, "clamped": clamped, "classes": prob.k}
    return BackgroundModel(g.n, g.directed, 0.0, prob.cls, prob.lam_row,
                           prob.lam_col if g.directed else None,
                           prob.parts, prior=prior, fit_info=info)
