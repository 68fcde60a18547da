"""Beam search for single-subgroup patterns, nested beam search for
bi-subgroup patterns, and the iterative mining driver.

Both searches are deterministic: candidates are generated in a fixed order,
and every beam is a selection over arrays of its kept entries and new offers,
ranked by ``_beam_order``: SI descending, then the shorter total
description, then the lexicographic rendering (made only on an exact
(SI, length) tie), then offer order.  A beam of width w keeps the first w.
The outer beam of the nested search holds up to x1*x2 scored (W1, W2) pairs
under a hard diversity floor of x1 distinct W1 descriptions (``_select``):
it keeps the first entry of each of the first x1 W1s, then the best of the
rest.  Beams identify candidates, and diversity groups W1s, by description
keys (``_Refiner``), never by rendered text.

Both score a level at a time: its candidates are screened in one batch, and
the contenders, whose screening SI could place them in a beam, are scored
exactly in one batch.  The single search scores them with ``score_single``
into patterns.  The nested search keeps its inner beams as arrays: each
inner level scores its contenders with the array core of ``scores`` (exact
SIs, no patterns) and merges them with the kept entries in one sort, and
patterns are built, by one ``score_bi`` call per search, for the outer
beam's final entries only, each with the SI it was ranked by.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .background import PROB_EPS, BackgroundModel, update_with_pattern
from .descriptions import Description, selector_mask
from .graph import AttributedGraph
from .scores import (Pattern, ScoreConstants, _columns, _with_extensions, baseline_scores,
                     kl_bernoulli_many, pair_counts, score_bi, score_single)

log = logging.getLogger(__name__)

__all__ = [
    "SearchConfig",
    "BaselineResult",
    "beam_search_single",
    "baseline_search",
    "nested_beam_search",
    "iterate",
]


@dataclass
class SearchConfig:
    """Knobs shared by both searches.

    ``beam_width`` drives the single-subgroup search; ``x1`` (outer
    diversity floor), ``x2`` (inner beam width) and ``depth`` drive the
    nested search.  Constraint flags restrict bi-subgroup candidates; both
    default to off.
    """

    beam_width: int = 20
    x1: int = 8
    x2: int = 6
    depth: int = 2
    require_shared_attribute: bool = False
    require_disjoint_extensions: bool = False
    min_extension_size: int = 1
    constants: ScoreConstants = field(default_factory=ScoreConstants)

    def __post_init__(self):
        if min(self.beam_width, self.x1, self.x2, self.depth) < 1:
            raise ValueError("beam_width, x1, x2 and depth must all be >= 1")


# -- candidate generation -------------------------------------------------------

_SCREEN_CELLS = 1 << 20  # cells of the searches' temporaries (see _BiScreen)


def _pack(bits, words):
    """0/1 rows (the last axis) as ``words`` little-endian uint64 words per
    row, bit i of a row in bit i % 64 of word i // 64, zero past the row."""
    out = np.zeros(bits.shape[:-1] + (8 * words,), dtype=np.uint8)
    # packbits is fast only along a contiguous axis; fancy indexing along
    # the last axis leaves the rows strided
    packed = np.packbits(np.ascontiguousarray(bits), axis=-1, bitorder="little")
    out[..., :packed.shape[-1]] = packed
    return out.view("<u8")


def _firsts(values):
    """Which entries of the int array ``values`` are the first of their
    value: the starts of the runs of a stable sort."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.ones(values.size, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    first = np.zeros(values.size, dtype=bool)
    first[order[starts]] = True
    return first


@dataclass(eq=False)
class _Node:
    """A description in the search tree: the positions of its selectors in
    the selector list, its key id (``_Refiner``), the row of its extension
    and its size."""

    sels: tuple
    key: int
    row: np.ndarray
    size: int


class _Children(NamedTuple):
    """What ``_Refiner.expand`` keeps: per child, in the order the children
    are generated, its group, its parent's position in ``parents``, the
    position of the selector it adds, its key id and its row of ``rows``;
    and the rows of the distinct children with the size of each, and the
    ``seen`` mask the call leaves."""

    parents: list
    group: np.ndarray
    parent: np.ndarray
    sel: np.ndarray
    key: np.ndarray
    row: np.ndarray
    rows: np.ndarray
    sizes: np.ndarray
    seen: np.ndarray | None


class _Refiner:
    """The selectors of one search as packed rows, and the admissible
    refinements of descriptions computed from them.

    A vertex set is one row of little-endian uint64 words: its members in
    the model's class order (vertex order and one class without a model),
    n // 64 + 1 words, so the boundary at n has a word, with classes not
    padded; then the edges with both ends in the set, in edge order,
    m // 64 + 1 words.  Bit i of a slice is bit i % 64 of its word i // 64.
    The row of an intersection is the AND of the rows, so a refinement's row
    is its parent's AND its selector's, and a set's size, class histogram
    and inner edge count are popcounts of its row's slices.

    A refinement adds one selector on an attribute its parent does not
    constrain yet.  It is admissible when its extension has at least
    ``min_size`` vertices and fewer than its parent's.  Within one level a
    refinement reached from several parents is kept once, from the first.
    A description's key is the sorted tuple of its selectors' rendering ids
    (selectors that render alike share one), so under the description
    grammar equal keys mean equal renderings; each key is interned once as
    an integer id, the root's 0.
    """

    def __init__(self, g, model, selectors, min_size):
        self.model, self.selectors, self.min_size = model, list(selectors), min_size
        if model is None:
            order, starts = np.arange(g.n), np.zeros(1, dtype=np.int64)
        else:
            order, starts = model.class_order()
        self.n, self.words = g.n, g.n // 64 + 1
        self.pos = np.empty(g.n, dtype=np.int64)  # place of each vertex in class order
        self.pos[order] = np.arange(g.n)
        # the word of each class boundary (the end of the last class
        # included) and the bits of that word at or past the boundary
        bounds = np.append(starts, g.n)
        self.bword = bounds >> 6
        self.high = ~((np.uint64(1) << (bounds & 63).astype(np.uint64)) - np.uint64(1))
        e0, e1 = g.edges.T

        def rows(masks):
            return np.concatenate([_pack(masks[..., order], self.words),
                                   _pack(masks[..., e0] & masks[..., e1], g.m // 64 + 1)],
                                  axis=-1)

        # the root's mask and the selectors', packed a block at a time within
        # the screen budget
        masks = [np.ones(g.n, dtype=bool)] + [selector_mask(s, g) for s in self.selectors]
        step = max(1, _SCREEN_CELLS // (g.n + g.m))
        packed = np.concatenate([rows(np.array(masks[lo:lo + step]))
                                 for lo in range(0, len(masks), step)])
        self.root = _Node((), 0, packed[0], g.n)
        self.rows = packed[1:]
        attrs, first = {}, {}
        self.attr = np.array([attrs.setdefault(s.attribute, len(attrs))
                              for s in self.selectors], dtype=np.int64)
        self.n_attrs = len(attrs)
        self.rid = [first.setdefault(s.render(), i) for i, s in enumerate(self.selectors)]
        self.ids: dict[tuple, int] = {(): 0}  # key -> key id
        self._cache: dict[int, np.ndarray] = {}

    def description(self, node) -> Description:
        return Description(tuple(self.selectors[i] for i in node.sels))

    def class_counts(self, rows):
        """Class histograms (int64) of the sets ``rows``: each class
        boundary's prefix popcount (a cumulative sum of word popcounts, minus
        the bits of the boundary's word at or past it), differenced."""
        B = rows[..., :self.words]
        upto = np.cumsum(np.bitwise_count(B), axis=-1, dtype=np.int64)[..., self.bword]
        past = B[..., self.bword]
        past &= self.high
        upto -= np.bitwise_count(past)
        return np.diff(upto, axis=-1)

    def edges_inside(self, rows):
        """Number of edges with both ends in each of the sets ``rows``."""
        return np.bitwise_count(rows[..., self.words:]).sum(axis=-1, dtype=np.int64)

    def unpack(self, rows):
        """The members of the sets ``rows`` as bool rows in class order."""
        bits = np.unpackbits(rows[..., :self.words].view(np.uint8), axis=-1, count=self.n,
                             bitorder="little")
        return bits.view(bool)

    def masks(self, rows):
        """The sets ``rows`` as bool masks in vertex order."""
        return self.unpack(rows)[..., self.pos]

    def _children(self, parent):
        """Selector positions, key ids and sizes (the rows of an int64 array)
        of the admissible refinements of one parent, kept per parent: the inner
        searches of different W1s start from the same root and mostly refine
        the same W2s, so most lookups in the nested search repeat a parent."""
        hit = self._cache.get(parent.key)
        if hit is None:
            used = np.zeros(self.n_attrs, dtype=bool)
            used[self.attr[list(parent.sels)]] = True
            free = np.flatnonzero(~used[self.attr])
            members = self.rows[free, :self.words]
            members &= parent.row[:self.words]
            size = np.bitwise_count(members).sum(axis=1, dtype=np.int64)
            ok = (size >= self.min_size) & (size != parent.size)
            js, base = free[ok], tuple(self.rid[i] for i in parent.sels)
            ids = [self.ids.setdefault(tuple(sorted(base + (self.rid[j],))), len(self.ids))
                   for j in js.tolist()]
            hit = self._cache[parent.key] = np.array([js, ids, size[ok]], dtype=np.int64)
        return hit

    def expand(self, groups, admit=None, seen=None) -> _Children:
        """The admissible refinements of groups of parents (lists of nodes):
        per group, the refinements of its parents, parent by parent and each
        parent's in selector order, the first of each key only.  Given
        ``admit``, a bool row per group over the selectors, a group keeps a
        child only when the row holds for one of the child's selectors; a
        child it rejects still takes its key.  Given ``seen``, a bool mask
        over key ids of the keys earlier calls took, every group skips those
        keys, and the returned mask adds the keys this call took.

        Children with equal keys share one row, the rows in the order their
        keys first appear, so with a single group row i is child i."""
        empty = np.zeros((3, 0), dtype=np.int64)
        parents = [p for grp in groups for p in grp]
        owner = [w for w, grp in enumerate(groups) for _ in grp]  # the group of each parent
        hits = [self._children(p) for p in parents]
        counts = [h.shape[1] for h in hits]
        parent = np.repeat(np.arange(len(parents)), counts)
        group = np.repeat(np.array(owner, dtype=np.int64), counts)
        sel, key, size = np.concatenate([empty] + hits, axis=1)
        # the first child of each (group, key)
        first = _firsts(group * len(self.ids) + key)
        if seen is not None:
            seen = np.concatenate([seen, np.zeros(len(self.ids) - seen.size, dtype=bool)])
            first &= ~seen[key]
        kept = np.flatnonzero(first)
        if seen is not None:
            seen[key[kept]] = True
        if admit is not None:
            via_parent = np.array([admit[w, list(p.sels)].any()
                                   for w, p in zip(owner, parents)], dtype=bool)
            kept = kept[admit[group[kept], sel[kept]] | via_parent[parent[kept]]]
        # one row per distinct key, numbered by first appearance; a single
        # group has kept one child per key
        src, row = kept, np.arange(kept.size)
        if len(groups) > 1:
            src = kept[_firsts(key[kept])]
            at_key = np.empty(len(self.ids), dtype=np.int64)
            at_key[key[src]] = np.arange(src.size)
            row = at_key[key[kept]]
        stack = self.rows[sel[src]]
        parent_rows = np.array([p.row for p in parents], dtype="<u8").reshape(-1, stack.shape[1])
        # each row ANDed with its parent's, gathered an eighth of the screen
        # budget at a time: one gather for a level of the benchmark's graphs
        step = max(1, _SCREEN_CELLS // (8 * stack.shape[1]))
        for lo in range(0, len(src), step):
            stack[lo:lo + step] &= parent_rows[parent[src[lo:lo + step]]]
        return _Children(parents, group[kept], parent[kept], sel[kept], key[kept], row, stack,
                         size[src], seen)

    def nodes(self, children, picks) -> list[_Node]:
        """The nodes of the children ``picks`` of ``children`` (``expand``);
        each holds a copy of its row, so a node kept in a beam keeps no
        other row alive."""
        c = children
        rows = c.row[picks]
        return [_Node(c.parents[p].sels + (j,), k, c.rows[r].copy(), size)
                for p, j, k, r, size in zip(c.parent[picks].tolist(), c.sel[picks].tolist(),
                                            c.key[picks].tolist(), rows.tolist(),
                                            c.sizes[rows].tolist())]


# -- single-subgroup search -------------------------------------------------------


def beam_search_single(g: AttributedGraph, model: BackgroundModel, selectors,
                       cfg: SearchConfig) -> list[Pattern]:
    """Classic level-wise beam search over descriptions, scored by SI.

    Each of ``cfg.depth`` rounds refines every beam entry with every
    admissible selector and keeps the ``cfg.beam_width`` best refinements;
    the result merges all rounds' survivors, ranked by SI, and decodes
    their extensions only.
    """
    refiner = _Refiner(g, model, selectors, max(2, cfg.min_extension_size))

    def scorer(descs, nodes, edges, hists):
        return score_single(model, descs, hists, edges, cfg.constants)

    found = _single_engine(refiner, _SingleScreen(g, refiner, cfg.constants), cfg, scorer,
                           lambda pat: pat.si)
    if not found:
        return []
    masks = refiner.masks(np.array([node.row for _, node in found]))
    return [_with_extensions(pat, g, mask, None) for (pat, _), mask in zip(found, masks)]


@dataclass(eq=False)
class BaselineResult:
    """A subgroup ranked by one objective baseline measure."""

    w: Description
    measure: str
    value: float
    size: int
    edges: int
    inter_edges: int

    def render(self) -> str:
        return str(self.w)


def baseline_search(g: AttributedGraph, selectors, cfg: SearchConfig, measure: str,
                    edge_surplus_alpha: float = 1.0 / 3.0) -> list[BaselineResult]:
    """Beam search with one of the objective measures as the ranking score;
    the measures read vertex sets, so every candidate is decoded."""
    if not math.isfinite(edge_surplus_alpha):
        raise ValueError(f"edge_surplus_alpha must be finite, got {edge_surplus_alpha!r}")
    refiner = _Refiner(g, None, selectors, max(2, cfg.min_extension_size))
    deg = g.degrees()

    def scorer(descs, nodes, edges, _hists):
        masks = [refiner.masks(node.row) for node in nodes]
        return [BaselineResult(w=desc, measure=measure, size=node.size, edges=k,
                               value=baseline_scores(g, m, edge_surplus_alpha)[measure],
                               inter_edges=int(deg[m].sum()) - 2 * k)
                for desc, node, k, m in zip(descs, nodes, edges.tolist(), masks)]

    return [res for res, _ in _single_engine(refiner, None, cfg, scorer, lambda res: res.value)]


def _single_engine(refiner, screen, cfg, scorer, value):
    """Level-wise beam search over the refinements of ``refiner``; ``scorer``
    maps a batch of candidates (descriptions, nodes, inner edge counts,
    integer class histograms) to a result or None each, and ``value`` a
    result to the score it ranks by.  Returns the ``(result, node)`` of every
    level's survivors, ranked.  A level is expanded, screened, cut and scored
    in one batch, its parents in chunks that fit the screen budget, and its
    beam keeps the best of its entries and each chunk's results
    (``_beam_order``).  With a ``screen`` (``_SingleScreen``), only
    candidates whose screening SI could place them in the level's beam are
    scored and offered to it; the beam has no diversity floor and a strict
    total order, so it ends up holding the same entries as if every
    candidate had been scored and offered."""
    rows = [refiner.root]
    collected: dict[int, tuple] = {}  # node key -> (result, node)

    def ranked(entries, width):
        """The ``width`` best ``(result, node)`` of ``entries``, best first."""
        order = _beam_order(np.zeros(len(entries), dtype=np.int64),
                            np.array([value(res) for res, _ in entries], dtype=np.float64),
                            np.array([len(node.sels) for _, node in entries], dtype=np.int64),
                            lambda i: entries[i][0].render(), width)
        return [entries[i] for i in order.tolist()]

    cells = len(refiner.selectors) * max(refiner.root.row.size, refiner.bword.size)
    step = max(1, _SCREEN_CELLS // max(8, 8 * cells))  # an eighth stays in cache
    for level in range(1, cfg.depth + 1):
        seen = np.zeros(0, dtype=bool)  # the level's keys so far, by key id
        beam = []  # the level's (result, node) entries, best first
        for lo in range(0, len(rows), step):
            children = refiner.expand([rows[lo:lo + step]], seen=seen)
            seen, stack = children.seen, children.rows
            counts, hists = refiner.edges_inside(stack), refiner.class_counts(stack)
            picks = np.arange(len(stack))
            if screen is not None:
                si, bound = screen.scores(hists, children.sizes, counts, level)
                kept = np.array([value(res) for res, _ in beam], dtype=np.float64)
                picks = _contenders(si, bound, np.zeros(si.size, dtype=np.int64), kept,
                                    np.zeros(kept.size, dtype=np.int64), cfg.beam_width)
            nodes = refiner.nodes(children, picks)
            results = scorer([refiner.description(nd) for nd in nodes], nodes, counts[picks],
                             hists[picks])
            beam = ranked(beam + [(res, node) for res, node in zip(results, nodes)
                                  if res is not None], cfg.beam_width)
        if not beam:
            break
        rows = [node for _, node in beam]
        for res, node in beam:
            collected.setdefault(node.key, (res, node))
    if not collected:
        log.warning("single-subgroup search found no candidate with extension size >= %d",
                    refiner.min_size)
        return []
    return ranked(list(collected.values()), len(collected))


def _mass_rounding(model):
    """Relative rounding of a screen's expected mass: the screens and
    ``pair_mass`` sum O(K) non-negative terms per dot product, in different
    orders, and the nested screen's product of a W1's mass row and a W2's
    histogram nests two such sums (about 2K eps).  ``_BiScreen._block``
    scales it by that product over the mass left once the overlap's
    self-pairs are taken off."""
    return 8.0 * (model.n_classes + 8) * np.finfo(np.float64).eps


def _screen_si(n_w, k_w, mass, dl, rho, valid):
    """Screening SIs ``n_w KL(k_w / n_w || mass / n_w) / dl``, -inf where not
    ``valid``, and bounds on their distance from the exact SIs when each
    mass is off by at most ``rho`` relative."""
    n_w = np.where(valid, n_w, 1)
    q, p = k_w / n_w, mass / n_w
    si = n_w * kl_bernoulli_many(q, p) / dl
    # a mass off by rho moves KL(q || p) by rho * |p - q| / (1 - p); the
    # divergence's own rounding stays below 1e-13 for a clamped p
    pc = np.clip(p, PROB_EPS, 1.0 - PROB_EPS)
    drift = rho * np.abs(pc - q) / (1.0 - pc)
    return np.where(valid, si, -np.inf), 1e-9 * np.abs(si) + n_w / dl * (1e-13 + drift)


def _contenders(si, bound, beam, kept, kept_beam, width):
    """Positions of the screened candidates (SIs ``si`` within ``bound``)
    that could enter their beam of ``width``: candidate i is offered to beam
    ``beam[i]``, and beam ``kept_beam[k]`` already holds an entry of exact SI
    ``kept[k]``.  Per beam, the ``width``-th best lower bound among its
    candidates and its kept entries is a cut that a candidate's upper bound
    must reach."""
    finite = np.flatnonzero(np.isfinite(si))
    lower = np.concatenate([si[finite] - bound[finite], kept])
    owner = np.concatenate([beam[finite], kept_beam])
    # every beam's lower bounds, best first, beam by beam; a beam's cut is
    # its width-th, or the -inf past them all when it has fewer
    ranked = np.append(lower[np.lexsort((-lower, owner))], -np.inf)
    count = np.bincount(owner)
    cut = ranked[np.where(count >= width, np.cumsum(count) - count + width - 1, lower.size)]
    return finite[si[finite] + bound[finite] >= cut[beam[finite]]]


class _SingleScreen:
    """Screening scores of single-subgroup candidates, a level in one call.

    The class histograms of the candidates' rows (``_Refiner.class_counts``)
    give the expected mass through ``self_mass``, and ``pair_counts`` the
    rest.  The exact core takes the same histograms and edge counts; its SI
    differs only by the rounding of the mass, and ``scores`` returns a bound
    on that difference with it.
    """

    def __init__(self, g, refiner, c):
        self.model, self.c = refiner.model, c
        self.directed = g.directed
        self.conv = c.convention(single=True, directed=g.directed)
        self.rho = _mass_rounding(self.model)

    def scores(self, hists, sizes, edges, length):
        """``(si, bound)`` per set of class histogram ``hists[i]``, of size
        ``sizes[i]`` with ``edges[i]`` edges inside, described by ``length``
        selectors."""
        ordered = self.model.self_mass(hists)
        n_w, k_w, mass, slots = pair_counts(sizes, sizes, sizes, edges, edges, ordered,
                                            0.0 if self.directed else ordered, self.conv,
                                            self.directed)
        return _screen_si(n_w, k_w, mass, self.c.alpha * length + self.c.beta, self.rho,
                          slots > 0)


# -- nested bi-subgroup search ------------------------------------------------------


class _BiScreen:
    """Screening scores of (W1, W2) pairs: the pairs of one inner-search
    level of a chunk of W1s, in one call.

    It reads the refiner's rows as they are.  Per pair, the popcount of the
    members of W1 & W2 gives the overlap's size o, and only where o > 0 its
    class histogram and, on undirected graphs, its inner edges; those of
    W2's members and the bit planes of W1's neighbour counts, packed once
    per chunk in class order, give the edge orientations, sum_b 2^b
    popcount(plane_b & W2).  All are exact integers.  The expected mass
    takes O(K^2) work per W1 and none K wide for a pair with o = 0: each
    W1's mass row ``T1 = H1 P`` (``row_mass``) comes once per chunk, one
    product of them with a level's W2 histograms gives each pair's
    ``T1 . H2``, and the overlap's ``H_o . diag`` and inner mass
    (``self_mass``) are taken off where o > 0.  ``pair_counts`` gives the
    rest.  The exact core takes the same counts; its SI differs only by the
    rounding of the mass, and ``scores`` returns a bound on that difference
    with it.

    The neighbour counts come from the W1s' members' adjacency, in
    O(vol(W1)): one ``bincount`` of their neighbours' class positions per
    slice of members with a bounded number of neighbours, and no array of a
    block of pairs holds more than ``floats`` cells.
    """

    def __init__(self, g, refiner, c, require_disjoint):
        self.refiner, self.model, self.c = refiner, refiner.model, c
        self.require_disjoint, self.directed = require_disjoint, g.directed
        self.conv = c.convention(single=False, directed=g.directed)
        # the out-neighbours of every vertex (all its neighbours when
        # undirected) in class positions, grouped by vertex in class order,
        # and where each group starts (CSR)
        src, dst = refiner.pos[g.edges.T]
        if not g.directed:
            src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
        self.adj = dst[np.argsort(src, kind="stable")]
        self.degree = np.bincount(src, minlength=g.n)
        self.adj_starts = np.concatenate([[0], np.cumsum(self.degree)])
        # cells of an array of a block of pairs, and the one budget every
        # size of the screen derives from: at least 2^16 (512 KB of floats),
        # the measured knee below which a call's fixed NumPy work outweighs
        # its pairs' on small graphs and above which peak memory grows
        # faster than the nested searches gain; and at least eight vertex
        # rows, so that large graphs still screen in few blocks
        self.floats = max(1, _SCREEN_CELLS // 16, 8 * g.n)
        # W1s per chunk: each holds its neighbour counts as n integers, half
        # the float budget in all, besides its inner search's candidates and
        # beam, whose W2 rows and histograms the chunk's W1s mostly share
        self.w1_step = max(1, self.floats // (2 * g.n))
        self.rho = _mass_rounding(self.model)

    def w1_rows(self, rows):
        """The screen's view of a chunk of at most ``w1_step`` W1s with
        refiner rows ``rows``: the rows, the bit planes of each W1's
        neighbour counts in class order (in-neighbours in the W1 when
        directed: the W1's members' out-neighbours, counted), its class
        histogram (int64), its size, and its mass row with the class table's
        diagonal (``BackgroundModel.row_mass``).  Returns
        ``(rows, planes, H, sizes, T, diag)``."""
        bits = self.refiner.unpack(rows)
        n, words = self.refiner.n, self.refiner.words
        D = np.zeros(bits.shape, dtype=np.int64)
        # every member's neighbours counted into its W1's row, one bincount
        # per slice of members: a slice holds the members whose neighbours
        # start within one multiple of ``step``, so fewer than step + n
        # neighbours, at most 3/8 of ``floats`` (n <= floats / 8), which
        # bounds the int64 temporaries: two of them at a time.  A member
        # is its flat position w * n + u in ``bits``, and ``end`` the running
        # count of neighbours up to its own last one
        flat = np.flatnonzero(bits)
        end = self.degree[flat % n]
        np.cumsum(end, out=end)
        step = max(1, self.floats // 4)
        total = int(end[-1]) if end.size else 0
        cuts = (np.searchsorted(end, np.arange(step, total, step)) + 1).tolist()
        for a, b in zip([0, *cuts], [*cuts, flat.size]):
            if a == b:
                continue
            f = flat[a:b]
            u = f % n
            d = self.degree[u]
            w0, w1 = int(f[0]) // n, int(f[-1]) // n
            # the positions of the slice's neighbours in adj, member by member
            at = np.repeat(self.adj_starts[u] - (end[a:b] - d), d)
            at += np.arange(end[a] - d[0], end[b - 1])
            nbrs = self.adj[at]
            del at
            # each neighbour's cell w * n + v in the slice's rows
            cells = np.repeat(f - u - w0 * n, d)
            cells += nbrs
            del nbrs
            D[w0:w1 + 1] += np.bincount(cells, minlength=(w1 + 1 - w0) * n).reshape(-1, n)
        planes = np.empty((len(rows), int(D.max(initial=0)).bit_length(), words), dtype="<u8")
        for b in range(planes.shape[1]):
            planes[:, b] = _pack(D & (1 << b) != 0, words)
        H = self.refiner.class_counts(rows)
        return (rows, planes, H, H.sum(axis=1), *self.model.row_mass(H))

    def scores(self, w1, w2, pi, pj, lengths):
        """``(si, bound, edges, inside)`` per pair of W1 ``pi[i]`` of the
        chunk ``w1`` (``w1_rows``) and W2 ``pj[i]`` of ``w2``, the refiner
        rows of a level's W2s with their class histograms (int64) and sizes,
        whose descriptions have ``lengths[i]`` selectors together.
        ``si`` is -inf where the pair has no pair u != v or breaks
        disjointness; ``edges`` and ``inside`` are the counts of ``score_bi``.
        The pairs go in blocks whose arrays hold at most ``floats`` cells."""
        gross = self._products(w1[4], w2[1], pi, pj)
        out = (np.empty(len(pi)), np.empty(len(pi)),
               np.empty(len(pi), dtype=np.int64), np.empty(len(pi), dtype=np.int64))
        # cells per pair of a block's widest array; the mass core holds a few
        # arrays K wide at once, so a block takes half the budget
        cells = max(w1[1][0].size, w2[0].shape[1], self.model.n_classes + 1)
        step = max(1, self.floats // (2 * cells))
        for lo in range(0, len(pi), step):
            sel = slice(lo, lo + step)
            for column, values in zip(out, self._block(w1, w2, pi[sel], pj[sel],
                                                       lengths[sel], gross[sel])):
                column[sel] = values
        return out

    def _products(self, T1, H2, pi, pj):
        """``T1[pi[k]] . H2[pj[k]]`` per pair k, of W1 mass rows ``T1`` and W2
        class histograms ``H2``, from their products in tiles of at most
        ``floats`` cells (one row by one column at least), as are the tiles'
        float histograms; a tile that no pair reads is not multiplied."""
        out = np.empty(len(pi))
        cols = max(1, self.floats // H2.shape[1])
        rows = max(1, self.floats // max(1, min(cols, len(H2))))
        for c0 in range(0, len(H2), cols):
            right = H2[c0:c0 + cols].astype(np.float64).T
            for r0 in range(0, len(T1), rows):
                k = np.flatnonzero((pi >= r0) & (pi < r0 + rows) & (pj >= c0) & (pj < c0 + cols))
                if k.size:
                    out[k] = (T1[r0:r0 + rows] @ right)[pi[k] - r0, pj[k] - c0]
        return out

    def overlaps(self, w1, rows2, pi, pj):
        """The class histograms (int64) of the intersections of W1 ``pi[i]``
        of the chunk ``w1`` and W2 row ``pj[i]`` of ``rows2``, one row per
        pair."""
        words = self.refiner.words
        over = w1[0][pi, :words]
        over &= rows2[pj, :words]
        return self.refiner.class_counts(over)

    def _block(self, w1, w2, i, j, lengths, gross):
        """``scores`` of the pairs (W1 ``i[k]``, W2 ``j[k]``) of one block,
        whose products of W1's mass row and W2's histogram are ``gross``."""
        R1, P1, _, a, _, diag = w1
        R2, _, b = w2
        words = self.refiner.words
        # the members of W1 & W2 and their number
        B2 = R2[j, :words]
        over = R1[i, :words]
        over &= B2
        o = np.bitwise_count(over).sum(axis=1, dtype=np.int64)
        a, b = a[i], b[j]
        # the overlaps that hold a vertex, whole rows on undirected graphs:
        # their class histograms, and the vertex pairs and edges inside them
        hit = np.flatnonzero(o)
        both = over[hit] if self.directed else R1[i[hit]] & R2[j[hit]]
        H_o = self.refiner.class_counts(both)
        ordered = gross.copy()
        ordered[hit] -= H_o @ diag
        inside, overlap = np.zeros_like(o), np.zeros(o.size)
        if not self.directed:
            inside[hit] = self.refiner.edges_inside(both)
            overlap[hit] = self.model.self_mass(H_o)
        # the product also pairs each shared vertex with itself, which the
        # ordered mass then leaves out: its rounding, relative to that mass,
        # grows by their ratio (1 where o = 0).  Every pair u != v carries at
        # least PROB_EPS
        rho = self.rho * gross / np.maximum(ordered, PROB_EPS * np.maximum(a * b - o, 1))
        # edge orientations (u in W1, v in W2), ordered edges when directed;
        # an undirected edge inside W1 and W2 has both orientations counted
        X = P1[i]
        X &= B2[:, None, :]
        weights = np.left_shift(1, np.arange(X.shape[1], dtype=np.int64))
        orient = np.bitwise_count(X).sum(axis=-1, dtype=np.int64) @ weights
        edges = orient - inside
        n_w, k_w, mass, slots = pair_counts(a, b, o, edges, inside, ordered, overlap,
                                            self.conv, self.directed)
        valid = slots > 0
        if self.require_disjoint:
            valid &= o == 0
        si, bound = _screen_si(n_w, k_w, mass, self.c.alpha * lengths + self.c.beta,
                               rho, valid)
        return si, bound, edges, inside


class _Entries(NamedTuple):
    """Entries of the outer beam, or offers to it, one per row of every
    column: the exact SI, the total description length, the key ids and the
    nodes (object arrays) of W1 and W2, and the int64 counts that
    ``score_bi`` takes: the class histograms of W1, W2 and W1 ∩ W2, the
    edges and the inside edges."""

    si: np.ndarray
    length: np.ndarray
    w1: np.ndarray
    w2: np.ndarray
    node1: np.ndarray
    node2: np.ndarray
    counts: np.ndarray

    def take(self, at):
        return _Entries(*(column[at] for column in self))

    @staticmethod
    def join(parts):
        return _Entries(*map(np.concatenate, zip(*parts)))


def _select(beam, offers, floor, width, text):
    """The outer beam ``beam`` (``_Entries``, best first) after ``offers``:
    offers of a (W1, W2) it holds are dropped, its entries and then the other
    offers, in order, are ranked by ``_beam_order`` (``text(entries, i)``
    renders entry i of ``entries``), and it keeps the first entry of each of
    the first ``floor`` distinct W1s, then the best of the rest up to
    ``width``, best first.  That is what a beam that never lets its
    distinct W1s fall below ``floor`` keeps when offered one entry at a
    time, replacing its worst entry whose eviction keeps the floor and
    taking a new W1 by force while the floor is unmet (a property test
    checks the two on random offer streams)."""
    # a full beam that spans the floor keeps itself when every offer ranks
    # strictly below its worst entry
    if beam.si.size == width and len(set(beam.w1.tolist())) >= floor:
        si, n = beam.si[-1], beam.length[-1]
        if ((offers.si < si) | ((offers.si == si) & (offers.length > n))).all():
            return beam
    held = ((offers.w1[:, None] == beam.w1) & (offers.w2[:, None] == beam.w2)).any(axis=1)
    merged = _Entries.join([beam, offers.take(~held) if held.any() else offers])
    # an entry strictly worse than both the width-th entry and the first
    # entry of the floor-th W1 is kept under no order of the exact
    # (SI, length) ties: only the others are ranked, and rendered if tied
    order = np.lexsort((merged.length, -merged.si))
    ranked = merged.w1[order].tolist()
    groups = list(dict.fromkeys(ranked))  # the W1s in rank order
    keep = np.arange(order.size)
    if order.size > width and len(groups) >= floor:
        c = order[max(width - 1, ranked.index(groups[floor - 1]))]
        si, n = merged.si, merged.length
        keep = np.flatnonzero((si > si[c]) | ((si == si[c]) & (n <= n[c])))
    order = keep[_beam_order(np.zeros(keep.size, dtype=np.int64), merged.si[keep],
                             merged.length[keep], lambda i: text(merged, keep[i]), keep.size)]
    # the first entry of each of the first floor W1s, then the best of the rest
    ranked = merged.w1[order].tolist()
    lead = [ranked.index(g) for g in list(dict.fromkeys(ranked))[:floor]]
    rest = [p for p in range(len(ranked)) if p not in lead][:width - len(lead)]
    return merged.take(order[sorted(lead + rest)])


def nested_beam_search(g: AttributedGraph, model: BackgroundModel, selectors,
                       cfg: SearchConfig) -> list[Pattern]:
    """Nested beam search for bi-subgroup patterns.

    The outer beam explores W1 refinements; each refined W1 runs an inner
    beam search over W2 candidates scored as (W1, W2, I, k_w).  Inner
    survivors are offered to the outer beam, which keeps at most x1*x2
    entries spanning at least x1 distinct W1 descriptions (``_select``).

    The inner searches of the W1s refined at one outer level run in
    lockstep, one screen chunk of W1s at a time (``_inner_searches``), their
    beams held as arrays, and the outer beam takes the chunk's survivors W1
    by W1 in one selection.  Inner beams do not read one another, so the
    result is the one of running each W1's inner search on its own.  An
    inner search depends on its W1's key only, so a W1 key refined again at
    a later depth re-offers its first search's survivors, in the same order,
    without searching again.  Patterns are built, in one batched
    ``score_bi`` call, and extensions decoded only for the outer beam's
    final entries.
    """
    refiner = _Refiner(g, model, selectors, max(1, cfg.min_extension_size))
    screen = _BiScreen(g, refiner, cfg.constants, cfg.require_disjoint_extensions)
    outer = _Entries(np.zeros(0), *np.zeros((3, 0), dtype=np.int64),
                     *np.empty((2, 0), dtype=object),
                     np.zeros((0, 3 * model.n_classes + 2), dtype=np.int64))
    searched: dict[int, _Entries] = {}  # W1 key id -> the outer offers of its inner search
    texts: dict[tuple, str] = {}  # (W1, W2) key ids -> "W1 || W2", made on exact ties only

    def text(entries, i):
        ident = int(entries.w1[i]), int(entries.w2[i])
        if ident not in texts:
            texts[ident] = (f"{refiner.description(entries.node1[i])} || "
                            f"{refiner.description(entries.node2[i])}")
        return texts[ident]

    for depth in range(cfg.depth):
        # the root, then the outer beam's distinct W1 nodes in beam order, old
        # ones too: once a W1's group has left the beam, every entry is
        # evictable, so the floor may take a re-offered pair it refused before
        frontier = list(dict.fromkeys(outer.node1)) if depth else [refiner.root]
        children = refiner.expand([frontier])
        keys = children.key.tolist()
        # a later depth can reach a W1 key of this depth again only if this is
        # neither the first depth (its W1s have one selector, later ones two
        # or more) nor the last; other offers are dropped once made
        keep = 0 < depth < cfg.depth - 1
        # one screen chunk of W1s at a time, which bounds the inner searches'
        # state as well as the screen's temporaries
        for lo in range(0, len(keys), screen.w1_step):
            hi = min(lo + screen.w1_step, len(keys))
            new = [k for k in range(lo, hi) if keys[k] not in searched]
            if new:
                w1s = refiner.nodes(children, np.array(new))
                searched.update(zip((w1.key for w1 in w1s), _inner_searches(
                    g, model, refiner, screen, cfg, w1s, children.rows[new])))
            outer = _select(outer, _Entries.join([searched[key] for key in keys[lo:hi]]),
                            cfg.x1, cfg.x1 * cfg.x2, text)
            if not keep:
                for k in new:
                    del searched[keys[k]]
    if not outer.si.size:
        log.warning("nested search produced no admissible (W1, W2) candidate "
                    "under the active constraints")
        return []
    # the reported patterns, scored in one batch, and their extensions, one
    # batch per side; each row scores as it did when ranked
    k, C = model.n_classes, outer.counts
    pats = score_bi(model, [refiner.description(w) for w in outer.node1],
                    [refiner.description(w) for w in outer.node2],
                    (C[:, :k], C[:, k:2 * k], C[:, 2 * k:3 * k]), C[:, 3 * k], C[:, 3 * k + 1],
                    cfg.constants)
    masks1, masks2 = (refiner.masks(np.array([w.row for w in ws]))
                      for ws in (outer.node1, outer.node2))
    return [_with_extensions(pat, g, m1, m2) for pat, m1, m2 in zip(pats, masks1, masks2)]


def _admit(cfg, refiner, w1s):
    """The inner searches' ``admit`` for the W1 nodes ``w1s``: None unless
    the shared-attribute constraint is on, and then per W1 a bool row over
    the selectors, true where a selector differs from the W1's selector on
    the same attribute; a W2 meets the constraint when one of its selectors
    does."""
    if not cfg.require_shared_attribute:
        return None
    out = np.zeros((len(w1s), len(refiner.selectors)), dtype=bool)
    for row, w1 in zip(out, w1s):
        on_w1 = {s.attribute: s for s in refiner.description(w1).selectors}
        row[:] = [s.attribute in on_w1 and s != on_w1[s.attribute] for s in refiner.selectors]
    return out


def _beam_order(group, si, length, text, width):
    """Positions of the entries that beams of ``width`` keep, beam by beam
    and best first: entry i, of beam ``group[i]`` with exact SI ``si[i]``
    and description length ``length[i]``, ranks by SI descending, then
    shorter, then its rendering ``text(i)`` (made only for exact
    (SI, length) ties), then position, so that on a full tie the kept
    entries and earlier offers come first."""
    order = np.lexsort((length, -si, group))
    g, s, n = group[order], si[order], length[order]
    tie = (g[1:] == g[:-1]) & (s[1:] == s[:-1]) & (n[1:] == n[:-1])
    if tie.any():
        edge = np.zeros(si.size, dtype=bool)
        edge[1:] = tie
        edge[:-1] |= tie
        tied = order[edge].tolist()
        texts = [text(i) for i in tied]
        rank = dict(zip(sorted(set(texts)), range(len(texts))))
        by_text = np.zeros(si.size, dtype=np.int64)
        by_text[tied] = [rank[t] for t in texts]
        order = np.lexsort((by_text, length, -si, group))
        g = group[order]
    return order[np.arange(g.size) - np.searchsorted(g, g) < width]


def _inner_searches(g, model, refiner, screen, cfg, w1s, rows1):
    """The inner beam searches of the W1 nodes ``w1s`` (refiner rows
    ``rows1``), in lockstep; returns per W1 its final inner beam, best
    first, as its offers to the outer beam (``_Entries``).

    The beams are arrays, entry by entry: its W1, exact SI, W2 length, W2
    node and counts.  Each level screens its (W1, W2) pairs, scores every
    W1's contenders exactly in one batch of the scoring core (no patterns),
    and merges them with the kept entries in one sort (``_beam_order``); W2
    nodes are built for the entries kept only.  Level l refines only the
    W2s that level l - 1 added, the beam's entries of l - 1 selectors.  That
    is exact: an inner beam has no diversity floor and a strict total order,
    so its entry bar only rises, and a W2 screened out or rejected at one
    level could not enter at a later one.  An inner beam ends up holding the
    same entries as if every candidate had been scored and offered."""
    admit = _admit(cfg, refiner, w1s)
    len1 = np.array([len(w1.sels) for w1 in w1s], dtype=np.int64)
    chunk = screen.w1_rows(rows1)
    group, kept, length = np.zeros(0, dtype=np.int64), np.zeros(0), np.zeros(0, dtype=np.int64)
    counts, nodes = np.zeros((0, 2 * model.n_classes + 2), dtype=np.int64), []
    parents = [[refiner.root] for _ in w1s]
    for level in range(1, cfg.depth + 1):
        # one group of W2 parents per W1; its W2 children have level selectors
        children = refiner.expand(parents, admit)
        pi, pj, rows2 = children.group, children.row, children.rows
        H2 = refiner.class_counts(rows2)
        si, bound, edges, inside = screen.scores(chunk, (rows2, H2, children.sizes), pi, pj,
                                                 len1[pi] + level)
        # the contenders of every W1, cut W1 by W1 and scored in one batch;
        # each has a pair u != v, since the screen gives the others -inf
        picked = _contenders(si, bound, pi, kept, group, cfg.x2)
        i, j = pi[picked], pj[picked]
        hists = (chunk[2][i], H2[j], screen.overlaps(chunk, rows2, i, j))
        lengths = np.full(i.size, level, dtype=np.int64)
        _, _, exact = _columns(model, cfg.constants, (len1[i], lengths), hists,
                               edges[picked], inside[picked])
        old = len(nodes)

        def text(e):  # the rendering of entry e's W2
            if e < old:
                return str(refiner.description(nodes[e]))
            c = picked[e - old]
            sels = children.parents[children.parent[c]].sels + (int(children.sel[c]),)
            return str(Description(tuple(refiner.selectors[k] for k in sels)))

        group = np.concatenate([group, i])
        kept = np.concatenate([kept, exact.si])
        length = np.concatenate([length, lengths])
        counts = np.concatenate([counts, np.concatenate(
            [*hists[1:], edges[picked, None], inside[picked, None]], axis=1)])
        keep = _beam_order(group, kept, length, text, cfg.x2)
        added = keep[keep >= old]
        built = iter(refiner.nodes(children, picked[added - old]))
        nodes = [nodes[e] if e < old else next(built) for e in keep.tolist()]
        group, kept, length, counts = group[keep], kept[keep], length[keep], counts[keep]
        parents = [[] for _ in w1s]
        for w, node in zip(group.tolist(), nodes):
            if len(node.sels) == level:
                parents[w].append(node)
    # the outer offers of each W1, best first; the outer beam joins offers
    # into arrays of its own, so it keeps no chunk's arrays alive
    offers = _Entries(kept, len1[group] + length,
                      np.array([w1.key for w1 in w1s], dtype=np.int64)[group],
                      np.array([node.key for node in nodes], dtype=np.int64),
                      np.fromiter(w1s, object)[group], np.fromiter(nodes, object),
                      np.concatenate([chunk[2][group], counts], axis=1))
    bounds = np.searchsorted(group, np.arange(len(w1s) + 1)).tolist()
    return [offers.take(slice(a, b)) for a, b in zip(bounds[:-1], bounds[1:])]


# -- iterative mining ---------------------------------------------------------------


@dataclass
class IterationResult:
    """Per-round rankings plus the model ledger (models[t] precedes round t)."""

    rounds: list
    models: list


def iterate(g: AttributedGraph, model0: BackgroundModel, selectors,
            cfg: SearchConfig, rounds: int, absorb: int = 1) -> IterationResult:
    """Iterative mining: absorb each round's top patterns, then mine again."""
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    if absorb < 1:
        raise ValueError(f"absorb must be >= 1, got {absorb}")
    model = model0
    out = IterationResult(rounds=[], models=[model0])
    for t in range(rounds):
        patterns = nested_beam_search(g, model, selectors, cfg)
        if not patterns:
            log.warning("iteration %d returned no patterns; stopping early", t + 1)
            break
        out.rounds.append(patterns)
        for pat in patterns[:absorb]:
            model = update_with_pattern(model, pat)
        out.models.append(model)
    return out
