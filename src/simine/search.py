"""Beam search for single-subgroup patterns, nested beam search for
bi-subgroup patterns, and the iterative mining driver.

Both searches are deterministic: candidates are generated in a fixed order
and beams break score ties by (shorter total description, lexicographic
rendering).  The outer beam of the nested search holds up to x1*x2 scored
(W1, W2) pairs under a hard diversity floor of x1 distinct W1 descriptions.
Beams identify candidates, and diversity groups W1s, by description keys
(``_Refiner``), never by rendered text.
"""

from __future__ import annotations

import logging
import math
from bisect import insort
from dataclasses import dataclass, field

import numpy as np

from .background import PROB_EPS, BackgroundModel, update_with_pattern
from .descriptions import Description, selector_mask
from .graph import AttributedGraph
from .scores import (Pattern, ScoreConstants, _with_extensions, baseline_scores,
                     kl_bernoulli_many, pair_counts, score_bi, score_single)

log = logging.getLogger(__name__)

__all__ = [
    "SearchConfig",
    "Beam",
    "BeamEntry",
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


@dataclass
class BeamEntry:
    key: tuple
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


# -- candidate generation -------------------------------------------------------

_SCREEN_CELLS = 1 << 20  # cells of the nested search's screen temporaries (see _BiScreen)


def _pack(bits, words):
    """0/1 rows (the last axis) as ``words`` little-endian uint64 words per
    row, bit i of a row in bit i % 64 of word i // 64, zero past the row."""
    out = np.zeros(bits.shape[:-1] + (8 * words,), dtype=np.uint8)
    # packbits is fast only along a contiguous axis; fancy indexing along
    # the last axis leaves the rows strided
    packed = np.packbits(np.ascontiguousarray(bits), axis=-1, bitorder="little")
    out[..., :packed.shape[-1]] = packed
    return out.view("<u8")


@dataclass(eq=False)
class _Node:
    """A description in the search tree: the positions of its selectors in
    the selector list, its identity key, the row of its extension and its
    size."""

    sels: tuple
    key: tuple
    row: np.ndarray
    size: int


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
    grammar equal keys mean equal renderings.
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

        def row(mask):
            return np.concatenate([_pack(mask[order], self.words),
                                   _pack(mask[e0] & mask[e1], g.m // 64 + 1)])

        self.root = _Node((), (), row(np.ones(g.n, dtype=bool)), g.n)
        self.rows = np.empty((len(self.selectors), self.root.row.size), dtype="<u8")
        for i, s in enumerate(self.selectors):
            self.rows[i] = row(selector_mask(s, g))
        attrs, first = {}, {}
        self.attr = np.array([attrs.setdefault(s.attribute, len(attrs))
                              for s in self.selectors], dtype=np.int64)
        self.n_attrs = len(attrs)
        self.rid = [first.setdefault(s.render(), i) for i, s in enumerate(self.selectors)]
        self._cache: dict[tuple, tuple] = {}

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
        """Selector positions, keys and sizes of the admissible refinements
        of one parent, kept per parent: the inner searches of different W1s
        start from the same root and mostly refine the same W2s, so most
        lookups in the nested search repeat a parent."""
        hit = self._cache.get(parent.key)
        if hit is None:
            used = np.zeros(self.n_attrs, dtype=bool)
            used[self.attr[list(parent.sels)]] = True
            free = np.flatnonzero(~used[self.attr])
            members = self.rows[free, :self.words]
            members &= parent.row[:self.words]
            size = np.bitwise_count(members).sum(axis=1, dtype=np.int64)
            ok = (size >= self.min_size) & (size != parent.size)
            js = free[ok].tolist()
            hit = self._cache[parent.key] = (
                js, [tuple(sorted(parent.key + (self.rid[j],))) for j in js], size[ok])
        return hit

    def expand(self, groups):
        """Admissible refinements of groups of parents.  A group is
        ``(parents, seen, admit)``: the refinements of its parents, parent by
        parent and each parent's in selector order, whose keys are not in
        ``seen`` yet and that ``admit(parent, selector position, key)``
        accepts when it is not None; a child it rejects still joins ``seen``.

        Returns ``(children, rows, sizes)``: per group, ``(parent position,
        selector position, key, row)`` per child, and the rows of the
        distinct children stacked in the order they first appear.  Children
        with equal keys share one row, so with a single group row i is
        child i."""
        children = [[] for _ in groups]
        visits = []  # (parent, selectors of its children newly stacked, their sizes)
        rows: dict[tuple, int] = {}  # child key -> row of the stack
        for out, (parents, seen, admit) in zip(children, groups):
            for p, parent in enumerate(parents):
                js, keys, size = self._children(parent)
                take = []
                for r, key in enumerate(keys):
                    if key in seen:
                        continue
                    seen.add(key)
                    if admit is not None and not admit(parent, js[r], key):
                        continue
                    row = rows.get(key)
                    if row is None:
                        row = rows[key] = len(rows)
                        take.append(r)
                    out.append((p, js[r], key, row))
                if take:
                    visits.append((parent, [js[r] for r in take], size[take]))
        # the rows one parent visit adds are consecutive: gather its
        # selectors' rows straight into the stack and AND the parent in
        stack = np.empty((len(rows), self.rows.shape[1]), dtype="<u8")
        sizes = np.empty(len(rows), dtype=np.int64)
        lo = 0
        for parent, js, size in visits:
            block = stack[lo:lo + len(js)]
            # rows are in range; "clip" lets take write to the stack without a buffer
            np.take(self.rows, js, axis=0, out=block, mode="clip")
            block &= parent.row
            sizes[lo:lo + len(js)] = size
            lo += len(js)
        return children, stack, sizes

    def node(self, parents, child, rows, sizes) -> _Node:
        """The child's node; it holds a copy of its row, so a node kept in a
        beam does not keep its level's whole stack alive."""
        p, j, key, r = child
        return _Node(parents[p].sels + (j,), key, rows[r].copy(), int(sizes[r]))


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

    def scorer(desc, _node, edges, hist):
        return score_single(g, model, desc, hist, edges, cfg.constants)

    found = _single_engine(refiner, _SingleScreen(g, refiner, cfg.constants), cfg, scorer)
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

    def total_length(self) -> int:
        return len(self.w)

    def sort_key(self):
        return (-self.value, self.total_length(), self.render())


def baseline_search(g: AttributedGraph, selectors, cfg: SearchConfig, measure: str,
                    edge_surplus_alpha: float = 1.0 / 3.0) -> list[BaselineResult]:
    """Beam search with one of the objective measures as the ranking score;
    the measures read vertex sets, so every candidate is decoded."""
    if not math.isfinite(edge_surplus_alpha):
        raise ValueError(f"edge_surplus_alpha must be finite, got {edge_surplus_alpha!r}")
    refiner = _Refiner(g, None, selectors, max(2, cfg.min_extension_size))
    deg = g.degrees()

    def scorer(desc, node, edges, _hist):
        mask = refiner.masks(node.row)
        vals = baseline_scores(g, mask, edge_surplus_alpha=edge_surplus_alpha)
        return BaselineResult(w=desc, measure=measure, value=vals[measure], size=node.size,
                              edges=edges, inter_edges=int(deg[mask].sum()) - 2 * edges)

    return [res for res, _ in _single_engine(refiner, None, cfg, scorer)]


def _single_engine(refiner, screen, cfg, scorer):
    """Level-wise beam search over the refinements of ``refiner``;
    ``scorer`` gets (description, node, inner edge count, integer class
    histogram) per candidate.  Returns the ``(result, node)`` of every
    level's survivors, ranked.

    With a ``screen`` (``_SingleScreen``), the refinements of each parent
    are screened in one batch, and only those whose screening SI could place
    them in the level's beam are scored and offered to it.  The beam has no
    diversity floor and a strict total order, so it ends up holding the same
    entries as if every candidate had been scored and offered.
    """
    rows = [refiner.root]
    collected: dict[tuple, tuple] = {}  # node key -> (result, node)
    for _ in range(cfg.depth):
        seen: set[tuple] = set()
        beam = Beam(cfg.beam_width)
        for parent in rows:
            (children,), stack, sizes = refiner.expand([([parent], seen, None)])
            if not children:
                continue
            counts, hists = refiner.edges_inside(stack), refiner.class_counts(stack)
            picks = np.arange(len(children))
            if screen is not None:
                si, bound = screen.scores(hists, sizes, counts, len(parent.sels) + 1)
                picks = _contenders(si, bound, [e.payload[0].si for e in beam],
                                    cfg.beam_width)
            counts = counts.tolist()
            for i in picks.tolist():
                node = refiner.node([parent], children[i], stack, sizes)
                child = refiner.description(node)
                res = scorer(child, node, counts[i], hists[i])
                if res is not None:
                    beam.try_add(BeamEntry(res.sort_key(), node.key, node.key, (res, node)))
        if not len(beam):
            break
        rows = [e.payload[1] for e in beam]
        for e in beam:
            collected.setdefault(e.ident, e.payload)
    if not collected:
        log.warning("single-subgroup search found no candidate with extension size >= %d",
                    refiner.min_size)
        return []
    return sorted(collected.values(), key=lambda r: r[0].sort_key())


def _mass_rounding(model):
    """Relative rounding of a screen's expected mass: the screen and
    ``pair_sums`` each sum O(K) non-negative terms per dot product, in
    different orders."""
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


def _contenders(si, bound, kept, width):
    """Positions of the screened candidates (SIs ``si`` within ``bound``)
    that could enter a beam of ``width`` already holding entries of exact
    SIs ``kept``: the ``width``-th best lower bound among the candidates and
    the kept entries is a cut that a candidate's upper bound must reach."""
    finite = np.isfinite(si)
    lower = np.concatenate([(si - bound)[finite], kept])
    cut = -np.inf
    if lower.size >= width:
        cut = np.partition(lower, lower.size - width)[lower.size - width]
    return np.flatnonzero(finite & (si + bound >= cut))


class _SingleScreen:
    """Screening scores of single-subgroup candidates: the refinements of
    one parent, in one call.

    The class histograms of the candidates' rows (``_Refiner.class_counts``),
    each paired with itself, give the expected mass through
    ``pair_sums_many``, and ``pair_counts``, the counting rule of
    ``score_single``, the rest.  The search hands the same histograms and
    edge counts to ``score_single``, whose SI differs only by the rounding of
    the mass; ``scores`` returns a bound on that difference with it.
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
        H = hists.astype(np.float64)
        ordered, overlap = self.model.pair_sums_many(H, H, H)
        n_w, k_w, mass, slots = pair_counts(sizes, sizes, sizes, edges, edges, ordered,
                                            overlap, self.conv, self.directed)
        return _screen_si(n_w, k_w, mass, self.c.alpha * length + self.c.beta, self.rho,
                          slots > 0)


# -- nested bi-subgroup search ------------------------------------------------------


class _BiScreen:
    """Screening scores of (W1, W2) pairs: the pairs of one inner-search
    level of a chunk of W1s, in one call.

    It reads the refiner's rows as they are.  Per pair, the popcounts of
    W1 & W2 give the overlap's class histogram and, on undirected graphs,
    the edges inside the overlap; those of W2's members and the bit planes
    of W1's neighbour counts, packed once per chunk in class order, give the
    edge orientations, sum_b 2^b popcount(plane_b & W2).  All are exact
    integers.  ``pair_sums_many`` gives the expected mass and
    ``pair_counts``, the counting rule of ``score_bi``, the rest.  The edge
    counts are the ones ``score_bi`` takes; its SI differs only by the
    rounding of the mass, and ``scores`` returns a bound on that difference
    with it.

    No array of a block of pairs holds more than ``floats`` cells, and the
    neighbour counts of a chunk gather at most ``floats`` bits at a time (one
    W1's, when it has more).
    """

    def __init__(self, g, refiner, c, require_disjoint):
        self.refiner, self.model, self.c = refiner, refiner.model, c
        self.require_disjoint, self.directed = require_disjoint, g.directed
        self.conv = c.convention(single=False, directed=g.directed)
        # the neighbours of every vertex (its in-neighbours when directed),
        # all in class positions, grouped by vertex, and where each non-empty
        # group starts
        pos = refiner.pos
        src, dst = pos[g.edges.T]
        if not g.directed:
            src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
        self.nbr = src[np.argsort(dst, kind="stable")]
        counts = np.bincount(dst, minlength=g.n)
        self.has_nbr = counts > 0
        self.nbr_starts = (np.cumsum(counts) - counts)[self.has_nbr]
        # cells of an array of a block of pairs: few enough to keep small
        # graphs' peak memory flat, and at least eight vertex rows, so that
        # large graphs still screen in few blocks
        self.floats = max(1, _SCREEN_CELLS // 64, 8 * g.n)
        # W1s per chunk: each gathers len(nbr) cells for its neighbour counts
        # and holds them as n integers, besides its inner search's candidates
        # and beam; half the float budget keeps small graphs' peak flat
        self.w1_step = max(1, min(_SCREEN_CELLS // max(1, self.nbr.size),
                                  self.floats // (2 * g.n)))
        self.rho = _mass_rounding(self.model)

    def w1_rows(self, rows):
        """The screen's view of a chunk of at most ``w1_step`` W1s with
        refiner rows ``rows``: the rows, the bit planes of each W1's
        neighbour counts in class order (in-neighbours in the W1 when
        directed), its class histogram (int64) and its size.  Returns
        ``(rows, planes, H, sizes)``."""
        bits = self.refiner.unpack(rows)
        words = self.refiner.words
        D = np.zeros(bits.shape, dtype=np.int64)
        # reduceat counts in int64, so a few W1s at a time
        step = max(1, self.floats // max(1, self.nbr.size))
        for r in range(0, len(rows) if self.nbr.size else 0, step):
            D[r:r + step, self.has_nbr] = np.add.reduceat(bits[r:r + step, self.nbr],
                                                          self.nbr_starts, axis=1)
        planes = np.empty((len(rows), int(D.max(initial=0)).bit_length(), words), dtype="<u8")
        for b in range(planes.shape[1]):
            planes[:, b] = _pack(D & (1 << b) != 0, words)
        H = self.refiner.class_counts(rows)
        return rows, planes, H, H.sum(axis=1)

    def scores(self, w1, w2, pi, pj, lengths):
        """``(si, bound, edges, inside)`` per pair of W1 ``pi[i]`` of the
        chunk ``w1`` (``w1_rows``) and W2 ``pj[i]`` of ``w2``, the refiner
        rows of a level's W2s with their class histograms (int64) and sizes,
        whose descriptions have ``lengths[i]`` selectors together.
        ``si`` is -inf where ``score_bi`` returns None or the pair breaks
        disjointness; ``edges`` and ``inside`` are the counts ``score_bi``
        takes.  The pairs go in blocks whose arrays hold at most ``floats``
        cells."""
        out = (np.empty(len(pi)), np.empty(len(pi)),
               np.empty(len(pi), dtype=np.int64), np.empty(len(pi), dtype=np.int64))
        # cells per pair of a block's widest array; the mass core holds a few
        # arrays K wide at once, so a block takes half the budget
        cells = max(w1[1][0].size, w2[0].shape[1], self.model.n_classes + 1)
        step = max(1, self.floats // (2 * cells))
        for lo in range(0, len(pi), step):
            sel = slice(lo, lo + step)
            for column, values in zip(out, self._block(w1, w2, pi[sel], pj[sel],
                                                       lengths[sel])):
                column[sel] = values
        return out

    def overlaps(self, w1, rows2, pi, pj):
        """The class histograms (int64) of the intersections of W1 ``pi[i]``
        of the chunk ``w1`` and W2 row ``pj[i]`` of ``rows2``, one row per
        pair."""
        words = self.refiner.words
        over = w1[0][pi, :words]
        over &= rows2[pj, :words]
        return self.refiner.class_counts(over)

    def _block(self, w1, w2, i, j, lengths):
        """``scores`` of the pairs (W1 ``i[k]``, W2 ``j[k]``) of one block."""
        R1, P1, H1, a = w1
        R2, H2, b = w2
        words = self.refiner.words
        # W1 & W2: its members, and on undirected graphs its inner edges
        width = words if self.directed else R1.shape[1]
        B2 = R2[j, :width]
        over = R1[i, :width]
        over &= B2
        H_o = self.refiner.class_counts(over)
        o = H_o.sum(axis=1)
        a, b = a[i], b[j]
        ordered, overlap = self.model.pair_sums_many(
            *(h.astype(np.float64) for h in (H1[i], H2[j], H_o)))
        # edge orientations (u in W1, v in W2), ordered edges when directed;
        # an undirected edge inside W1 and W2 has both orientations counted
        X = P1[i]
        X &= B2[:, None, :words]
        weights = np.left_shift(1, np.arange(X.shape[1], dtype=np.int64))
        orient = np.bitwise_count(X).sum(axis=-1, dtype=np.int64) @ weights
        inside = np.zeros_like(o) if self.directed else self.refiner.edges_inside(over)
        edges = orient - inside
        n_w, k_w, mass, slots = pair_counts(a, b, o, edges, inside, ordered, overlap,
                                            self.conv, self.directed)
        valid = slots > 0
        if self.require_disjoint:
            valid &= o == 0
        si, bound = _screen_si(n_w, k_w, mass, self.c.alpha * lengths + self.c.beta,
                               self.rho, valid)
        return si, bound, edges, inside


def nested_beam_search(g: AttributedGraph, model: BackgroundModel, selectors,
                       cfg: SearchConfig) -> list[Pattern]:
    """Nested beam search for bi-subgroup patterns.

    The outer beam explores W1 refinements; each refined W1 runs a fresh
    inner beam search over W2 candidates scored as (W1, W2, I, k_w).  Inner
    survivors are pushed into the outer beam, which keeps at most x1*x2
    entries spanning at least x1 distinct W1 descriptions.

    The inner searches of the W1s refined at one outer level run in
    lockstep, one screen chunk of W1s at a time: each inner level expands
    the inner beam of every W1 of the chunk, and the level's (W1, W2) pairs
    are screened in one batch (``_BiScreen``).  Per W1, only the candidates
    whose screening SI could place them in its inner beam are scored by
    ``score_bi``, with the screen's edge counts and class histograms, and
    offered to it.  An inner beam has no diversity floor and a strict total
    order, so it ends up holding the same entries as if every candidate had
    been scored and offered.  Inner beams do not read one another, and their
    survivors reach the outer beam W1 by W1, so the result is the one of
    running each W1's inner search on its own.  Only the reported patterns'
    extensions are decoded, once the outer beam is final.
    """
    refiner = _Refiner(g, model, selectors, max(1, cfg.min_extension_size))
    screen = _BiScreen(g, refiner, cfg.constants, cfg.require_disjoint_extensions)
    outer = Beam(cfg.x1 * cfg.x2, diversity_floor=cfg.x1)
    for depth in range(cfg.depth):
        # the root, then the outer beam's distinct W1 nodes (one per W1) in beam order
        frontier = (list(dict.fromkeys(e.payload[1] for e in outer.entries)) if depth
                    else [refiner.root])
        (children,), rows, sizes = refiner.expand([(frontier, set(), None)])
        # one screen chunk of W1s at a time, which bounds the inner searches'
        # state as well as the screen's temporaries
        for lo in range(0, len(children), screen.w1_step):
            w1s = [refiner.node(frontier, child, rows, sizes)
                   for child in children[lo:lo + screen.w1_step]]
            inner = _inner_searches(g, model, refiner, screen, cfg, w1s,
                                    rows[lo:lo + screen.w1_step])
            for w1, beam in zip(w1s, inner):
                for e in beam:
                    pat, w2 = e.payload
                    outer.try_add(BeamEntry(e.key, (w1.key, w2.key), w1.key, (pat, w1, w2)))
    if not outer.entries:
        log.warning("nested search produced no admissible (W1, W2) candidate "
                    "under the active constraints")
        return []
    # the reported patterns' extensions, one batch per side
    masks1, masks2 = (refiner.masks(np.array([e.payload[side].row for e in outer.entries]))
                      for side in (1, 2))
    return [_with_extensions(e.payload[0], g, m1, m2)
            for e, m1, m2 in zip(outer.entries, masks1, masks2)]


def _admit(cfg, refiner, z1, beam):
    """The inner search's ``admit`` for one W1 and its inner beam: a W2
    not in the beam yet, that meets the shared-attribute constraint when it
    is on."""
    present = {e.ident for e in beam}
    if not cfg.require_shared_attribute:
        return lambda parent, j, key: key not in present
    # a W2 meets the constraint when one of its selectors differs from W1's
    # selector on the same attribute
    on_w1 = {s.attribute: s for s in z1.selectors}
    differs = [s.attribute in on_w1 and s != on_w1[s.attribute] for s in refiner.selectors]
    return lambda parent, j, key: key not in present and (
        differs[j] or any(differs[k] for k in parent.sels))


def _inner_searches(g, model, refiner, screen, cfg, w1s, rows1):
    """The inner beam searches of the W1 nodes ``w1s`` (refiner rows
    ``rows1``), in lockstep; returns each W1's final inner beam, whose
    entries hold ``(pattern, W2 node)``."""
    z1s = [refiner.description(w1) for w1 in w1s]
    len1 = np.array([len(w1.sels) for w1 in w1s], dtype=np.int64)
    chunk = screen.w1_rows(rows1)
    beams = [Beam(cfg.x2) for _ in w1s]
    rows = [[refiner.root] for _ in w1s]
    for _ in range(cfg.depth):
        children, rows2, sizes2 = refiner.expand(
            [(r, set(), _admit(cfg, refiner, z1, beam)) for r, z1, beam in zip(rows, z1s, beams)])
        pi = np.repeat(np.arange(len(w1s)), [len(ch) for ch in children])
        pj = np.array([row for ch in children for _, _, _, row in ch], dtype=np.int64)
        lengths = len1[pi] + np.array([len(key) for ch in children for _, _, key, _ in ch],
                                      dtype=np.int64)
        H2 = refiner.class_counts(rows2)
        si, bound, edges, inside = screen.scores(chunk, (rows2, H2, sizes2), pi, pj, lengths)
        starts = np.cumsum([0] + [len(ch) for ch in children]).tolist()
        # the contenders of every W1, W1 by W1, and their overlap histograms
        picked = np.concatenate([
            lo + _contenders(si[lo:hi], bound[lo:hi], [e.payload[0].si for e in beam], cfg.x2)
            for beam, lo, hi in zip(beams, starts, starts[1:])])
        h_o = screen.overlaps(chunk, rows2, pi[picked], pj[picked])
        for k, at in enumerate(picked.tolist()):
            w = int(pi[at])
            node = refiner.node(rows[w], children[w][at - starts[w]], rows2, sizes2)
            pat = score_bi(g, model, z1s[w], refiner.description(node),
                           (chunk[2][w], H2[pj[at]], h_o[k]), int(edges[at]), int(inside[at]),
                           cfg.constants)
            if pat is not None:
                beams[w].try_add(BeamEntry(pat.sort_key(), node.key, node.key, (pat, node)))
        rows = [[e.payload[1] for e in beam] for beam in beams]
    return beams


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
