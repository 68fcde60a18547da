"""Beam search for single-subgroup patterns, nested beam search for
bi-subgroup patterns, and the iterative mining driver.

Both searches are deterministic: candidates are generated in a fixed order
and beams break score ties by (shorter total description, lexicographic
rendering).  The outer beam of the nested search holds up to x1*x2 scored
(W1, W2) pairs under a hard diversity floor of x1 distinct W1 descriptions.
"""

from __future__ import annotations

import logging
from bisect import insort
from dataclasses import dataclass, field

import numpy as np

from .background import PROB_EPS, BackgroundModel, update_with_pattern
from .descriptions import Description, selector_mask
from .graph import AttributedGraph
from .scores import (Pattern, ScoreConstants, baseline_scores, kl_bernoulli_many,
                     pair_counts, score_bi, score_single)

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
    ident: str
    group: str
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
        self._present: set[str] = set()
        self._group_counts: dict[str, int] = {}

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

_EDGE_CELLS = 1 << 22  # cells of the (sets x edges) array counting edges inside sets
_SCREEN_CELLS = 1 << 20  # cells of the (candidates x vertices) block screened at once
_CHILD_CACHE_BYTES = 1 << 23  # cached child extensions per search


@dataclass(eq=False)
class _Node:
    """A description in the search tree: the positions of its selectors in
    the selector list, its identity key, its extension and its size."""

    sels: tuple
    key: tuple
    mask: np.ndarray
    size: int


class _Refiner:
    """The selectors of one search as a selector x vertex matrix, and the
    admissible refinements of descriptions computed from it.

    A refinement adds one selector on an attribute its parent does not
    constrain yet.  It is admissible when its extension has at least
    ``min_size`` vertices and fewer than its parent's.  Within one level a
    refinement reached from several parents is kept once, from the first.
    A description's key is the sorted tuple of its selectors' rendering ids
    (selectors that render alike share one), so under the description
    grammar equal keys mean equal renderings.
    """

    def __init__(self, g, selectors, min_size):
        self.selectors = list(selectors)
        self.min_size = min_size
        self.matrix = np.zeros((len(self.selectors), g.n), dtype=bool)
        for i, s in enumerate(self.selectors):
            self.matrix[i] = selector_mask(s, g)
        attrs, first = {}, {}
        self.attr = np.array([attrs.setdefault(s.attribute, len(attrs))
                              for s in self.selectors], dtype=np.int64)
        self.n_attrs = len(attrs)
        self.rid = [first.setdefault(s.render(), i) for i, s in enumerate(self.selectors)]
        self.root = _Node((), (), np.ones(g.n, dtype=bool), g.n)
        self._cache: dict[tuple, tuple] = {}
        self._cache_bytes = 0

    def description(self, node) -> Description:
        return Description(tuple(self.selectors[i] for i in node.sels))

    def _children(self, parent):
        """Selector positions, keys, extensions and sizes of the admissible
        refinements of one parent.  Kept per parent until the cached
        extensions reach ``_CHILD_CACHE_BYTES``: the inner searches of
        different W1s start from the same root and mostly refine the same
        W2s, so most lookups in the nested search repeat a parent."""
        hit = self._cache.get(parent.key)
        if hit is not None:
            return hit
        used = np.zeros(self.n_attrs, dtype=bool)
        used[self.attr[list(parent.sels)]] = True
        free = np.flatnonzero(~used[self.attr])
        masks = self.matrix[free] & parent.mask
        size = np.count_nonzero(masks, axis=1)
        ok = (size >= self.min_size) & (size != parent.size)
        js = free[ok].tolist()
        hit = (js, [tuple(sorted(parent.key + (self.rid[j],))) for j in js],
               masks[ok], size[ok])
        if self._cache_bytes + hit[2].nbytes <= _CHILD_CACHE_BYTES:
            self._cache[parent.key] = hit
            self._cache_bytes += hit[2].nbytes
        return hit

    def expand(self, parents, seen, admit=None):
        """Admissible refinements of ``parents``, parent by parent and each
        parent's in selector order, that ``admit(parent, selector position,
        key)`` accepts when given; a child it rejects still counts as seen.
        Returns ``(children, masks, sizes)``: ``(parent position, selector
        position, key)`` per child and the children's extensions stacked as
        rows."""
        children, picks = [], []
        for p, parent in enumerate(parents):
            js, keys, masks, size = self._children(parent)
            rows = []
            for r, key in enumerate(keys):
                if key not in seen:
                    seen.add(key)
                    if admit is None or admit(parent, js[r], key):
                        rows.append(r)
                        children.append((p, js[r], key))
            picks.append((masks, size, rows))
        # gather the rows straight into one stack, without per-parent copies
        out = np.empty((len(children), self.matrix.shape[1]), dtype=bool)
        sizes = np.empty(len(children), dtype=np.int64)
        lo = 0
        for masks, size, rows in picks:
            hi = lo + len(rows)
            # rows are in range; "clip" lets take write to out without a buffer
            np.take(masks, rows, axis=0, out=out[lo:hi], mode="clip")
            sizes[lo:hi] = size[rows]
            lo = hi
        return children, out, sizes

    def node(self, parents, child, mask, size) -> _Node:
        """The child's node; it holds a copy of its extension, so a node kept
        in a beam does not keep its level's whole stack alive."""
        p, j, key = child
        return _Node(parents[p].sels + (j,), key, mask.copy(), int(size))

    def nodes(self, parents, children, masks, sizes):
        for i, child in enumerate(children):
            yield self.node(parents, child, masks[i], sizes[i])


def _edges_inside(masks, e0, e1):
    """Number of edges (e0[i], e1[i]) with both ends in each row of ``masks``."""
    out = np.zeros(len(masks), dtype=np.int64)
    step = max(1, _EDGE_CELLS // max(1, e0.size))
    for i in range(0, len(masks), step):
        m = masks[i:i + step]
        out[i:i + step] = np.count_nonzero(m[:, e0] & m[:, e1], axis=1)
    return out


# -- single-subgroup search -------------------------------------------------------


def beam_search_single(g: AttributedGraph, model: BackgroundModel, selectors,
                       cfg: SearchConfig) -> list[Pattern]:
    """Classic level-wise beam search over descriptions, scored by SI.

    Each of ``cfg.depth`` rounds refines every beam entry with every
    admissible selector and keeps the ``cfg.beam_width`` best refinements;
    the result merges all rounds' survivors, ranked by SI.
    """
    def scorer(desc, mask, _size, edges):
        return score_single(g, model, desc, mask, cfg.constants, edges=edges)

    return _single_engine(g, selectors, cfg, scorer)


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
    """Beam search with one of the objective measures as the ranking score."""
    deg = g.degrees()

    def scorer(desc, mask, size, edges):
        vals = baseline_scores(g, mask, edge_surplus_alpha=edge_surplus_alpha)
        return BaselineResult(w=desc, measure=measure, value=vals[measure], size=size,
                              edges=edges, inter_edges=int(deg[mask].sum()) - 2 * edges)

    return _single_engine(g, selectors, cfg, scorer)


def _single_engine(g, selectors, cfg, scorer):
    """Level-wise beam search; ``scorer`` gets (description, mask, size, inner
    edge count) per candidate."""
    refiner = _Refiner(g, selectors, max(2, cfg.min_extension_size))
    e0, e1 = np.ascontiguousarray(g.edges.T)
    rows = [refiner.root]
    collected: dict[str, object] = {}
    scored_any = False
    for _ in range(cfg.depth):
        seen: set[tuple] = set()
        beam = Beam(cfg.beam_width)
        for parent in rows:
            children, masks, sizes = refiner.expand([parent], seen)
            # a child's inner edges are among its parent's: count over those
            inside = parent.mask[e0] & parent.mask[e1]
            counts = _edges_inside(masks, e0[inside], e1[inside])
            for node, edge_count in zip(refiner.nodes([parent], children, masks, sizes),
                                        counts.tolist()):
                child = refiner.description(node)
                res = scorer(child, node.mask, node.size, edge_count)
                if res is None:
                    continue
                scored_any = True
                name = str(child)
                beam.try_add(BeamEntry(res.sort_key(), name, group=name, payload=(res, node)))
        if not len(beam):
            break
        rows = [e.payload[1] for e in beam]
        for e in beam:
            collected.setdefault(e.ident, e.payload[0])
    if not scored_any:
        log.warning("single-subgroup search found no candidate with extension size >= %d",
                    refiner.min_size)
        return []
    return sorted(collected.values(), key=lambda r: r.sort_key())


# -- nested bi-subgroup search ------------------------------------------------------


class _BiScreen:
    """Screening scores of many W2 candidates against one W1.

    The SI of every candidate comes from a handful of array operations:
    class histograms and ``pair_sums_many`` for the expected mass, the
    neighbour counts of W1 for the observed edges, and ``pair_counts``, the
    counting rule of ``score_bi``.  It differs from ``score_bi``'s SI only by
    rounding, and ``scores`` returns a bound on that difference with it.
    """

    def __init__(self, g, model, c, z1, mask1, edges, require_disjoint):
        self.model, self.c, self.require_disjoint = model, c, require_disjoint
        self.directed = g.directed
        self.conv = c.convention(single=False, directed=g.directed)
        self.mask1 = mask1
        self.a = int(np.count_nonzero(mask1))
        self.len1 = len(z1)
        self.h1 = model.class_histograms(mask1[None, :])[0]
        e0, e1 = edges[:, 0], edges[:, 1]
        from1 = mask1[e0]
        # neighbours in W1 of every vertex (in-neighbours when directed)
        self.d1 = np.bincount(e1[from1], minlength=g.n)
        if not self.directed:
            self.d1 += np.bincount(e0[mask1[e1]], minlength=g.n)
        inside = from1 & mask1[e1]
        self.e0, self.e1 = e0[inside], e1[inside]
        # relative rounding of the expected mass: this path and pair_sums each
        # sum O(K) non-negative terms per dot product, in different orders
        self.rho = 8.0 * (model.n_classes + 8) * np.finfo(np.float64).eps

    def scores(self, masks, sizes, lengths):
        """``(si, bound)`` per candidate row of ``masks``; ``si`` is -inf
        where ``score_bi`` returns None or the pair breaks disjointness.
        Rows go in blocks of ``_SCREEN_CELLS`` cells, which bounds the
        temporaries: the overlaps and the class-sorted copies of a block."""
        si, bound = np.empty(len(masks)), np.empty(len(masks))
        step = max(1, _SCREEN_CELLS // max(1, masks.shape[1]))
        for i in range(0, len(masks), step):
            rows = slice(i, i + step)
            si[rows], bound[rows] = self._block(masks[rows], sizes[rows], lengths[rows])
        return si, bound

    def _block(self, masks, sizes, lengths):
        over = masks & self.mask1
        o = np.count_nonzero(over, axis=1)
        H = self.model.class_histograms(masks)
        H_o = self.model.class_histograms(over)
        ordered, overlap = self.model.pair_sums_many(self.h1, H, H_o)
        # edge orientations (u in W1, v in W2), ordered edges when directed;
        # einsum casts the bool rows in small buffers, not as a whole int copy
        orient = np.einsum("ij,j->i", masks, self.d1)
        # an undirected edge inside W1 and W2 has both orientations counted
        inside = 0 if self.directed else _edges_inside(over, self.e0, self.e1)
        n_w, k_w, mass, slots = pair_counts(self.a, sizes, o, orient - inside, inside,
                                            ordered, overlap, self.conv, self.directed)
        valid = slots > 0
        if self.require_disjoint:
            valid &= o == 0
        n_w = np.where(valid, n_w, 1)
        q, p = k_w / n_w, mass / n_w
        dl = self.c.alpha * (self.len1 + lengths) + self.c.beta
        si = n_w * kl_bernoulli_many(q, p) / dl
        # a mass off by rho moves KL(q || p) by rho * |p - q| / (1 - p); the
        # divergence's own rounding stays below 1e-13 for a clamped p
        pc = np.clip(p, PROB_EPS, 1.0 - PROB_EPS)
        drift = self.rho * np.abs(pc - q) / (1.0 - pc)
        bound = 1e-9 * np.abs(si) + n_w / dl * (1e-13 + drift)
        return np.where(valid, si, -np.inf), bound


def nested_beam_search(g: AttributedGraph, model: BackgroundModel, selectors,
                       cfg: SearchConfig) -> list[Pattern]:
    """Nested beam search for bi-subgroup patterns.

    The outer beam explores W1 refinements; each refined W1 runs a fresh
    inner beam search over W2 candidates scored as (W1, W2, I, k_w).  Inner
    survivors are pushed into the outer beam, which keeps at most x1*x2
    entries spanning at least x1 distinct W1 descriptions.

    Each level of an inner search is screened as one batch (``_BiScreen``);
    only the candidates whose screening SI could place them in the inner
    beam are scored by ``score_bi`` and offered to it.  The inner beam has
    no diversity floor and a strict total order, so it ends up holding the
    same entries as if every candidate had been scored and offered.
    """
    refiner = _Refiner(g, selectors, max(1, cfg.min_extension_size))
    edges = g.edges
    outer = Beam(cfg.x1 * cfg.x2, diversity_floor=cfg.x1)
    w1_nodes: dict[str, _Node] = {}
    expanded_any = False
    for depth in range(cfg.depth):
        if depth == 0:
            frontier = [refiner.root]
        else:
            frontier = []
            named = set()
            for e in outer.entries:
                ident = str(e.payload.w1)
                if ident not in named:
                    named.add(ident)
                    frontier.append(w1_nodes[ident])
        for w1 in refiner.nodes(frontier, *refiner.expand(frontier, set())):
            z1 = refiner.description(w1)
            pats = _inner_search(g, model, refiner, cfg, z1, w1, edges)
            expanded_any = expanded_any or bool(pats)
            w1_nodes.setdefault(str(z1), w1)
            for pat in pats:
                outer.try_add(BeamEntry(pat.sort_key(), pat.render(),
                                        group=str(pat.w1), payload=pat))
    if not expanded_any:
        log.warning("nested search produced no admissible (W1, W2) candidate "
                    "under the active constraints")
        return []
    return [e.payload for e in outer.entries]


def _inner_search(g, model, refiner, cfg, z1, w1, edges):
    """The inner beam search of one W1; returns its surviving patterns."""
    screen = _BiScreen(g, model, cfg.constants, z1, w1.mask, edges,
                       cfg.require_disjoint_extensions)
    differs = None
    if cfg.require_shared_attribute:
        # a W2 meets the constraint when one of its selectors differs from
        # W1's selector on the same attribute
        on_w1 = {s.attribute: s for s in z1.selectors}
        differs = [s.attribute in on_w1 and s != on_w1[s.attribute]
                   for s in refiner.selectors]
    inner = Beam(cfg.x2)
    present: set[tuple] = set()  # keys of the inner beam's entries

    def admit(parent, j, key):
        return key not in present and (differs is None or differs[j]
                                       or any(differs[k] for k in parent.sels))

    rows = [refiner.root]
    for _ in range(cfg.depth):
        present = {e.payload[1].key for e in inner}
        children, masks, sizes = refiner.expand(rows, set(), admit)
        lengths = np.array([len(rows[p].sels) + 1 for p, _, _ in children], dtype=np.int64)
        si, bound = screen.scores(masks, sizes, lengths)
        # the x2-th best lower bound among the candidates and the beam's exact
        # SIs; a candidate whose upper bound falls short cannot enter the beam
        lower = np.concatenate([(si - bound)[np.isfinite(si)],
                                [e.payload[0].si for e in inner]])
        cut = -np.inf
        if lower.size >= cfg.x2:
            cut = np.partition(lower, lower.size - cfg.x2)[lower.size - cfg.x2]
        for i in np.flatnonzero(np.isfinite(si) & (si + bound >= cut)).tolist():
            node = refiner.node(rows, children[i], masks[i], sizes[i])
            z2 = refiner.description(node)
            pat = score_bi(g, model, z1, w1.mask, z2, node.mask, cfg.constants)
            if pat is None:
                continue
            name = str(z2)
            inner.try_add(BeamEntry(pat.sort_key(), name, group=name, payload=(pat, node)))
        rows = [e.payload[1] for e in inner]
    return [e.payload[0] for e in inner]


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
