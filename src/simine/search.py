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

from .background import BackgroundModel, update_with_pattern
from .descriptions import EMPTY_DESCRIPTION, Description, selector_mask
from .graph import AttributedGraph
from .scores import (Pattern, ScoreConstants, baseline_scores, score_bi,
                     score_single)

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


def _selector_masks(g, selectors):
    return [selector_mask(s, g) for s in selectors]


def _expand(parent_desc, parent_mask, parent_size, selectors, masks, min_size, seen):
    """Admissible refinements of one description, in selector order."""
    out = []
    for sel, smask in zip(selectors, masks):
        if sel.attribute in parent_desc.attributes:
            continue
        child = parent_desc.with_selector(sel)
        ident = str(child)
        if ident in seen:
            continue
        mask = parent_mask & smask
        size = int(np.count_nonzero(mask))
        if size < min_size or size == parent_size:
            continue
        seen.add(ident)
        out.append((child, mask, size))
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
    masks = _selector_masks(g, selectors)
    edges = g.edges
    min_size = max(2, cfg.min_extension_size)
    beam_rows = [(EMPTY_DESCRIPTION, np.ones(g.n, dtype=bool), g.n)]
    collected: dict[str, object] = {}
    scored_any = False
    for _ in range(cfg.depth):
        seen: set[str] = set()
        beam = Beam(cfg.beam_width)
        for desc, mask, size in beam_rows:
            # a child's inner edges are among its parent's: count over those
            inner = edges[mask[edges[:, 0]] & mask[edges[:, 1]]]
            e0, e1 = inner[:, 0], inner[:, 1]
            for child, cmask, csize in _expand(desc, mask, size, selectors, masks,
                                               min_size, seen):
                res = scorer(child, cmask, csize,
                             int(np.count_nonzero(cmask[e0] & cmask[e1])))
                if res is None:
                    continue
                scored_any = True
                beam.try_add(BeamEntry(res.sort_key(), str(child), group=str(child),
                                       payload=(res, child, cmask, csize)))
        if not len(beam):
            break
        beam_rows = [(e.payload[1], e.payload[2], e.payload[3]) for e in beam]
        for e in beam:
            collected.setdefault(e.ident, e.payload[0])
    if not scored_any:
        log.warning("single-subgroup search found no candidate with extension size >= %d",
                    min_size)
        return []
    return sorted(collected.values(), key=lambda r: r.sort_key())


# -- nested bi-subgroup search ------------------------------------------------------


def _pair_constraints_ok(z1, z2, mask1, mask2, cfg):
    if cfg.require_shared_attribute:
        shared = z1.attributes & z2.attributes
        if not shared:
            return False
        sel1 = {s.attribute: s for s in z1.selectors}
        sel2 = {s.attribute: s for s in z2.selectors}
        if not any(sel1[a] != sel2[a] for a in shared):
            return False
    if cfg.require_disjoint_extensions and bool(np.any(mask1 & mask2)):
        return False
    return True


def nested_beam_search(g: AttributedGraph, model: BackgroundModel, selectors,
                       cfg: SearchConfig) -> list[Pattern]:
    """Nested beam search for bi-subgroup patterns.

    The outer beam explores W1 refinements; each refined W1 runs a fresh
    inner beam search over W2 candidates scored as (W1, W2, I, k_w).  Inner
    survivors are pushed into the outer beam, which keeps at most x1*x2
    entries spanning at least x1 distinct W1 descriptions.
    """
    masks = _selector_masks(g, selectors)
    min_size = max(1, cfg.min_extension_size)
    outer = Beam(cfg.x1 * cfg.x2, diversity_floor=cfg.x1)
    w1_masks: dict[str, tuple] = {}
    full = np.ones(g.n, dtype=bool)

    def inner_search(z1, m1):
        inner = Beam(cfg.x2)
        rows = [(EMPTY_DESCRIPTION, full, g.n)]
        for _ in range(cfg.depth):
            seen: set[str] = set()
            cands = []
            for desc, mask, size in rows:
                cands.extend(_expand(desc, mask, size, selectors, masks, min_size, seen))
            for z2, m2, s2 in cands:
                if not _pair_constraints_ok(z1, z2, m1, m2, cfg):
                    continue
                pat = score_bi(g, model, z1, m1, z2, m2, cfg.constants)
                if pat is None:
                    continue
                inner.try_add(BeamEntry(pat.sort_key(), str(z2), group=str(z2),
                                        payload=(pat, m2, s2)))
            rows = [(e.payload[0].w2, e.payload[1], e.payload[2]) for e in inner]
        return [e.payload[0] for e in inner]

    expanded_any = False
    for depth in range(cfg.depth):
        if depth == 0:
            frontier = [(EMPTY_DESCRIPTION, full, g.n)]
        else:
            frontier = []
            named = set()
            for e in outer.entries:
                ident = str(e.payload.w1)
                if ident not in named:
                    named.add(ident)
                    frontier.append(w1_masks[ident])
        seen1: set[str] = set()
        for desc, mask, size in frontier:
            for z1, m1, s1 in _expand(desc, mask, size, selectors, masks, min_size, seen1):
                pats = inner_search(z1, m1)
                expanded_any = expanded_any or bool(pats)
                w1_masks.setdefault(str(z1), (z1, m1, s1))
                for pat in pats:
                    outer.try_add(BeamEntry(pat.sort_key(), pat.render(),
                                            group=str(pat.w1), payload=pat))
    if not expanded_any:
        log.warning("nested search produced no admissible (W1, W2) candidate "
                    "under the active constraints")
        return []
    return [e.payload for e in outer.entries]


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
