"""Pattern scoring: pair counting, Bernoulli KL, information content,
description length, subjective interestingness and the eight objective
baseline measures.

All information quantities are in natural-log units.  The information
content of a pattern is the Chernoff/Hoeffding lower bound

    IC = n_w * KL(k_w / n_w || p_w)

where ``n_w`` counts the pattern's pair universe, ``k_w`` the observed
count and ``p_w`` the mean background probability over those pairs; the
same value serves both the dense and the sparse direction because
KL(q || p) = KL(1-q || 1-p).  Subjective interestingness is IC divided by
the description length alpha * (#selectors) + beta.

Pair counting: a single-subgroup pattern is the bi-subgroup pattern with
W1 = W2, so both are scored over the pairs of two extensions of sizes a and
b that share o vertices, by one rule (``pair_counts``, which the batched
screen of the nested search shares).  The ordered convention counts
a*b - o pairs, both orientations of each edge and the ordered probability
mass; the unordered convention counts a*b - o*(o+1)/2 pairs, each edge once
and the distinct-pair mass.  Directed graphs always use the ordered
convention.  For undirected graphs the default ("auto") scores
single-subgroup patterns in the ordered convention and bi-subgroup patterns
in the unordered one; ``ScoreConstants.pair_counting`` can force either.

Scoring reads counts only, and a batch at a time: ``score_single`` and
``score_bi`` take lists of descriptions with one row of class histograms and
edge counts per description, and return a list of patterns without
extension ids; there is no graph argument and no one-row form.  Both wrap
one core over arrays (``_columns``: the histograms' sizes and masses, mapped
to scores by ``_mass_columns``), which the nested search's inner levels call
directly, with description lengths as integers, to rank candidates without
building patterns; ``score_single_counts`` feeds the same mapping a printed
expected edge count.  A row scores bit for bit the same in any batch and at
any place in it, so every reported SI is the SI its pattern was ranked by,
and equals ``rescore``'s, which counts decoded extensions and scores them as
a batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .background import PROB_EPS, BackgroundModel, pair_universe
from .descriptions import Description, extension
from .graph import AttributedGraph

__all__ = [
    "ScoreConstants",
    "Pattern",
    "kl_bernoulli",
    "kl_bernoulli_many",
    "information_content",
    "description_length",
    "pair_counts",
    "score_single_counts",
    "score_single",
    "score_bi",
    "rescore",
    "baseline_scores",
    "MEASURE_NAMES",
]

MEASURE_NAMES = ["edge_density", "avg_degree", "pool", "edge_surplus",
                 "segregation", "modularity1", "inv_avg_odf", "inv_conductance"]
_MASS_CELLS = 1 << 12  # cells per K-wide temporary of the exact mass: rows go in blocks


@dataclass(frozen=True)
class ScoreConstants:
    """Description-length constants and the pair-counting convention."""

    alpha: float = 0.3
    beta: float = 0.5
    pair_counting: str = "auto"  # auto | ordered | unordered

    def __post_init__(self):
        if not (0 < self.alpha < math.inf and 0 < self.beta < math.inf):
            raise ValueError(f"alpha and beta must be finite and positive, got "
                             f"alpha={self.alpha!r}, beta={self.beta!r}")
        if self.pair_counting not in ("auto", "ordered", "unordered"):
            raise ValueError(f"unknown pair counting {self.pair_counting!r}")

    def convention(self, single: bool, directed: bool) -> str:
        """The convention a pattern is scored in."""
        if directed:
            return "ordered"
        if self.pair_counting == "auto":
            return "ordered" if single else "unordered"
        return self.pair_counting


@dataclass(eq=False)
class Pattern:
    """A scored (bi-)subgroup pattern.

    ``k_w``/``n_w``/``p_w`` are in the scoring convention's units (so
    ``si == ic / dl`` holds as stated); ``edges``/``pair_slots``/
    ``expected_edges`` are in observed-edge units, matching the counts a
    report prints.  ``w2 is None`` marks a single-subgroup pattern.
    """

    w1: Description
    w2: Description | None
    direction: int
    k_w: int
    n_w: int
    p_w: float
    ic: float
    dl: float
    si: float
    size1: int
    size2: int
    overlap: int
    edges: int
    pair_slots: int
    expected_edges: float
    convention: str
    ext1_ids: np.ndarray = field(repr=False, default=None)
    ext2_ids: np.ndarray = field(repr=False, default=None)
    inter_edges: int | None = None

    @property
    def is_single(self) -> bool:
        return self.w2 is None

    def total_length(self) -> int:
        return len(self.w1) + (len(self.w2) if self.w2 is not None else 0)

    def render(self) -> str:
        if self.w2 is None:
            return str(self.w1)
        return f"{self.w1} || {self.w2}"

    def sort_key(self):
        """Ranking order: SI descending, then shorter, then lexicographic."""
        return (-self.si, self.total_length(), self.render())


# -- elementary quantities -----------------------------------------------------


def kl_bernoulli(q: float, p: float) -> float:
    """KL divergence between Bernoulli(q) and Bernoulli(p), natural log:
    the one-element case of ``kl_bernoulli_many``.

    ``p`` is clamped away from {0, 1}; ``0 * log 0`` is taken as 0, so the
    identity KL(q||p) == KL(1-q||1-p) holds exactly.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must lie in [0, 1]")
    return float(kl_bernoulli_many(q, p))


def kl_bernoulli_many(q, p) -> np.ndarray:
    """Elementwise ``kl_bernoulli`` of two arrays, with the same clamp and
    ``0 * log 0 = 0`` rule."""
    q = np.asarray(q, dtype=np.float64)
    p = np.clip(p, PROB_EPS, 1.0 - PROB_EPS)
    with np.errstate(divide="ignore", invalid="ignore"):
        dense = np.where(q > 0.0, q * np.log(q / p), 0.0)
        sparse = np.where(q < 1.0, (1.0 - q) * np.log((1.0 - q) / (1.0 - p)), 0.0)
    return dense + sparse


def information_content(n_w, k_w, p_w):
    """Chernoff-bound information content, direction-agnostic; elementwise."""
    if np.any(np.less_equal(n_w, 0)):
        raise ValueError("n_w must be positive")
    q = np.divide(k_w, n_w)
    if np.any((q < 0.0) | (q > 1.0)):
        raise ValueError("q must lie in [0, 1]")
    return n_w * kl_bernoulli_many(q, p_w)


def description_length(len1, len2, c: ScoreConstants):
    """Communication cost, elementwise: single subgroups (``len2 is None``) count once."""
    if np.any(np.less(len1, 1)) or (len2 is not None and np.any(np.less(len2, 1))):
        raise ValueError("description lengths must be >= 1")
    return c.alpha * (np.asarray(len1) if len2 is None else np.add(len1, len2)) + c.beta


def pair_counts(a, b, o, edges, edges_in_overlap, ordered_mass, overlap_mass,
                convention: str, directed: bool):
    """``(n_w, k_w, mass, slots)`` of a pattern whose extensions have sizes
    ``a`` and ``b`` and share ``o`` vertices; elementwise for arrays.

    ``edges`` counts the distinct edges between the extensions (ordered
    edges W1 -> W2 when directed), ``edges_in_overlap`` those with both ends
    in W1 ∩ W2, and ``ordered_mass``/``overlap_mass`` are ``pair_sums``.
    ``slots`` is the number of distinct pairs.  In the ordered convention of
    an undirected graph, ``k_w`` counts edge orientations (u in W1, v in W2):
    the distinct edges plus the edges inside the overlap, which hold both
    orientations.  ``edges_in_overlap`` is read only in that case.
    """
    distinct = "ordered" if directed else "unordered"
    slots = pair_universe(a, b, o, distinct)
    if convention == distinct:
        return slots, edges, ordered_mass - overlap_mass / 2.0, slots
    return (pair_universe(a, b, o, "ordered"), edges + edges_in_overlap,
            ordered_mass, slots)


def score_single_counts(size: int, edges: int, expected_edges: float,
                        c: ScoreConstants | None = None, description_size: int = 1,
                        directed: bool = False) -> dict:
    """Score a single-subgroup pattern from its printed counts alone.

    ``expected_edges`` is the background expectation in the same units as
    ``edges`` (distinct edge slots).  Returns the full score breakdown, from
    the scoring core's columns of this one row.
    """
    c = c or ScoreConstants()
    if size < 2:
        raise ValueError("single-subgroup patterns need at least 2 vertices")
    # W1 = W2: every edge lies in the overlap, and the ordered mass of an
    # undirected set is twice its distinct mass
    ordered = expected_edges if directed else 2.0 * expected_edges
    conv, _, cols = _mass_columns(c, directed, ([description_size], None),
                                  *([np.array([size], np.int64)] * 3), [edges], [edges],
                                  np.array([ordered]), np.array([0.0 if directed else ordered]))
    return {"n_w": int(cols.n_w[0]), "k_w": int(cols.k_w[0]), "p_w": float(cols.p_w[0]),
            "ic": float(cols.ic[0]), "dl": float(cols.dl[0]), "si": float(cols.si[0]),
            "i": int(cols.direction[0]), "convention": conv}


# -- pattern construction --------------------------------------------------------


class _Columns(NamedTuple):
    """A batch's scored fields, one array each, in ``Pattern``'s order."""

    direction: np.ndarray
    k_w: np.ndarray
    n_w: np.ndarray
    p_w: np.ndarray
    ic: np.ndarray
    dl: np.ndarray
    si: np.ndarray
    size1: np.ndarray
    size2: np.ndarray
    overlap: np.ndarray
    edges: np.ndarray
    pair_slots: np.ndarray
    expected_edges: np.ndarray


def _columns(model, c, lengths, hists, edges, inside):
    """The scoring core: ``(convention, valid, columns)`` of a batch of
    patterns (W1, W2), one row each, from the counts ``score_bi`` takes
    (``(H, H, H)`` for single subgroups) and ``lengths``, the selector counts
    ``(len1, len2)`` of the descriptions (``len2 is None`` for single
    subgroups): the sizes and ``pair_mass`` of the histograms, mapped to
    columns by ``_mass_columns``.  ``pair_mass`` sums the row's own terms, so
    a row scores bit for bit the same in any batch."""
    H = [np.asarray(h).reshape(-1, model.n_classes) for h in hists]
    a, b, o = (h.sum(axis=1).astype(np.int64) for h in H)
    if np.any((o < 0) | (o > np.minimum(a, b))):
        raise ValueError("overlap cannot exceed either subgroup size")
    step = max(1, _MASS_CELLS // model.n_classes)
    ordered, overlap = (np.concatenate(x) for x in zip(*[
        model.pair_mass(*(h[lo:lo + step] for h in H)) for lo in range(0, max(1, len(a)), step)]))
    return _mass_columns(c, model.directed, lengths, a, b, o, edges, inside, ordered, overlap)


def _mass_columns(c, directed, lengths, a, b, o, edges, inside, ordered, overlap):
    """``_columns`` of patterns from their int64 sizes ``a``, ``b`` and
    overlaps ``o`` (``0 <= o <= min(a, b)``) and their ``pair_sums`` masses
    ``ordered``/``overlap``, one row each.  Each quantity is elementwise;
    ``edges``/``pair_slots``/``expected_edges`` count distinct pairs
    (ordered when directed), the rest is in the scoring convention.
    ``valid`` is false where the row has no pair u != v."""
    single = lengths[1] is None
    conv = c.convention(single, directed)
    edges, inside = (np.asarray(x, dtype=np.int64) for x in (edges, inside))
    n_w, k_w, mass, slots = pair_counts(a, b, o, edges, inside, ordered, overlap, conv, directed)
    valid = pair_universe(a, b, o, "ordered") > 0  # a pair u != v, in either convention
    n_w = np.where(valid, n_w, 1)
    p_w = mass / n_w
    ic = information_content(n_w, k_w, p_w)
    dl = description_length(*lengths, c)
    # reports print the distinct-pair mass of undirected bi patterns as it
    # is, and that of the others as p_w * slots
    expected = p_w * slots if single or directed else ordered - overlap / 2.0
    return conv, valid, _Columns(np.where(k_w / n_w >= p_w, 0, 1), k_w, n_w, p_w, ic, dl,
                                 ic / dl, a, b, o, edges, slots, expected)


def _score(model, c, w1s, w2s, hists, edges, inside) -> list:
    """The patterns (W1, W2) of a batch, one row each, from the counts
    ``score_bi`` takes (``(H, H, H)`` and ``w2s is None`` for single
    subgroups): ``_columns`` of the descriptions' lengths, one ``Pattern``
    per row.  None: no pair u != v."""
    conv, valid, cols = _columns(
        model, c, tuple(None if ws is None else np.array([len(w) for w in ws], np.int64)
                        for ws in (w1s, w2s)), hists, edges, inside)
    return [Pattern(w1, w2, *row, conv) if ok else None for w1, w2, ok, row in
            zip(w1s, w2s or [None] * len(w1s), valid.tolist(), zip(*(x.tolist() for x in cols)))]


def score_single(model: BackgroundModel, descs: list, hists: np.ndarray, edges,
                 c: ScoreConstants) -> list:
    """Score the single-subgroup patterns of a batch of descriptions, one
    row each, from their extensions' class histograms ``hists`` under
    ``model`` (integer or float, one row per description) and their numbers
    of inner ``edges``.  Patterns carry no extension ids; None where an
    extension has under 2 vertices."""
    return _score(model, c, descs, None, (hists,) * 3, edges, edges)


def score_bi(model: BackgroundModel, w1s: list, w2s: list, hists: tuple, edges, inside,
             c: ScoreConstants) -> list:
    """Score a batch of bi-subgroup patterns (``w1s[k]``, ``w2s[k]``), one
    row each, from the counts of their extensions.  ``hists`` is ``(H1, H2,
    H_o)``, the class histograms under ``model`` (integer or float, one row
    per pattern) of W1, W2 and W1 ∩ W2; ``edges`` the numbers of distinct
    edges between the extensions (ordered edges W1 -> W2 when directed) and
    ``inside`` the numbers of edges inside their intersections, read only in
    the ordered convention of an undirected graph.  Patterns carry no
    extension ids; None where the pair universe is empty."""
    return _score(model, c, w1s, w2s, hists, edges, inside)


def _with_extensions(pat: Pattern, g: AttributedGraph, mask1, mask2) -> Pattern:
    """``pat`` with the ids of its extensions, bool masks ``mask1`` and
    ``mask2`` (not read when single), and a single pattern's crossing edges."""
    pat.ext1_ids = np.flatnonzero(mask1)
    if pat.is_single:
        # crossing edges from the degree sum: each inner edge adds 2 to it
        # and each crossing edge 1, also when directed
        pat.inter_edges = int(g.degrees()[pat.ext1_ids].sum()) - 2 * pat.edges
    else:
        pat.ext2_ids = np.flatnonzero(mask2)
    return pat


def rescore(g: AttributedGraph, model: BackgroundModel, w1: Description,
            w2: Description | None, c: ScoreConstants) -> Pattern | None:
    """Score a pattern from its descriptions against a (possibly updated)
    model: the one path from vertex sets.  The extensions are decoded and
    counted, scored as a batch of one, and the pattern carries their ids."""
    mask1 = extension(w1, g)
    mask2 = mask1 if w2 is None else extension(w2, g)
    hists = model._histograms(np.flatnonzero(mask1), np.flatnonzero(mask2))
    edges, over = g.count_edges_between(mask1, mask2), mask1 & mask2
    inside = edges if w2 is None else g.count_edges_between(over, over)
    pat = _score(model, c, [w1], None if w2 is None else [w2], hists, [edges], [inside])[0]
    return None if pat is None else _with_extensions(pat, g, mask1, mask2)


# -- objective baselines -----------------------------------------------------------


def baseline_scores(g: AttributedGraph, a, edge_surplus_alpha: float = 1.0 / 3.0) -> dict:
    """The eight objective community-quality measures of one vertex set.

    Matches the usual printed definitions: edge surplus without the 1/2
    factor on the possible-pair term, and Pool's measure in its simplified
    -C(s,2) + 3k form.  ``inv_conductance`` is +inf when no edge leaves the
    set.  Undirected graphs only.
    """
    if g.directed:
        raise ValueError("baseline measures are defined for undirected graphs")
    if not math.isfinite(edge_surplus_alpha):
        raise ValueError(f"edge_surplus_alpha must be finite, got {edge_surplus_alpha!r}")
    mask = g.as_mask(a)
    s = int(np.count_nonzero(mask))
    if s < 2:
        raise ValueError("baseline measures need at least 2 vertices")
    n, m = g.n, g.m
    k = g.count_edges_between(mask, mask)
    inter = g.inter_edge_count(mask)
    deg = g.degrees()
    deg_sum = float(deg[mask].sum())

    if inter == 0:
        segregation = 1.0
    else:
        segregation = 1.0 - inter * n * (n - 1) / (2.0 * m * s * (n - s))
    if m == 0:
        modularity1 = 0.0
    else:
        modularity1 = k / m - (deg_sum / (2.0 * m)) ** 2
    edges = g.edges
    e0, e1 = edges[:, 0], edges[:, 1]
    inter_deg = (np.bincount(e0[mask[e0] & ~mask[e1]], minlength=n)
                 + np.bincount(e1[mask[e1] & ~mask[e0]], minlength=n))
    in_ids = np.flatnonzero(mask)
    frac = np.where(deg[in_ids] > 0,
                    inter_deg[in_ids] / np.maximum(deg[in_ids], 1), 0.0)
    inv_avg_odf = 1.0 - float(frac.mean())

    return {
        "edge_density": 2.0 * k / (s * (s - 1)),
        "avg_degree": 2.0 * k / s,
        "pool": -s * (s - 1) / 2.0 + 3.0 * k,
        "edge_surplus": k - edge_surplus_alpha * s * (s - 1),
        "segregation": segregation,
        "modularity1": modularity1,
        "inv_avg_odf": inv_avg_odf,
        "inv_conductance": math.inf if inter == 0 else k / inter,
    }
