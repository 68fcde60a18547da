"""Maximum-entropy Bernoulli edge models and their belief updates.

The background distribution is an independent Bernoulli per vertex pair with

    p(u, v) = sigmoid(offset + lam_row[u] + lam_col[v]
                      + sum_j gamma_j[block_j(u, v)] + sum_k lam_k * 1[(u, v) in pair set k])

which covers the three supported prior types (uniform density, per-vertex
degrees, per-block densities for one or more vertex partitions) plus any
number of absorbed-pattern updates applied in insertion order.  All
multipliers live in logit space, so each absorbed pattern is a single
additive shift on its pair block and leaves every other pair bit-identical.

Every term depends on a vertex only through a small key: its degree (the
(out, in) pair on directed graphs), its bin in each partition and its
membership in each absorbed pattern's rows and columns.  Vertices with equal
keys are interchangeable and the max-ent solution gives them equal
multipliers (the tile-model argument of De Bie, DMKD 2011).  So the model is
stored as a class id per vertex, one multiplier per class and a K x K table
of class-pair probabilities, and fitting, scoring and absorption all work on
classes:

* fitting maximizes the Lagrangian dual by cyclic coordinate-wise Newton
  with step damping, one coordinate per class weighted by class sizes.  A
  sweep is K coordinate steps per degree direction, each a few O(K) array
  passes, then one step per block, so it costs O(K^2); the convergence check
  after each sweep is one whole-array pass over the class-pair grid, in row
  chunks of at most ``_TABLE_CELLS`` cells.  The result is bit for bit that
  of stepping and checking one constraint at a time;
* pair sums are weighted sums of the table over the class histograms of the
  two vertex sets (O(|R| + |C| + K_R * K_C)), for a batch of grids at once:
  exact, whatever the batch (``pair_mass``, with ``pair_sums`` as its
  one-grid case), or through BLAS for the screens (``pair_sums_many``);
* a pattern multiplier comes from bisection over the clamp range on the
  monotone calibration residual over class-pair weights; the updated model
  splits classes by membership in the pattern's rows and columns.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field

import numpy as np

from .graph import NOMINAL, AttributedGraph

log = logging.getLogger(__name__)

LOGIT_CLAMP = 30.0
PROB_EPS = 1e-12
MODEL_VERSION = 2
_TABLE_CELLS = 2_000_000  # max class-pair cells held in a table or built at once

__all__ = [
    "FitError",
    "PartitionGammas",
    "PatternUpdate",
    "BackgroundModel",
    "fit_density_prior",
    "fit_degree_prior",
    "fit_block_prior",
    "update_with_pattern",
    "pair_universe",
    "block_mean_probability",
]


class FitError(RuntimeError):
    """Dual fit failed to reach the requested tolerance."""


def _sigmoid(x):
    """The logistic function of a float array, branch-free: exp only sees
    min(x, -x) = -|x| (which keeps a NaN's sign), so it cannot overflow.
    Besides ``x`` it holds three arrays of its size at a time."""
    e = np.minimum(x, -x)
    np.exp(e, out=e)
    d = 1.0 + e
    p = e / d  # the value where x < 0
    np.copyto(p, np.divide(1.0, d, out=d), where=x >= 0)
    return p


def _softplus(x):
    return np.logaddexp(0.0, x)


def _logit(p):
    p = np.clip(p, PROB_EPS, 1.0 - PROB_EPS)
    return np.log(p) - np.log1p(-p)


def _classes(columns):
    """Class id per vertex: vertices with equal values in every column share one.

    Returns ``(keys, cls)`` with one row of column values per class, in
    lexicographic order.
    """
    keys, cls = np.unique(np.stack(columns, axis=1), axis=0, return_inverse=True)
    return keys, cls.ravel()


@dataclass
class PartitionGammas:
    """Block multipliers for one vertex partition (one nominal attribute).

    ``bins[u]`` is the bin index of vertex u; ``gammas`` is a dense
    (n_bins, n_bins) matrix, kept symmetric for undirected graphs.
    """

    attribute: str
    bins: np.ndarray
    bin_values: list
    gammas: np.ndarray

    @property
    def n_bins(self) -> int:
        return len(self.bin_values)


@dataclass
class PatternUpdate:
    """One absorbed pattern: a pair block (rows x cols) and its multiplier."""

    rows: np.ndarray
    cols: np.ndarray
    lam: float
    observed: int
    n_pairs: int
    row_mask: np.ndarray = field(repr=False, default=None)
    col_mask: np.ndarray = field(repr=False, default=None)

    def masks(self, n):
        if self.row_mask is None:
            rm = np.zeros(n, dtype=bool)
            rm[self.rows] = True
            cm = np.zeros(n, dtype=bool)
            cm[self.cols] = True
            self.row_mask, self.col_mask = rm, cm
        return self.row_mask, self.col_mask


class BackgroundModel:
    """Immutable product-of-Bernoulli edge model over vertex classes.

    ``cls[u]`` is the class of vertex u and ``class_lam_row`` /
    ``class_lam_col`` hold one multiplier per class (tied on undirected
    graphs).  All vertices of a class share their bin in every partition and
    their membership in every update's rows and columns, which the
    constructor checks, so a pair probability depends on the two classes
    alone.  ``graph_fingerprint`` is ``AttributedGraph.fingerprint`` of the
    graph the model was fitted on, over its partition attributes (None when
    unknown).  ``update_with_pattern`` returns a new model; probability reads
    are safe for concurrent use.
    """

    def __init__(self, n, directed, offset=0.0, cls=None, lam_row=None, lam_col=None,
                 partitions=(), updates=(), prior="density", fit_info=None,
                 graph_fingerprint=None):
        self.n = int(n)
        self.directed = bool(directed)
        self.offset = float(offset)
        self.cls = (np.zeros(self.n, dtype=np.int64) if cls is None
                    else np.asarray(cls, dtype=np.int64))
        self.class_lam_row = (np.zeros(1) if lam_row is None
                              else np.asarray(lam_row, dtype=np.float64))
        if not self.directed:
            if lam_col is not None:
                raise ValueError("undirected models tie column multipliers to row multipliers")
            self.class_lam_col = self.class_lam_row
        elif lam_col is None:
            self.class_lam_col = np.zeros_like(self.class_lam_row)
        else:
            self.class_lam_col = np.asarray(lam_col, dtype=np.float64)
        self.partitions = list(partitions)
        self.updates = list(updates)
        self.prior = prior
        self.fit_info = dict(fit_info or {})
        self.graph_fingerprint = graph_fingerprint
        self._check_and_index()
        k = self.n_classes
        self._P_off = self._P_diag = None  # class-pair table, diagonal split off
        if k * k <= _TABLE_CELLS:
            self._P_off = self._class_probs(np.arange(k), np.arange(k))
            self._P_diag = np.diag(self._P_off).copy()
            np.fill_diagonal(self._P_off, 0.0)

    def _check_and_index(self):
        """Validate shapes, ranges and finiteness; derive per-class bins and
        memberships and check that they are constant within every class."""
        n, k = self.n, self.class_lam_row.size
        if self.cls.shape != (n,):
            raise ValueError(f"class id array has {self.cls.size} entries, expected n={n}")
        if self.class_lam_row.ndim != 1 or self.class_lam_col.shape != (k,):
            raise ValueError("row and column multipliers need one entry per class")
        if n and (self.cls.min() < 0 or self.cls.max() >= k):
            raise ValueError(f"class ids must lie in [0, {k})")
        if np.any(np.bincount(self.cls, minlength=k) == 0):
            raise ValueError("every class needs at least one vertex")
        finite = [self.offset, self.class_lam_row, self.class_lam_col]
        finite += [p.gammas for p in self.partitions] + [u.lam for u in self.updates]
        if not all(np.all(np.isfinite(x)) for x in finite):
            raise ValueError("model multipliers must be finite")
        rep = np.empty(k, dtype=np.int64)
        rep[self.cls] = np.arange(n)  # any member represents its class

        def per_class(values, what):
            out = values[rep]
            if not np.array_equal(out[self.cls], values):
                raise ValueError(f"{what} differ within a vertex class")
            return out

        self._class_bins = []
        for p in self.partitions:
            nb = p.n_bins
            if p.bins.shape != (n,) or (n and (p.bins.min() < 0 or p.bins.max() >= nb)):
                raise ValueError(f"partition {p.attribute!r}: need n bins in [0, {nb})")
            if p.gammas.shape != (nb, nb):
                raise ValueError(f"partition {p.attribute!r}: gammas must be {nb}x{nb}")
            self._class_bins.append(per_class(p.bins, f"bins of {p.attribute!r}"))
        self._class_members = []
        for u in self.updates:
            for ids in (u.rows, u.cols):
                if ids.size == 0 or ids.min() < 0 or ids.max() >= n:
                    raise ValueError(f"update vertex ids must be non-empty and in [0, {n})")
            rm, cm = u.masks(n)
            self._class_members.append((per_class(rm, "update rows"),
                                        per_class(cm, "update columns")))

    @property
    def n_classes(self) -> int:
        return int(self.class_lam_row.size)

    # -- probability queries -------------------------------------------------

    def _class_logits(self, a, b):
        """Raw logit matrix for the class grid a x b (class ids)."""
        L = self.offset + self.class_lam_row[a][:, None] + self.class_lam_col[b][None, :]
        for part, cb in zip(self.partitions, self._class_bins):
            L = L + part.gammas[cb[a][:, None], cb[b][None, :]]
        for upd, (rm, cm) in zip(self.updates, self._class_members):
            member = rm[a][:, None] & cm[b][None, :]
            if not self.directed:
                member = member | (cm[a][:, None] & rm[b][None, :])
            L = L + upd.lam * member
        return L

    def _class_probs(self, a, b):
        """Clamped edge probabilities for the class grid a x b (diagonal included)."""
        return np.clip(_sigmoid(self._class_logits(a, b)), PROB_EPS, 1.0 - PROB_EPS)

    def pair_sums(self, rows, cols):
        """Probability mass over the rows x cols grid, diagonal excluded.

        ``rows`` and ``cols`` are sets of distinct vertex ids.  Returns
        ``(ordered_sum, overlap_sum)`` where ``ordered_sum`` ranges over all
        ordered grid pairs u != v and ``overlap_sum`` over ordered pairs
        inside the row/column intersection (0 for directed models).  The
        distinct (unordered) pair total is ``ordered_sum - overlap_sum / 2``.
        This is the one-row case of ``pair_mass``.
        """
        ordered, overlap = self.pair_mass(*self._histograms(rows, cols))
        return float(ordered[0]), float(overlap[0])

    def pair_mass(self, H_r, H_c, H_o):
        """Exact ``pair_sums`` of many grids, one row each (or 1-D for one),
        as in ``pair_sums_many``.  A grid's sums are bit for bit the same
        whatever else is in the batch and wherever it sits: they add its own
        terms, copied in C order, in a fixed order (``einsum`` and sums over
        the last axis, or without a full table ``pair_sums_many`` on the grid
        alone), never through a BLAS product over the batch.  A set paired
        with itself takes the same steps as any other grid, and undirected
        grids are put in a canonical order first, so mirrored grids tie.
        """
        H_r, H_c, H_o = (np.array(h, np.float64, order="C", ndmin=2) for h in (H_r, H_c, H_o))
        if not self.directed:
            d = H_r - H_c
            swap = d[np.arange(len(d)), np.argmax(d != 0, axis=1)] < 0
            H_r[swap], H_c[swap] = H_c[swap], H_r[swap]
        if self._P_off is None:
            out = np.zeros((2, len(H_r)))
            for i in range(len(H_r)):
                out[:, i] = np.ravel(self.pair_sums_many(H_r[i:i + 1], H_c[i:i + 1], H_o[i:i + 1]))
            return out[0], out[1]
        # h @ P_off of the rows and, on undirected models, of the intersections
        T = [np.einsum("ia,ab->ib", h, self._P_off) for h in (H_r, H_o)[:2 - self.directed]]
        ordered = (H_c * T[0]).sum(axis=-1) + ((H_r * H_c - H_o) * self._P_diag).sum(axis=-1)
        return ordered, (np.zeros_like(ordered) if self.directed else (H_o * T[1]).sum(axis=-1)
                         + ((H_o * H_o - H_o) * self._P_diag).sum(axis=-1))

    def _histograms(self, rows, cols):
        """Class histograms (float) of ``rows``, ``cols`` and their intersection."""
        k = self.n_classes
        rows = np.asarray(rows, dtype=np.int64)
        h_r = np.bincount(self.cls[rows], minlength=k).astype(np.float64)
        if cols is rows:
            return h_r, h_r, h_r
        cols = np.asarray(cols, dtype=np.int64)
        in_rows = np.zeros(self.n, dtype=bool)
        in_rows[rows] = True
        h_c = np.bincount(self.cls[cols], minlength=k).astype(np.float64)
        h_o = np.bincount(self.cls[cols[in_rows[cols]]], minlength=k).astype(np.float64)
        return h_r, h_c, h_o

    def _sub_tables(self, ia, ib):
        """The class-pair table on the classes ``ia`` x ``ib`` in row chunks
        of at most ``_TABLE_CELLS`` cells: ``(rows, off-diagonal block,
        classes of the diagonal entries, their probabilities)`` per chunk."""
        step = max(1, _TABLE_CELLS // max(1, ib.size))
        for i in range(0, ia.size, step):
            a = ia[i:i + step]
            P = self._class_probs(a, ib)
            r, c = np.nonzero(a[:, None] == ib[None, :])
            diag = P[r, c]
            P[r, c] = 0.0
            yield a, P, a[r], diag

    def class_order(self):
        """``(order, starts)``: the vertices sorted by class (stable), and the
        position in ``order`` where each class starts."""
        order = np.argsort(self.cls, kind="stable")
        return order, np.searchsorted(self.cls[order], np.arange(self.n_classes))

    # Both mass paths stay.  Reports need ``pair_mass``, whose rows do not
    # depend on the batch around them; the screens need this BLAS path's
    # speed.  On the batches the screens pass here in the benchmark's
    # seed-41 workloads, ``pair_mass`` takes 3-10x as long, or +18% to +29%
    # of each workload's ``mine_s`` (``scripts/pair_mass_cost.py``, 2-vCPU
    # Xeon).  ``search._mass_rounding`` bounds what the batch may change.
    def pair_sums_many(self, H_r, H_c, H_o):
        """The screens' ``pair_sums`` of many grids from class histograms
        (float), one row per grid: ``H_r`` of the rows, ``H_c`` of the
        columns and ``H_o`` of their intersection, as ``(ordered_sum,
        overlap_sum)`` arrays.  Its BLAS products may round a grid
        differently with the batch around it; ``pair_mass`` does not.

        Pairs between distinct classes come from the off-diagonal table; the
        h_r*h_c - h_o pairs inside one class from its diagonal entry.  All
        terms are non-negative, so nothing cancels.  Without a full table the
        sub-table of the classes present is built in row chunks of at most
        ``_TABLE_CELLS`` cells.  ``H_o is H_r`` marks rows equal to the
        column set, whose overlap is the whole grid.
        """
        if self._P_off is not None:
            diag = self._P_diag
            ic = slice(None)
            to_cols = H_r @ self._P_off
        else:
            ic = _present(H_c)
            diag = np.zeros(self.n_classes)
            to_cols = np.zeros((len(H_r), ic.size))
            for a, P, dc, dp in self._sub_tables(_present(H_r), ic):
                diag[dc] = dp
                to_cols += H_r[:, a] @ P
        ordered = (H_c[:, ic] * to_cols).sum(axis=-1) + (H_c * H_r - H_o) @ diag
        if self.directed or H_o is H_r:  # no overlap mass, or the overlap is the whole grid
            return ordered, ordered * 0.0 if self.directed else ordered
        overlap = (H_o * H_o - H_o) @ diag
        if self._P_off is not None:
            return ordered, overlap + ((H_o @ self._P_off) * H_o).sum(axis=-1)
        # the intersections' classes are among the rows' and the columns'
        io = _present(H_o)
        for a, P, _, _ in self._sub_tables(io, io):
            overlap += ((H_o[:, a] @ P) * H_o[:, io]).sum(axis=-1)
        return ordered, overlap

    def copy_with_update(self, upd: PatternUpdate) -> "BackgroundModel":
        """The model plus one absorbed pattern; classes split by membership in
        the pattern's rows and columns."""
        rm, cm = upd.masks(self.n)
        keys, cls = _classes([self.cls, rm, cm])
        parent = keys[:, 0]
        return BackgroundModel(self.n, self.directed, self.offset, cls,
                               self.class_lam_row[parent],
                               self.class_lam_col[parent] if self.directed else None,
                               self.partitions, self.updates + [upd],
                               prior=self.prior, fit_info=self.fit_info,
                               graph_fingerprint=self.graph_fingerprint)

    # -- serialization ---------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "format": "simine-model",
            "version": MODEL_VERSION,
            "n": self.n,
            "directed": self.directed,
            "prior": self.prior,
            "offset": self.offset,
            "classes": [int(c) for c in self.cls],
            "lam_row": [float(x) for x in self.class_lam_row],
            "lam_col": ([float(x) for x in self.class_lam_col] if self.directed else None),
            "partitions": [{
                "attribute": p.attribute,
                "bin_values": list(p.bin_values),
                "bins": [int(b) for b in p.bins],
                "gammas": [[float(x) for x in row] for row in p.gammas],
            } for p in self.partitions],
            "updates": [{
                "rows": [int(r) for r in u.rows],
                "cols": [int(c) for c in u.cols],
                "lam": float(u.lam),
                "observed": int(u.observed),
                "n_pairs": int(u.n_pairs),
            } for u in self.updates],
            "fit_info": self.fit_info,
            "graph_fingerprint": self.graph_fingerprint,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "BackgroundModel":
        """Rebuild a model from :meth:`to_dict` output; malformed input raises
        ValueError."""
        if not isinstance(d, dict) or d.get("format") != "simine-model":
            raise ValueError("not a recognized model file")
        version = d.get("version")
        if version != MODEL_VERSION:
            raise ValueError(f"model file version {version!r} is not supported (this "
                             f"simine reads version {MODEL_VERSION}); re-run `simine fit` "
                             "to rebuild the model")
        if not isinstance(d.get("directed"), bool):
            raise ValueError("malformed model file: 'directed' must be true or false")
        try:
            parts = [PartitionGammas(p["attribute"], _ints(p["bins"], "bins"),
                                     list(p["bin_values"]), _floats(p["gammas"], "gammas"))
                     for p in d["partitions"]]
            upds = [PatternUpdate(_ints(u["rows"], "update rows"),
                                  _ints(u["cols"], "update columns"),
                                  float(_number(u["lam"], "lam")),
                                  _number(u["observed"], "observed", (int,)),
                                  _number(u["n_pairs"], "n_pairs", (int,)))
                    for u in d["updates"]]
            lam_col = None if d["lam_col"] is None else _floats(d["lam_col"], "lam_col")
            return cls(_number(d["n"], "n", (int,)), d["directed"],
                       _number(d["offset"], "offset"),
                       _ints(d["classes"], "class ids"), _floats(d["lam_row"], "lam_row"),
                       lam_col, parts, upds, prior=d["prior"], fit_info=d.get("fit_info"),
                       graph_fingerprint=d.get("graph_fingerprint"))
        except (KeyError, TypeError, OverflowError) as exc:
            raise ValueError(f"malformed model file: {exc!r}") from None

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "BackgroundModel":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def _present(H):
    """Classes with a member in any of the histograms ``H`` (one or many rows)."""
    return np.flatnonzero(H.reshape(-1, H.shape[-1]).any(axis=0))


def _ints(values, what):
    """Nested lists of a model file's JSON integers (not booleans) as int64."""
    arr = np.asarray(values, dtype=object)
    if not all(type(x) is int for x in arr.flat):
        raise ValueError(f"{what} must be integers")
    return arr.astype(np.int64)


def _number(value, what, types=(int, float)):
    """A model file's JSON number, of one of ``types``; a boolean or a string
    is malformed."""
    if type(value) not in types:
        kind = "integer" if types == (int,) else "number"
        raise ValueError(f"malformed model file: {what} must be a JSON {kind}, got {value!r}")
    return value


def _floats(values, what):
    """Nested lists of a model file's JSON numbers as float64."""
    arr = np.asarray(values, dtype=object)
    for x in arr.flat:
        _number(x, what)
    return arr.astype(np.float64)


# -- priors -------------------------------------------------------------------


def fit_density_prior(g: AttributedGraph, density: float) -> BackgroundModel:
    """Uniform model: every pair probability equals the assumed density."""
    if not (0.0 < density < 1.0):
        raise ValueError("density must lie strictly between 0 and 1")
    return BackgroundModel(g.n, g.directed, offset=float(_logit(np.float64(density))),
                           prior=f"density:{density!r}",
                           fit_info={"prior": "density", "density": density,
                                     "iterations": 0, "max_residual": 0.0, "classes": 1},
                           graph_fingerprint=g.fingerprint())


def fit_degree_prior(g: AttributedGraph, tol: float = 1e-4,
                     max_iter: int = 500) -> BackgroundModel:
    """Max-entropy model matching every vertex's expected degree."""
    return _fit_max_ent(g, partitions=[], with_degrees=True, tol=tol,
                        max_iter=max_iter, prior="degree")


def fit_block_prior(g: AttributedGraph, partitions, with_degrees: bool = True,
                    tol: float = 1e-4, max_iter: int = 500) -> BackgroundModel:
    """Max-entropy model matching per-block expected edge counts.

    ``partitions`` names nominal attributes; each induces its own set of
    block constraints (one per unordered bin pair for undirected graphs).
    All declared constraints are fitted jointly; with ``with_degrees`` the
    per-vertex degree constraints hold simultaneously.
    """
    if not partitions:
        raise ValueError("fit_block_prior needs at least one partition attribute")
    label = "blocks:" + ",".join(partitions) + ("+degree" if with_degrees else "")
    return _fit_max_ent(g, partitions=list(partitions), with_degrees=with_degrees,
                        tol=tol, max_iter=max_iter, prior=label)


def _partition_bins(g, attr):
    """Vertex bins of nominal ``attr`` (value codes, missing last) and their labels."""
    col = g.column(attr)
    if col.kind != NOMINAL:
        raise ValueError(f"partition attribute {attr!r} must be nominal")
    missing = col.missing_mask()
    values = col.distinct() + (["∅missing"] if missing.any() else [])
    return np.where(missing, len(col.domain), col.codes), values


def _coordinate_step(ell, s, w, ws, wss, target, t0):
    """One damped Newton step of min_t ``sum(w * softplus(ell + s*t)) - target*t``
    from ``t0``; ``ws`` is ``w * s`` and ``wss`` is ``w * s * s``."""
    x = ell + s * t0
    p = _sigmoid(x)
    grad = float((ws * p).sum()) - target
    hess = max(float((wss * p * (1.0 - p)).sum()), 1e-12)
    step = -grad / hess
    f0 = float((w * _softplus(x)).sum()) - target * t0
    for _ in range(60):
        t1 = min(max(t0 + step, -LOGIT_CLAMP), LOGIT_CLAMP)
        if (float((w * _softplus(ell + s * t1)).sum()) - target * t1
                <= f0 + 1e-12 * max(1.0, abs(f0))):
            return t1
        step *= 0.5
    return t0


class _MaxEntProblem:
    """Joint degree/block dual for one graph; owns the working multipliers.

    A class is the set of vertices sharing their degree (the (out, in) pair
    when directed, because excluding the (u, u) pair makes a row multiplier
    depend on u's in-degree too) and their bin in every partition.  Members
    of a class face identical constraints, so the dual has one multiplier
    per class and every sum over partners is a sum over classes weighted by
    class sizes.

    The 1-D dual of class a's degree multiplier has the logits ``ell[b]`` of
    a pair between one member of a and one member of b, minus that
    multiplier, and the number ``w[b]`` of such partners per member:
    ``sizes[b]``, one less for b == a.  On undirected graphs a pair inside
    class a carries the multiplier at both ends, so it has slope ``s = 2``
    and half its weight goes to each endpoint.  A block's dual has one term
    per class pair of the block, weighted by its vertex pairs.
    """

    def __init__(self, g, partition_attrs, with_degrees):
        self.g = g
        self.directed = g.directed
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
        keys, self.cls = _classes(degrees + [p.bins for p in self.parts])
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
        # w[a], w[a] * s[a] and w[a] * s[a] * s[a] of each class's own degree term
        own = self.sizes - 1.0
        if not self.directed:
            own = own * 0.5
        self.own_weights = ((own, own, own) if self.directed
                            else (own, own * 2.0, own * 2.0 * 2.0))
        self._block_terms()

    def _block_terms(self):
        """Observed edge count, the classes on each side and the weight grid
        of every block with a vertex pair, per partition."""
        e0, e1 = self.g.edges[:, 0], self.g.edges[:, 1]
        self.blocks = []
        for part, cb in zip(self.parts, self.class_bins):
            nb = part.n_bins
            obs = np.bincount(part.bins[e0] * nb + part.bins[e1],
                              minlength=nb * nb).reshape(nb, nb)
            if not self.directed:
                obs = np.triu(obs + obs.T) - np.diag(np.diag(obs))
            blocks = []
            for b1 in range(nb):
                for b2 in (range(nb) if self.directed else range(b1, nb)):
                    A, B = np.flatnonzero(cb == b1), np.flatnonzero(cb == b2)
                    w = np.outer(self.sizes[A], self.sizes[B])
                    if b1 == b2:
                        w -= np.diag(self.sizes[A])  # u == v
                        if not self.directed:
                            w *= 0.5  # each unordered pair appears as (a, b) and (b, a)
                    if w.any():  # an empty block keeps its gamma pinned at 0
                        blocks.append(((b1, b2), float(obs[b1, b2]), A[:, None], B, w.ravel()))
            self.blocks.append(blocks)

    def _block_logits(self, part_i, A, B):
        """Logits of a block's class pairs ``A x B``, excluding the block's
        own partition, flattened."""
        L = self.lam_row[A] + self.lam_col[B]
        for j, (part, cb) in enumerate(zip(self.parts, self.class_bins)):
            if j != part_i:
                L = L + part.gammas[cb[A], cb[B]]
        return L.ravel()

    def _degree_chunks(self, use_row):
        """The classes in row chunks of at most ``_TABLE_CELLS`` class pairs,
        each as ``(a, G)``: ``G[i, b]`` sums every partition's gamma over a
        pair between class ``a[i]`` (the row end if ``use_row``) and class b."""
        step = max(1, _TABLE_CELLS // self.k)
        for a0 in range(0, self.k, step):
            a = np.arange(a0, min(self.k, a0 + step))
            G = np.zeros((a.size, self.k))
            for part, cb in zip(self.parts, self.class_bins):
                G += (part.gammas if use_row else part.gammas.T)[cb[a]][:, cb]
            yield a, G

    def sweep(self):
        """One cyclic pass of coordinate steps: every degree multiplier, then
        every block's gamma, each step seeing all earlier ones."""
        for _, use_row, target in self.targets:
            lam, other = (self.lam_row, self.lam_col) if use_row else (self.lam_col, self.lam_row)
            for rows, G in self._degree_chunks(use_row):
                for a, g_a in zip(rows.tolist(), G):
                    ell = other + g_a
                    w, ws, wss = (self.sizes.copy() for _ in self.own_weights)
                    w[a], ws[a], wss[a] = (v[a] for v in self.own_weights)
                    s = 1.0
                    if not self.directed:
                        ell[a] = g_a[a]
                        s = np.ones(self.k)
                        s[a] = 2.0
                    lam[a] = _coordinate_step(ell, s, w, ws, wss, float(target[a]), lam[a])
        for part_i, (part, blocks) in enumerate(zip(self.parts, self.blocks)):
            for i, target, A, B, w in blocks:
                ell = self._block_logits(part_i, A, B)
                part.gammas[i] = _coordinate_step(ell, 1.0, w, w, w, target, part.gammas[i])
                if not self.directed:
                    part.gammas[i[::-1]] = part.gammas[i]  # gammas stay symmetric

    def residuals(self):
        """Worst unwaived constraint plus the worst saturated residual.

        Returns ``(worst_name, worst, waived_worst)``; ``worst`` drives
        convergence, ``waived_worst`` is reported for saturated constraints
        (degree 0 / degree n-1 vertices, zero-edge blocks): those whose
        multiplier is pinned at a clamp bound with the gradient pointing
        further outward, so the residual is irreducible.  The first of
        equally worst constraints in sweep order is named.  Each degree
        multiplier's residual is its row of the class-pair grid, whose rows
        are summed as whole-array passes, a chunk of rows at a time.
        """
        groups = []  # (label, residuals, multipliers, constraint ids) in sweep order
        for name, use_row, target in self.targets:
            lam, other = (self.lam_row, self.lam_col) if use_row else (self.lam_col, self.lam_row)
            r = np.empty(self.k)
            for a, X in self._degree_chunks(use_row):
                # the logits and the weighted probabilities overwrite the gamma
                # sums in place, in the order of one constraint's terms
                i = np.arange(a.size)
                g_own = X[i, a]
                X += other
                X += lam[a][:, None]
                if not self.directed:
                    X[i, a] = g_own + 2.0 * lam[a]
                X = _sigmoid(X)
                p_own = X[i, a]
                X *= self.sizes
                X[i, a] = self.own_weights[1][a] * p_own
                r[a] = X.sum(axis=1) - target[a]
            groups.append((name, r, lam, range(self.k)))
        for part_i, (part, blocks) in enumerate(zip(self.parts, self.blocks)):
            if blocks:
                mult = np.array([part.gammas[i] for i, *_ in blocks])
                r = np.array([float((w * _sigmoid(self._block_logits(part_i, A, B) + t)).sum())
                              - target for t, (_, target, A, B, w) in zip(mult, blocks)])
                groups.append((part, r, mult, [i for i, *_ in blocks]))
        eps = 1e-9
        worst_at, worst, waived = None, 0.0, 0.0
        for label, r, mult, ids in groups:
            saturated = (((r > 0) & (mult <= -LOGIT_CLAMP + eps))
                         | ((r < 0) & (mult >= LOGIT_CLAMP - eps)))
            size = np.abs(r)
            if saturated.any():
                waived = max(waived, float(size[saturated].max()))
                size[saturated] = 0.0
            j = int(np.argmax(size))
            if size[j] > worst:
                worst_at, worst = (label, ids[j]), float(size[j])
        name = ""
        if worst_at is not None:
            label, i = worst_at
            if isinstance(label, str):
                name = f"{label} of vertex {self.g.vertex_label(int(self.rep[i]))!r}"
            else:
                values = label.bin_values
                name = f"block ({label.attribute}: {values[i[0]]} x {values[i[1]]})"
        return name, worst, waived


def _fit_max_ent(g, partitions, with_degrees, tol, max_iter, prior):
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be a finite number > 0, got {tol!r}")
    if max_iter < 0:
        raise ValueError(f"max_iter must be >= 0, got {max_iter!r}")
    if g.n < 2:
        raise ValueError("need at least two vertices to fit a model")
    if g.m == 0:
        raise ValueError("cannot fit a max-entropy prior on a graph with no edges")
    prob = _MaxEntProblem(g, partitions, with_degrees)
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
    if clamped and with_degrees:
        log.warning("multipliers clamped at +/-%g for %d extremal-degree vertex(es): %s",
                    LOGIT_CLAMP, len(clamped), ", ".join(clamped[:5]))
    if waived > tol:
        log.warning("saturated constraints left an irreducible residual of %.3g", waived)
    info = {"prior": prior, "iterations": sweeps, "max_residual": worst,
            "saturated_residual": waived, "worst_constraint": worst_name,
            "tol": tol, "clamped": clamped, "classes": prob.k}
    return BackgroundModel(g.n, g.directed, 0.0, prob.cls, prob.lam_row,
                           prob.lam_col if g.directed else None,
                           prob.parts, prior=prior, fit_info=info,
                           graph_fingerprint=g.fingerprint(partitions))


# -- pattern absorption ----------------------------------------------------------


def update_with_pattern(model: BackgroundModel, pattern) -> BackgroundModel:
    """Absorb a presented pattern: calibrate one multiplier on its pair block.

    ``pattern`` must expose ``ext1_ids``, ``ext2_ids`` (vertex id arrays;
    equal for single-subgroup patterns) and the observed count ``edges``;
    ids out of range, repeated or missing raise ValueError.  The returned
    model's expected count over the pattern's pairs equals the observed
    count; every other pair keeps its exact probability.
    """
    if pattern.ext1_ids is None:
        raise ValueError("pattern carries no extension ids; a search or rescore provides them")
    rows = _vertex_set(pattern.ext1_ids, model.n, "pattern extension 1")
    cols = (rows if pattern.ext2_ids is None
            else _vertex_set(pattern.ext2_ids, model.n, "pattern extension 2"))
    observed = int(pattern.edges)
    if rows.size == 0 or cols.size == 0:
        raise ValueError("pattern update needs non-empty extensions")
    h_r, h_c, h_o = model._histograms(rows, cols)
    n_pairs = pair_universe(rows.size, cols.size, int(h_o.sum()),
                            "ordered" if model.directed else "unordered")
    if n_pairs == 0:
        raise ValueError("pattern update has an empty pair set")
    # the same pairs per class pair: ordered pairs u != v, and on undirected
    # graphs one orientation less of each pair inside the overlap
    ia, ib = np.flatnonzero(h_r), np.flatnonzero(h_c)
    w = np.outer(h_r[ia], h_c[ib])
    r, c = np.nonzero(ia[:, None] == ib[None, :])
    if model.directed:
        w[r, c] -= h_o[ia[r]]
    else:
        w -= 0.5 * np.outer(h_o[ia], h_o[ib])
        w[r, c] -= 0.5 * h_o[ia[r]]
    keep = w > 0
    ell = model._class_logits(ia, ib)[keep]
    w = w[keep]

    def resid(lam):
        return float((w * _sigmoid(ell + lam)).sum()) - observed

    lam = 0.0
    if abs(resid(0.0)) > 1e-9 * max(1, n_pairs):
        lo, hi = -LOGIT_CLAMP, LOGIT_CLAMP
        if resid(lo) >= 0 or resid(hi) <= 0:
            lam = lo if resid(lo) >= 0 else hi
            log.warning("pattern multiplier clamped at %g", lam)
        else:
            while hi - lo > 1e-13:  # float spacing near 30 is 3.6e-15, so this ends
                mid = 0.5 * (lo + hi)
                if resid(mid) > 0:
                    hi = mid
                else:
                    lo = mid
            lam = 0.5 * (lo + hi)

    if abs(lam) < LOGIT_CLAMP and abs(resid(lam)) > 1e-6 * max(1, n_pairs):
        raise FitError(f"pattern multiplier failed to calibrate (residual {resid(lam):.3g})")
    upd = PatternUpdate(np.sort(rows), np.sort(cols), float(lam), observed, n_pairs)
    return model.copy_with_update(upd)


def pair_universe(a, b, overlap, convention: str):
    """Number of vertex pairs u != v between two sets of sizes ``a`` and ``b``
    that share ``overlap`` vertices; elementwise for arrays, whose overlaps
    the screens count from the sets and the exact scorer range-checks.

    A single set of size s is the case a == b == overlap == s.  "ordered"
    counts ordered pairs, a*b - overlap; "unordered" counts each unordered
    pair once, a*b - overlap*(overlap+1)/2.  Over the same pairs,
    ``pair_sums`` gives the probability mass as ``ordered_sum`` and
    ``ordered_sum - overlap_sum / 2`` respectively.
    """
    if not isinstance(overlap, np.ndarray) and not (0 <= overlap <= a and overlap <= b):
        raise ValueError("overlap cannot exceed either subgroup size")
    if convention == "ordered":
        return a * b - overlap
    if convention == "unordered":
        return a * b - overlap * (overlap + 1) // 2
    raise ValueError(f"unknown convention {convention!r}")


def _vertex_set(ids, n, what):
    """``ids`` as an int64 array of distinct vertex ids in [0, n)."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= n):
        raise ValueError(f"{what}: vertex ids must lie in [0, {n})")
    if np.unique(ids).size != ids.size:
        raise ValueError(f"{what}: vertex ids must not repeat")
    return ids


def block_mean_probability(model: BackgroundModel, a, b):
    """Mean probability over the distinct pairs spanned by vertex sets a, b.

    Returns ``(p_w, n_w)`` where ``n_w`` counts each unordered pair once for
    undirected models and each ordered pair once for directed models.  Ids
    out of range or repeated raise ValueError.
    """
    rows = _vertex_set(a, model.n, "first vertex set")
    cols = _vertex_set(b, model.n, "second vertex set")
    n_w = pair_universe(rows.size, cols.size, int(np.intersect1d(rows, cols).size),
                        "ordered" if model.directed else "unordered")
    if n_w <= 0:
        raise ValueError("pair universe is empty for the given sets")
    ordered, over = model.pair_sums(rows, cols)
    return (ordered - over / 2.0) / n_w, n_w
