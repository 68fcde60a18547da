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

* fitting maximizes the Lagrangian dual, whose K + B variables are one
  multiplier per class (per class and direction when directed) and one
  gamma per block, by damped Newton on the negated dual: each step solves
  H d = -g by Jacobi-preconditioned conjugate gradients on Hessian-vector
  products, then backtracks along d until the dual rises enough (Armijo).
  H sums the class-pair grid's curvature W * p * (1 - p) per variable; it
  and g are built in row chunks of at most ``_TABLE_CELLS`` cells, and the
  curvature is held across the CG iterations when the grid is one chunk
  and rebuilt per product otherwise.  H is singular: with degrees and
  blocks together, raising the multipliers of one bin's classes and
  lowering that bin's gammas leaves every probability as it is, and on
  directed graphs so does raising every row multiplier and lowering every
  column one.  CG needs no ridge for such a consistent system.  A
  multiplier at a clamp whose gradient points outward leaves the system.
  ``fit_info["iterations"]`` counts the Newton steps;
* pair sums are weighted sums of the table over the class histograms of the
  two vertex sets (O(|R| + |C| + K_R * K_C)), for a batch of grids at once:
  exact, whatever the batch (``pair_mass``, with ``pair_sums`` as its
  one-grid case), or through BLAS for the screens: ``self_mass`` of sets
  paired with themselves, and ``row_mass``, one O(K^2) mass row per set,
  whose dot product with another set's histogram is a grid's mass in O(K);
* a pattern multiplier comes from bisection over the clamp range on the
  monotone calibration residual over class-pair weights; the updated model
  splits classes by membership in the pattern's rows and columns.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field

import numpy as np

from .graph import NOMINAL, AttributedGraph, _distinct

log = logging.getLogger(__name__)

LOGIT_CLAMP = 30.0
PROB_EPS = 1e-12
MODEL_VERSION = 2
_TABLE_CELLS = 2_000_000  # max class-pair cells held in a table or built at once
_CG_TOL = 1e-3  # relative residual at which a Newton step's CG solve stops

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


def _dot(a, b):
    """The dot product of two vectors by numpy's summation rather than BLAS,
    whose kernels round it differently: the fit takes the same steps on
    every machine."""
    return float(np.multiply(a, b).sum())


def _classes(columns):
    """Class id per vertex: vertices with equal values in every column share one.

    Returns ``(keys, cls)`` with one row of column values per class, in
    lexicographic order: ``np.unique(np.stack(columns, axis=1), axis=0,
    return_inverse=True)``'s keys and ids bit for bit, from one sort of an
    int64 key instead of a sort of records.  The key is mixed radix over the
    integer or boolean columns in order, each digit a value less its
    column's minimum.  Before a digit could overflow the key, the key is
    re-ranked (and, past that, the column too), so the key stays below n**2.
    The sorts are ``graph._distinct``'s, which import no ``numpy.ma``.
    """
    table = np.stack(columns, axis=1)
    key, span = np.zeros(len(table), dtype=np.int64), 1  # 0 <= key < span
    limit = int(np.iinfo(np.int64).max)
    for col in table.T:
        digit = col.astype(np.int64) - col.min()
        radix = int(digit.max()) + 1
        if span * radix > limit:
            key, span = _ranks(key)
        if span * radix > limit:
            digit, radix = _ranks(digit)
        key = key * radix + digit
        span *= radix
    cls, k = _ranks(key)
    rep = np.empty(k, dtype=np.int64)
    rep[cls] = np.arange(cls.size)  # any member represents its class
    return table[rep], cls


def _ranks(values):
    """Each entry's rank among the distinct entries of ``values``, and their count."""
    distinct = _distinct(values)
    return np.searchsorted(distinct, values), distinct.size


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
    Expected masses come from class histograms: ``pair_mass`` is exact and
    batch-invariant, ``self_mass`` and ``row_mass`` serve the screens.
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
        """Exact ``pair_sums`` of many grids from class histograms, one row
        each (or 1-D for one): ``H_r`` of the rows, ``H_c`` of the columns
        and ``H_o`` of their intersection.  A grid's sums are bit for bit
        the same whatever else is in the batch and wherever it sits: they
        add its own terms, copied in C order, in a fixed order (``einsum``
        and sums over the last axis, or without a full table ``_grid_mass``
        on the grid alone), never through a BLAS product over the batch.  A
        set paired with itself takes the same steps as any other grid, and
        undirected grids are put in a canonical order first, so mirrored
        grids tie.
        """
        H_r, H_c, H_o = (np.array(h, np.float64, order="C", ndmin=2) for h in (H_r, H_c, H_o))
        if not self.directed:
            d = H_r - H_c
            swap = d[np.arange(len(d)), np.argmax(d != 0, axis=1)] < 0
            H_r[swap], H_c[swap] = H_c[swap], H_r[swap]
        if self._P_off is None:
            out = np.zeros((2, len(H_r)))
            for i in range(len(H_r)):
                r, c, o = H_r[i:i + 1], H_c[i:i + 1], H_o[i:i + 1]
                out[0, i] = self._grid_mass(r, c, o)[0]
                if not self.directed:
                    out[1, i] = self.self_mass(o)[0]
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

    def row_mass(self, H):
        """The nested screen's mass rows of the sets of class histograms
        ``H`` (int64 or float, one row each): ``(T, d)``, ``T = H P`` over
        the class table P with its diagonal, and ``d`` that diagonal on the
        classes in ``H`` (0 elsewhere).  Set i by a set of histogram ``h``
        sharing ``h_o`` with it has ordered mass ``T[i] . h - h_o . d``.
        Without a full table, P's rows come in ``_sub_tables`` chunks."""
        H = H.astype(np.float64, copy=False)
        if self._P_off is not None:
            d, T = self._P_diag, H @ self._P_off
        else:
            d, T = np.zeros(self.n_classes), np.zeros(H.shape)
            for a, P, dc, dp in self._sub_tables(_present(H), np.arange(self.n_classes)):
                d[dc] = dp
                T += H[:, a] @ P
        T += H * d
        return T, d

    def self_mass(self, H):
        """The screens' mass of the ordered pairs u != v inside each set of
        class histogram ``H`` (int64 or float, one row each), through BLAS
        products that may round a set differently with the batch around it."""
        H = H.astype(np.float64, copy=False)
        return self._grid_mass(H, H, H)

    def _grid_mass(self, H_r, H_c, H_o):
        """The ordered mass of float grids (``pair_mass``'s histograms, one
        row each): pairs between distinct classes from the off-diagonal
        table, the h_r*h_c - h_o pairs inside one class from its diagonal
        entry, so nothing cancels.  Without a full table, the sub-table of
        the classes present comes in ``_sub_tables`` chunks."""
        if self._P_off is not None:
            diag, ic, to_cols = self._P_diag, slice(None), H_r @ self._P_off
        else:
            ic = _present(H_c)
            diag, to_cols = np.zeros(self.n_classes), np.zeros((len(H_r), ic.size))
            for a, P, dc, dp in self._sub_tables(_present(H_r), ic):
                diag[dc] = dp
                to_cols += H_r[:, a] @ P
        return (H_c[:, ic] * to_cols).sum(axis=-1) + (H_c * H_r - H_o) @ diag

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
            parts = [PartitionGammas(_typed(p["attribute"], "partition attribute", (str,)),
                                     _ints(p["bins"], "bins"),
                                     [_typed(v, "bin value", (str,))
                                      for v in _typed(p["bin_values"], "bin_values", (list,))],
                                     _floats(p["gammas"], "gammas"))
                     for p in _typed(d["partitions"], "partitions", (list,))]
            upds = [PatternUpdate(_ints(u["rows"], "update rows"),
                                  _ints(u["cols"], "update columns"),
                                  float(_typed(u["lam"], "lam")),
                                  _typed(u["observed"], "observed", (int,)),
                                  _typed(u["n_pairs"], "n_pairs", (int,)))
                    for u in _typed(d["updates"], "updates", (list,))]
            lam_col = None if d["lam_col"] is None else _floats(d["lam_col"], "lam_col")
            return cls(_typed(d["n"], "n", (int,)), d["directed"],
                       _typed(d["offset"], "offset"),
                       _ints(d["classes"], "class ids"), _floats(d["lam_row"], "lam_row"),
                       lam_col, parts, upds, prior=_typed(d["prior"], "prior", (str,)),
                       fit_info=_typed(d.get("fit_info"), "fit_info", (type(None), dict)),
                       graph_fingerprint=_typed(d.get("graph_fingerprint"), "graph_fingerprint",
                                                (type(None), str)))
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


def _typed(value, what, types=(int, float)):
    """A model file's JSON value, of one of ``types`` (a number by default);
    a boolean is not a number, nor a string a number."""
    if type(value) not in types:
        kind = {float: "number", str: "string", list: "array",
                dict: "object"}.get(types[-1], "integer")
        raise ValueError(f"malformed model file: {what} must be a JSON {kind}, got {value!r}")
    return value


def _floats(values, what):
    """Nested lists of a model file's JSON numbers as float64."""
    arr = np.asarray(values, dtype=object)
    for x in arr.flat:
        _typed(x, what)
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


class _MaxEntProblem:
    """Joint degree/block dual for one graph; owns the working multipliers.

    A class is the set of vertices sharing their degree (the (out, in) pair
    when directed, because excluding the (u, u) pair makes a row multiplier
    depend on u's in-degree too) and their bin in every partition.  Members
    of a class face identical constraints, so the dual has one multiplier
    per class and every sum over partners is a sum over classes weighted by
    class sizes.

    The dual's variables are one vector ``x``: the degree multipliers (the
    row ones, then the column ones when directed), then each partition's
    gammas, one per block (per unordered bin pair when undirected).  Cell
    (a, b) of the class-pair grid stands for the ``W[a, b] = s_a * s_b``
    ordered vertex pairs between classes a and b (``s_a * (s_a - 1)`` when
    a == b), and its logit ``(M x)[a, b]`` sums a's row multiplier, b's
    column multiplier and every partition's gamma of the cell's bin pair.
    With ``h`` = 1/2 on undirected graphs, which see every pair twice, and 1
    on directed ones, the fit minimizes the negated dual ``h * sum(W *
    softplus(M x)) - t . x``.  Its gradient is ``h * M^T (W * p) - t`` and
    its Hessian ``h * M^T Q M``, ``Q = W * p * (1 - p)``: a variable's terms
    are sums over its cells, one ``bincount`` over a grid of variable ids
    per partition.  Its targets ``t`` are a class's summed degrees and a
    block's edges.
    """

    def __init__(self, g, partition_attrs, with_degrees):
        self.g = g
        self.directed = g.directed
        self.half = 1.0 if self.directed else 0.5
        self.parts = []
        for attr in partition_attrs:
            bins, values = _partition_bins(g, attr)
            self.parts.append(PartitionGammas(attr, bins, values,
                                              np.zeros((len(values), len(values)))))
        if not with_degrees:
            degrees, self.degree_names = [], []
        elif self.directed:
            degrees, self.degree_names = [g.out_degrees(), g.in_degrees()], ["out-degree",
                                                                             "in-degree"]
        else:
            degrees, self.degree_names = [g.degrees()], ["degree"]
        keys, self.cls = _classes(degrees + [p.bins for p in self.parts])
        k = self.k = len(keys)
        self.sizes = np.bincount(self.cls, minlength=k).astype(np.float64)
        self.rep = np.empty(k, dtype=np.int64)
        self.rep[self.cls] = np.arange(g.n)
        self.class_bins = [keys[:, len(degrees) + j] for j in range(len(self.parts))]
        # the degree variables: class a's row multiplier is x[a], its column
        # multiplier x[a] too when undirected, x[k + a] when directed
        self.row_var = self.col_var = None
        n_deg = k * len(degrees)
        deg = keys[:, :len(degrees)].T.ravel().astype(np.float64)
        start = 0.5 * _logit(deg / (g.n - 1))
        members = np.tile(self.sizes, len(degrees))  # a degree residual is per member
        targets, scale = [deg * members], [members]
        if degrees:
            self.row_var = np.arange(k)
            self.col_var = self.row_var + (n_deg - k)
        # the gamma variables: one per block, in the order (b1, b2) of the
        # bin pairs, b1 <= b2 when undirected; var[j] maps partition j's bin
        # pairs to them
        e0, e1 = g.edges[:, 0], g.edges[:, 1]
        self.var, self.blocks = [], []
        nvar = n_deg
        for part in self.parts:
            nb = part.n_bins
            obs = np.bincount(part.bins[e0] * nb + part.bins[e1],
                              minlength=nb * nb).reshape(nb, nb)
            var = np.arange(nb * nb).reshape(nb, nb)
            if not self.directed:
                obs = np.triu(obs + obs.T) - np.diag(np.diag(obs))
                var = np.triu(var) + np.triu(var, 1).T
            ids = _distinct(var.ravel())  # each variable's block, as b1 * nb + b2
            b1, b2 = np.divmod(ids, nb)
            self.var.append(np.searchsorted(ids, var) + nvar)
            self.blocks += [(part, (int(i), int(j))) for i, j in zip(b1, b2)]
            targets.append(obs[b1, b2].astype(np.float64))
            scale.append(np.ones(ids.size))
            nvar += ids.size
        self.n_var = nvar
        self.t, self.scale = np.concatenate(targets), np.concatenate(scale)
        # a grid held whole is built once; a larger one is rebuilt per pass
        self._whole = list(self._build_grid()) if k * k <= _TABLE_CELLS else None
        # a constraint over no pairs keeps its multiplier at 0; one that
        # asks for no edge, or for every pair, starts and stays at a clamp
        pairs = sum(self._gather(W, a, var) for a, W, var in self._grid())
        self.fixed = pairs == 0
        x = np.concatenate([start, np.zeros(nvar - n_deg)])
        x[(self.t <= 0) & ~self.fixed] = -LOGIT_CLAMP
        x[(self.t >= pairs) & ~self.fixed] = LOGIT_CLAMP
        x[self.fixed] = 0.0
        self._move_to(x, *self._evaluate(x))

    def _build_grid(self):
        """The class-pair grid in row chunks of at most ``_TABLE_CELLS``
        cells, each as ``(a, W, var)``: the chunk's classes ``a``, the pair
        counts ``W`` of its cells and, per partition, the gamma variable of
        every cell."""
        k = self.k
        step = max(1, _TABLE_CELLS // k)
        for a0 in range(0, k, step):
            a = np.arange(a0, min(k, a0 + step))
            W = np.outer(self.sizes[a], self.sizes)
            W[np.arange(a.size), a] -= self.sizes[a]  # u == v
            yield a, W, [v[cb[a][:, None], cb[None, :]]
                         for v, cb in zip(self.var, self.class_bins)]

    def _grid(self):
        return self._build_grid() if self._whole is None else self._whole

    def _spread(self, x, a, var):
        """``M x`` on the chunk rows ``a``: every cell's sum of its variables."""
        L = np.zeros((a.size, self.k))
        if self.row_var is not None:
            L += x[self.row_var[a]][:, None]
            L += x[self.col_var]
        for v in var:
            L += x[v]
        return L

    def _gather(self, Z, a, var):
        """``h * M^T Z`` of the values ``Z`` on the chunk rows ``a``: every
        variable's sum over its cells."""
        out = np.zeros(self.n_var)
        if self.row_var is not None:
            out[self.row_var[a]] += Z.sum(axis=1)
            out[self.col_var] += Z.sum(axis=0)
        for v in var:
            out += np.bincount(v.ravel(), Z.ravel(), minlength=self.n_var)
        return out * self.half

    def _evaluate(self, x):
        """The dual at ``x``, its gradient and its Hessian's diagonal, and the
        curvature ``Q`` of each chunk when the grid is held whole."""
        f, grad, diag, held = 0.0, np.zeros(self.n_var), np.zeros(self.n_var), []
        for a, W, var in self._grid():
            L = self._spread(x, a, var)
            p = _sigmoid(L)
            f += float((W * _softplus(L)).sum())
            Q = W * p
            grad += self._gather(Q, a, var)
            Q *= 1.0 - p
            diag += self._gather(Q, a, var)
            if not self.directed and self.row_var is not None:
                # a pair inside class a carries its multiplier at both ends
                diag[self.row_var[a]] += Q[np.arange(a.size), a]
            if self._whole is not None:
                held.append((a, var, Q))
        return self.half * f - _dot(self.t, x), grad - self.t, diag, held or None

    def _move_to(self, x, f, grad, diag, held):
        self.x, self.f, self.grad, self.diag, self._held = x, f, grad, diag, held

    def _curvature(self):
        """``(a, var, Q)`` of each chunk at the current multipliers."""
        if self._held is not None:
            return self._held
        return ((a, var, W * p * (1.0 - p)) for a, W, var in self._grid()
                for p in [_sigmoid(self._spread(self.x, a, var))])

    def _hessian_times(self, v):
        return sum(self._gather(Q * self._spread(v, a, var), a, var)
                   for a, var, Q in self._curvature())

    def _direction(self, free):
        """The Newton step on the ``free`` variables: ``H d = -grad`` by
        conjugate gradients on Hessian-vector products, Jacobi
        preconditioned, to a relative residual of ``_CG_TOL``.  ``H`` is
        singular along the dual's null directions, but the system is
        consistent, which CG needs, and no ridge is added."""
        d = np.zeros(self.n_var)
        r = np.where(free, -self.grad, 0.0)
        m = np.divide(1.0, self.diag, out=np.zeros(self.n_var), where=free & (self.diag > 0))
        z = m * r
        s, rz = z, _dot(r, z)
        stop = rz * _CG_TOL ** 2
        for _ in range(int(free.sum())):
            Hs = np.where(free, self._hessian_times(s), 0.0)
            curv = _dot(s, Hs)
            if curv <= 0.0:
                break
            alpha = rz / curv
            d += alpha * s
            r -= alpha * Hs
            z = m * r
            rz, rz0 = _dot(r, z), rz
            if rz <= stop:
                break
            s = z + (rz / rz0) * s
        return d

    def _saturated(self):
        """The multipliers at a clamp whose gradient points further out."""
        x, grad, eps = self.x, self.grad, 1e-9
        return ((grad > 0) & (x <= -LOGIT_CLAMP + eps)) | ((grad < 0) & (x >= LOGIT_CLAMP - eps))

    def newton_step(self):
        """One projected Newton step with Armijo backtracking.

        A multiplier at a clamp whose gradient points further out stays
        there and leaves the system, as does one over no pairs.  Returns
        False when no step along the direction raises the dual."""
        x, grad = self.x, self.grad
        d = self._direction(~(self.fixed | self._saturated()))
        if not d.any():
            return False
        slack = 1e-12 * max(1.0, abs(self.f))  # the dual's rounding
        step = 1.0
        for _ in range(60):
            x1 = np.clip(x + step * d, -LOGIT_CLAMP, LOGIT_CLAMP)
            state = self._evaluate(x1)
            if state[0] <= self.f + 1e-4 * _dot(grad, x1 - x) + slack:
                self._move_to(x1, *state)
                return True
            step *= 0.5
        return False

    def residuals(self):
        """Worst unwaived constraint plus the worst saturated residual.

        Returns ``(worst_name, worst, waived_worst)``; ``worst`` drives
        convergence, ``waived_worst`` is reported for saturated constraints
        (degree 0 / degree n-1 vertices, zero-edge blocks): those whose
        multiplier is pinned at a clamp bound with the gradient pointing
        further outward, so the residual is irreducible.  A degree
        constraint's residual is per member of its class.  The first of
        equally worst constraints in variable order is named.
        """
        r = self.grad / self.scale
        saturated = self._saturated()
        size = np.abs(r)
        size[self.fixed] = 0.0
        waived = float(size[saturated].max()) if saturated.any() else 0.0
        size[saturated] = 0.0
        i = int(np.argmax(size))
        if size[i] == 0.0:
            return "", 0.0, waived
        if i < self.k * len(self.degree_names):
            kind, a = divmod(i, self.k)
            label = self.g.vertex_label(int(self.rep[a]))
            return f"{self.degree_names[kind]} of vertex {label!r}", float(size[i]), waived
        part, (b1, b2) = self.blocks[i - self.k * len(self.degree_names)]
        values = part.bin_values
        return f"block ({part.attribute}: {values[b1]} x {values[b2]})", float(size[i]), waived

    def model_arrays(self):
        """The fitted ``(lam_row, lam_col, partitions)``."""
        x = self.x
        if self.row_var is None:
            lam_row = lam_col = np.zeros(self.k)
        else:
            lam_row, lam_col = x[self.row_var], x[self.col_var]
        for part, var in zip(self.parts, self.var):
            part.gammas = x[var]
        return lam_row, lam_col, self.parts


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
    steps = 0
    while worst > tol:
        if steps >= max_iter or not prob.newton_step():
            raise FitError(
                f"no convergence after {steps} Newton steps; worst constraint: "
                f"{worst_name} (residual {worst:.3g} > tol {tol:g})")
        steps += 1
        worst_name, worst, waived = prob.residuals()

    lam_row, lam_col, parts = prob.model_arrays()
    pinned = (np.abs(lam_row) >= LOGIT_CLAMP) | (np.abs(lam_col) >= LOGIT_CLAMP)
    clamped = [g.vertex_label(int(u)) for u in np.flatnonzero(pinned[prob.cls])]
    if clamped and with_degrees:
        log.warning("multipliers clamped at +/-%g for %d extremal-degree vertex(es): %s",
                    LOGIT_CLAMP, len(clamped), ", ".join(clamped[:5]))
    if waived > tol:
        log.warning("saturated constraints left an irreducible residual of %.3g", waived)
    info = {"prior": prior, "iterations": steps, "max_residual": worst,
            "saturated_residual": waived, "worst_constraint": worst_name,
            "tol": tol, "clamped": clamped, "classes": prob.k}
    return BackgroundModel(g.n, g.directed, 0.0, prob.cls, lam_row,
                           lam_col if g.directed else None,
                           parts, prior=prior, fit_info=info,
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
    if _distinct(ids).size != ids.size:
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
    hists = model._histograms(rows, cols)
    n_w = pair_universe(rows.size, cols.size, int(hists[2].sum()),
                        "ordered" if model.directed else "unordered")
    if n_w <= 0:
        raise ValueError("pair universe is empty for the given sets")
    ordered, over = model.pair_mass(*hists)
    return float(ordered[0] - over[0] / 2.0) / n_w, n_w
