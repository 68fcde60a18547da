"""Attributed-graph data model, file ingestion and raw edge/degree counting."""

from __future__ import annotations

import csv
import hashlib
import json
import logging
from collections import Counter
from dataclasses import dataclass, field
from itertools import islice, repeat
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

log = logging.getLogger(__name__)

NOMINAL = "nominal"
NUMERIC = "numeric"

__all__ = [
    "NOMINAL",
    "NUMERIC",
    "GraphFormatError",
    "AttributeColumn",
    "LoadOptions",
    "AttributedGraph",
    "load_graph",
    "save_graph",
]


class GraphFormatError(ValueError):
    """Malformed edge/attribute files or invalid graph structure."""


def _distinct(values):
    """The sorted distinct entries of a 1-D array, NaNs as one: ``np.unique``
    by its sort path (numpy's default sort, then a comparison of
    neighbours), so of equal entries such as -0.0 and 0.0 it keeps the one
    that sort puts first, as ``np.unique`` does.  ``np.unique`` imports
    ``numpy.ma`` on its first call (numpy >= 2.3); this imports nothing."""
    s = np.sort(values)
    keep = np.ones(s.size, dtype=bool)
    np.not_equal(s[1:], s[:-1], out=keep[1:])
    if s.dtype.kind == "f" and s.size and np.isnan(s[-1]):
        keep[1:] &= ~np.isnan(s[:-1])  # NaNs sort last; the first one stays
    return s[keep]


# text the description grammar (see ``simine.descriptions``) reserves: a
# description joins selectors with " ∧ ", and a selector is name=value or
# name∈[lo,hi]; a nominal value ending in " ∧" would run into the next " ∧ "
_NAME_TOKENS = (" ∧ ", "=", "∈[")
_VALUE_TOKENS = (" ∧ ", "∈[")


def _check_grammar(col):
    """Reject attribute names and nominal values that descriptions could not
    render and parse back."""
    bad = next((t for t in _NAME_TOKENS if t in col.name), None)
    if bad is not None or col.name != col.name.strip():
        reason = f"contains {bad!r}" if bad else "has surrounding whitespace"
        raise GraphFormatError(f"attribute name {col.name!r} {reason}, which "
                               "descriptions cannot render")
    if col.kind != NOMINAL:
        return
    for v in col.domain:
        bad = next((t for t in _VALUE_TOKENS if t in v), None)
        if bad is None and v.endswith(" ∧"):
            bad = " ∧"
        if bad is not None or v != v.strip():
            reason = f"contains {bad!r}" if bad else "has surrounding whitespace"
            raise GraphFormatError(f"value {v!r} of attribute {col.name!r} {reason}, "
                                   "which descriptions cannot render")


@dataclass
class AttributeColumn:
    """One vertex attribute: a name, a kind and one value per vertex.

    Nominal columns hold strings (``None`` marks a missing value); numeric
    columns hold float64 (``NaN`` marks a missing value).  The column is
    coded when built: ``domain`` is the tuple of sorted distinct non-missing
    values and ``codes`` each vertex's position in it (int64, read-only, -1
    where missing), which selectors, missing masks and block-prior bins read.
    """

    name: str
    kind: str
    values: np.ndarray

    def __post_init__(self):
        if self.kind not in (NOMINAL, NUMERIC):
            raise ValueError(f"unknown attribute kind {self.kind!r}")
        if self.kind == NUMERIC:
            self.values = np.asarray(self.values, dtype=np.float64)
            missing = np.isnan(self.values)
            self.domain = tuple(_distinct(self.values[~missing]).tolist())
            codes = np.where(missing, -1, np.searchsorted(self.domain, self.values))
        else:
            strs = [None if v is None else str(v) for v in self.values]
            self.values = np.fromiter(strs, dtype=object, count=len(strs))
            self.domain = tuple(sorted(set(strs) - {None}))
            code = {v: i for i, v in enumerate(self.domain)} | {None: -1}
            codes = np.fromiter(map(code.__getitem__, strs), np.int64, len(strs))
        codes.flags.writeable = False  # and a view of it cannot be made writeable
        self.codes = codes.view()

    def __len__(self) -> int:
        return len(self.values)

    def missing_mask(self) -> np.ndarray:
        return self.codes < 0

    def distinct(self) -> list:
        """Sorted distinct non-missing values (the attribute's domain)."""
        return list(self.domain)


@dataclass
class LoadOptions:
    """Options for :func:`load_graph`.

    ``id_column`` selects the attribute table's vertex-id column by header
    name or zero-based index (default: first column).  ``kinds`` overrides
    the inferred kind per attribute name.  ``allow_self_loops`` makes
    directed loaders drop self-loop lines (with a warning) instead of
    failing; the graph itself never stores self-loops.
    """

    delimiter: str = ","
    id_column: str | int | None = None
    directed: bool = False
    kinds: dict = field(default_factory=dict)
    missing_tokens: frozenset = frozenset({"", "NA"})
    allow_self_loops: bool = False


def _edge_arrays(n, edges, directed):
    """The edges ``(u, v)`` as two int64 arrays of their ends, in the given
    order, undirected ones as ``(min, max)``.  Self-loops, ids outside
    [0, n) and repeats of an earlier edge are found by whole-array passes
    (repeats by one stable sort of the keys u*n + v), and the first edge
    that has one raises ``GraphFormatError``, naming its first fault in that
    order."""
    edges = edges if isinstance(edges, np.ndarray) else list(edges)
    try:
        e = np.asarray(edges, dtype=np.int64)
    except OverflowError:  # an id no int64 holds lies outside [0, n)
        k = _first_wide(edges)
        _edge_arrays(n, edges[:k], directed)  # raises if an earlier edge is at fault
        e = edges[k]
        if len(e) != 2:
            raise GraphFormatError("edges must be (u, v) pairs") from None
        u, v = int(e[0]), int(e[1])
        raise GraphFormatError(f"self-loop on vertex {u} is not allowed" if u == v else
                               f"edge ({u},{v}) references a vertex id >= n={n}") from None
    except (TypeError, ValueError):
        raise GraphFormatError("edges must be (u, v) pairs") from None
    if e.size == 0:
        e = e.reshape(0, 2)
    if e.ndim != 2 or e.shape[1] != 2:
        raise GraphFormatError("edges must be (u, v) pairs")
    u, v = e.T.copy()
    e0, e1 = (u, v) if directed else (np.minimum(u, v), np.maximum(u, v))
    loop = u == v
    outside = (e0 < 0) | (e1 < 0) | (e0 >= n) | (e1 >= n)
    key = e0 * n + e1
    order = np.argsort(key, kind="stable")
    again = np.zeros(key.size, dtype=bool)
    again[order[1:]] = key[order[1:]] == key[order[:-1]]
    bad = np.flatnonzero(loop | outside | again)
    if bad.size:
        k = bad[0]
        if loop[k]:
            raise GraphFormatError(f"self-loop on vertex {u[k]} is not allowed")
        if outside[k]:
            raise GraphFormatError(f"edge ({u[k]},{v[k]}) references a vertex id >= n={n}")
        raise GraphFormatError(f"duplicate edge ({e0[k]},{e1[k]})")
    return e0, e1


def _first_wide(edges):
    """The position of the first edge with an id that no int64 holds."""
    low, high = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)
    return next(k for k, pair in enumerate(edges)
                if not all(low <= int(x) <= high for x in pair))


class AttributedGraph:
    """Immutable vertex-attributed graph with fast set-based edge counting.

    Vertices are dense ids ``0..n-1``; the original file labels are kept for
    reporting.  Undirected edges are stored canonically as ``(min, max)``
    pairs.  Attribute names and nominal values must render and parse back in
    descriptions; others raise ``GraphFormatError``.  All read operations
    are safe for concurrent use.
    """

    def __init__(self, n: int, edges: Iterable[tuple], directed: bool = False,
                 columns: Sequence[AttributeColumn] = (), labels: Sequence[str] | None = None):
        if n < 1:
            raise GraphFormatError("graph needs at least one vertex")
        self.n = int(n)
        self.directed = bool(directed)

        self._e0, self._e1 = _edge_arrays(self.n, edges, self.directed)

        self.columns: list[AttributeColumn] = list(columns)
        self._col_index = {}
        for c in self.columns:
            if len(c) != n:
                raise GraphFormatError(
                    f"attribute column {c.name!r} has {len(c)} values, expected {n}")
            if c.name in self._col_index:
                raise GraphFormatError(f"duplicate attribute column {c.name!r}")
            _check_grammar(c)
            self._col_index[c.name] = c

        if labels is None:
            labels = [str(i) for i in range(n)]
        if len(labels) != n:
            raise GraphFormatError("label list length must equal n")
        self.labels = list(labels)
        self._label_to_id = {lab: i for i, lab in enumerate(self.labels)}

        out = np.bincount(self._e0, minlength=n)
        inc = np.bincount(self._e1, minlength=n)
        self._deg = out + inc
        self._out_deg, self._in_deg = (out, inc) if directed else (None, None)
        for deg in (out, inc, self._deg):
            deg.flags.writeable = False

    # -- basic accessors ----------------------------------------------------

    @property
    def m(self) -> int:
        """Number of edges (ordered pairs when directed)."""
        return len(self._e0)

    @property
    def edges(self) -> np.ndarray:
        return np.stack([self._e0, self._e1], axis=1) if self.m else np.empty((0, 2), np.int64)

    @property
    def attribute_names(self) -> list[str]:
        return [c.name for c in self.columns]

    def column(self, name: str) -> AttributeColumn:
        try:
            return self._col_index[name]
        except KeyError:
            raise KeyError(f"unknown attribute {name!r}") from None

    def vertex_id(self, label: str) -> int:
        return self._label_to_id[label]

    def vertex_label(self, u: int) -> str:
        return self.labels[u]

    def fingerprint(self, attributes=()) -> str:
        """sha256 (hex) of what a model fitted on this graph depends on: the
        vertex labels in id order, the edges in sorted order (so the order
        of an edge file's lines does not matter) and the named attribute
        columns.  An unknown attribute raises KeyError."""
        h = hashlib.sha256()
        h.update(json.dumps([self.n, self.m, self.directed, self.labels]).encode())
        h.update(np.sort(self._e0 * self.n + self._e1).astype("<i8").tobytes())
        for name in attributes:
            col = self.column(name)
            h.update(json.dumps([name, col.kind, col.values.tolist()]).encode())
        return h.hexdigest()

    # -- degrees ------------------------------------------------------------

    def degrees(self) -> np.ndarray:
        """Per-vertex degree (in+out when directed), as a read-only view."""
        return self._deg.view()

    def out_degrees(self) -> np.ndarray:
        """Per-vertex out-degree of a directed graph, as a read-only view."""
        if not self.directed:
            raise ValueError("out_degrees is only defined for directed graphs")
        return self._out_deg.view()

    def in_degrees(self) -> np.ndarray:
        """Per-vertex in-degree of a directed graph, as a read-only view."""
        if not self.directed:
            raise ValueError("in_degrees is only defined for directed graphs")
        return self._in_deg.view()

    # -- vertex sets and counting --------------------------------------------

    def as_mask(self, vertices) -> np.ndarray:
        """Normalize a vertex set (mask or id iterable) to a boolean mask."""
        if isinstance(vertices, np.ndarray) and vertices.dtype == bool:
            if vertices.shape != (self.n,):
                raise ValueError("mask length must equal n")
            return vertices
        mask = np.zeros(self.n, dtype=bool)
        ids = np.asarray(list(vertices) if not isinstance(vertices, np.ndarray) else vertices,
                         dtype=np.int64)
        if ids.size and (ids.min() < 0 or ids.max() >= self.n):
            raise IndexError("vertex id out of range")
        mask[ids] = True
        return mask

    def count_edges_between(self, a, b) -> int:
        """Number of edges with one endpoint in ``a`` and the other in ``b``.

        Each qualifying edge is counted once; ``a == b`` gives the edge count
        within ``a``.  Directed graphs count ordered edges u->v with u in
        ``a`` and v in ``b``.
        """
        a = self.as_mask(a)
        b = self.as_mask(b)
        if self.m == 0:
            return 0
        if self.directed:
            return int(np.count_nonzero(a[self._e0] & b[self._e1]))
        hit = (a[self._e0] & b[self._e1]) | (b[self._e0] & a[self._e1])
        return int(np.count_nonzero(hit))

    def inter_edge_count(self, a) -> int:
        """Number of edges with exactly one endpoint in ``a``."""
        a = self.as_mask(a)
        if self.m == 0:
            return 0
        return int(np.count_nonzero(a[self._e0] ^ a[self._e1]))


# -- file ingestion ----------------------------------------------------------


def _row_line(path, options: LoadOptions, index):
    """The physical line, counted from 1, on which the attribute table's
    ``index``-th non-blank row (the header is row 0) ends: the ``csv``
    reader's ``line_num``, which counts blank lines and the line breaks
    inside quoted fields too."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh, delimiter=options.delimiter)
        ends = (reader.line_num for row in reader if "".join(row).strip())
        return next(islice(ends, index, None))


def _parse_attr_table(path, options: LoadOptions):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh, delimiter=options.delimiter)
        rows = [row for row in reader if "".join(row).strip()]
    if not rows:
        raise GraphFormatError(f"attribute file {path} is empty")
    header = [h.strip() for h in rows[0]]
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

    bad = next((k for k, row in enumerate(body) if len(row) != len(header)), None)
    if bad is not None:
        raise GraphFormatError(f"{path}:{_row_line(path, options, bad + 1)}: ragged row has "
                               f"{len(body[bad])} fields, expected {len(header)}")
    cells = [list(map(str.strip, column)) for column in zip(*body)]
    labels = cells[id_idx]
    # the edge file reads a line starting with "#" as a comment
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
        vals = [None if tok in options.missing_tokens else tok for tok in cells[j]]
        kind = options.kinds.get(name)
        if kind is None:
            # integer-coded columns (0/1 indicators, years, dorm codes) are
            # used via equality selectors, so only fractional values imply a
            # numeric attribute; override via LoadOptions.kinds when needed
            kind = NOMINAL
            parsed = []
            for tok in vals:
                if tok is None:
                    continue
                try:
                    parsed.append(float(tok))
                except ValueError:
                    parsed = None
                    break
            if parsed and any(not v.is_integer() for v in parsed):
                kind = NUMERIC
        if kind == NUMERIC:
            vals = np.array([np.nan if tok is None else float(tok) for tok in vals])
        columns.append(AttributeColumn(name, kind, vals))
    return labels, columns


def _parse_edge_lines(path, label_to_id, options: LoadOptions):
    """The edges of an edge file as an (m, 2) int64 array of vertex ids, in
    file order.  The file is read whole; its lines' tokens are counted, and
    its labels split and mapped through ``label_to_id``, in bulk passes that
    build no list per line.  The first line at fault raises
    ``GraphFormatError`` (a wrong token count, then an unknown label, then a
    self-loop), after the warnings for the self-loops dropped before it."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    comments = "#" in text
    lines = text.split("\n")
    del text
    # the data lines: neither blank nor comments
    counts = np.fromiter(map(len, map(str.split, lines)), np.int64, len(lines))
    data = counts > 0
    if comments:
        data &= ~np.fromiter((ln.lstrip().startswith("#") for ln in lines), bool, len(lines))
    rows = np.flatnonzero(data)
    # the lines before the first one at fault are parsed; stop is that line
    wrong = np.flatnonzero(counts[rows] != 2)
    stop = int(wrong[0]) if wrong.size else rows.size
    error = None
    if stop < rows.size:
        error = f"{path}:{rows[stop] + 1}: expected two whitespace-separated tokens"
    parsed = " ".join([lines[r] for r in rows[:stop].tolist()])
    del lines  # one copy of the file's text at a time
    labels = parsed.split()
    del parsed
    ids = np.fromiter(map(label_to_id.get, labels, repeat(-1)), np.int64,
                      len(labels)).reshape(-1, 2)
    unknown = np.flatnonzero(ids < 0)
    if unknown.size:
        stop = int(unknown[0]) // 2
        error = f"{path}:{rows[stop] + 1}: unknown vertex label {labels[unknown[0]]!r}"
    loops = np.flatnonzero(ids[:stop, 0] == ids[:stop, 1]).tolist()
    if loops and not (options.directed and options.allow_self_loops):
        raise GraphFormatError(f"{path}:{rows[loops[0]] + 1}: self-loop on "
                               f"{labels[2 * loops[0]]!r}")
    for k in loops:
        log.warning("%s:%d: dropping self-loop on %r", path, rows[k] + 1, labels[2 * k])
    if error is not None:
        raise GraphFormatError(error)
    return np.delete(ids, loops, axis=0)


def load_graph(edge_path, attr_path, options: LoadOptions | None = None) -> AttributedGraph:
    """Load a graph from an edge list plus a delimited attribute table.

    The attribute table defines the vertex universe (one row per vertex,
    header row, one id column); the edge file references those ids, one
    ``u v`` pair per line, with ``#`` comment lines ignored.
    """
    options = options or LoadOptions()
    if not (isinstance(options.delimiter, str) and len(options.delimiter) == 1):
        raise GraphFormatError(f"delimiter must be one character, got {options.delimiter!r}")
    labels, columns = _parse_attr_table(attr_path, options)
    label_to_id = {lab: i for i, lab in enumerate(labels)}
    edges = _parse_edge_lines(edge_path, label_to_id, options)
    return AttributedGraph(len(labels), edges, directed=options.directed,
                           columns=columns, labels=labels)


def save_graph(g: AttributedGraph, edge_path, attr_path, delimiter: str = ","):
    """Write a graph in the canonical form accepted by :func:`load_graph`.

    Raises ``GraphFormatError``, writing nothing, on a label that would not
    load back: one starting with ``#``, or an edge endpoint's that is empty
    or holds whitespace, which a ``u v`` line cannot delimit.
    """
    deg = g.degrees()
    bad = next((lab for u, lab in enumerate(g.labels) if lab.startswith("#")
                or deg[u] and lab.split() != [lab]), None)
    if bad is not None:
        raise GraphFormatError(f"vertex label {bad!r} would not load back from the files")
    edge_path, attr_path = Path(edge_path), Path(attr_path)
    with open(edge_path, "w", encoding="utf-8") as fh:
        for u, v in g.edges:
            fh.write(f"{g.labels[u]} {g.labels[v]}\n")
    cells = [c.values if c.kind == NOMINAL else [repr(v) for v in c.values.tolist()]
             for c in g.columns]
    with open(attr_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, delimiter=delimiter, lineterminator="\n")
        writer.writerow(["id"] + g.attribute_names)
        writer.writerows(zip(g.labels, *(np.where(c.missing_mask(), "", v)
                                          for c, v in zip(g.columns, cells))))
