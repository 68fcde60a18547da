"""Attributed-graph data model, file ingestion and raw edge/degree counting."""

from __future__ import annotations

import csv
import hashlib
import json
import logging
from collections import Counter
from dataclasses import dataclass, field
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
    for v in set(col.values.tolist()) - {None}:
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
    columns hold float64 (``NaN`` marks a missing value).
    """

    name: str
    kind: str
    values: np.ndarray

    def __post_init__(self):
        if self.kind not in (NOMINAL, NUMERIC):
            raise ValueError(f"unknown attribute kind {self.kind!r}")
        if self.kind == NUMERIC:
            self.values = np.asarray(self.values, dtype=np.float64)
        else:
            vals = np.empty(len(self.values), dtype=object)
            for i, v in enumerate(self.values):
                vals[i] = None if v is None else str(v)
            self.values = vals

    def __len__(self) -> int:
        return len(self.values)

    def missing_mask(self) -> np.ndarray:
        if self.kind == NUMERIC:
            return np.isnan(self.values)
        return np.array([v is None for v in self.values], dtype=bool)

    def distinct(self) -> list:
        """Sorted distinct non-missing values (the attribute's domain)."""
        if self.kind == NUMERIC:
            vals = self.values[~np.isnan(self.values)]
            return sorted(set(float(v) for v in vals))
        return sorted(set(v for v in self.values if v is not None))


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
        self._e0 = np.asarray(e0, dtype=np.int64)
        self._e1 = np.asarray(e1, dtype=np.int64)

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


def _parse_attr_table(path, options: LoadOptions):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh, delimiter=options.delimiter)
        rows = [row for row in reader if row and any(tok.strip() for tok in row)]
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

    labels = []
    cells: list[list[str]] = [[] for _ in header]
    for lineno, row in enumerate(body, start=2):
        if len(row) != len(header):
            raise GraphFormatError(
                f"{path}:{lineno}: ragged row has {len(row)} fields, expected {len(header)}")
        for j, tok in enumerate(row):
            cells[j].append(tok.strip())
    labels = cells[id_idx]
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
            # integer-coded columns (0/1 indicators, years, dorm codes) are
            # used via equality selectors, so only fractional values imply a
            # numeric attribute; override via LoadOptions.kinds when needed
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
            vals = np.array([np.nan if miss else float(tok)
                             for tok, miss in zip(raw, missing)])
        else:
            vals = [None if miss else tok for tok, miss in zip(raw, missing)]
        columns.append(AttributeColumn(name, kind, vals))
    return labels, columns


def _parse_edge_lines(path, label_to_id, options: LoadOptions):
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
                    log.warning("%s:%d: dropping self-loop on %r", path, lineno, toks[0])
                    continue
                raise GraphFormatError(f"{path}:{lineno}: self-loop on {toks[0]!r}")
            edges.append((u, v))
    return edges


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
    """Write a graph in the canonical form accepted by :func:`load_graph`."""
    edge_path, attr_path = Path(edge_path), Path(attr_path)
    with open(edge_path, "w", encoding="utf-8") as fh:
        for u, v in g.edges:
            fh.write(f"{g.labels[u]} {g.labels[v]}\n")
    with open(attr_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, delimiter=delimiter, lineterminator="\n")
        writer.writerow(["id"] + g.attribute_names)
        for i in range(g.n):
            row = [g.labels[i]]
            for c in g.columns:
                v = c.values[i]
                if c.kind == NUMERIC:
                    row.append("" if np.isnan(v) else repr(float(v)))
                else:
                    row.append("" if v is None else v)
            writer.writerow(row)
