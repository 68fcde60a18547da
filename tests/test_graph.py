import csv
import logging
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simine import (AttributeColumn, AttributedGraph, Description, EqualsSelector,
                    GraphFormatError, LoadOptions, generate_selectors, load_graph,
                    parse_description, save_graph, selector_mask)
from simine.background import _partition_bins
from simine.graph import _edge_arrays

from conftest import (FIG_A, FIG_B, FIG_C, FIG_D, random_graph, reference_domain,
                      reference_edge_arrays, reference_equals_mask, reference_load_graph,
                      reference_partition_bins, write_dataset)


def fig_files(tmp_path):
    attr_lines = ["id,a,b,c,d"]
    for i in range(11):
        attr_lines.append(f"{i},{FIG_A[i]},{FIG_B[i]},{FIG_C[i]},{FIG_D[i]}")
    edge_lines = ["# comment line", "0 1", "0 2", "2 3"]
    return write_dataset(tmp_path, edge_lines, attr_lines)


class TestLoad:
    def test_smallest_graph(self, tmp_path):
        e, a = write_dataset(tmp_path, ["x y"], ["id,b", "x,1", "y,0"])
        g = load_graph(e, a)
        assert g.n == 2 and g.m == 1
        assert g.vertex_label(0) == "x" and g.vertex_id("y") == 1

    def test_fig_attribute_kinds(self, tmp_path):
        g = load_graph(*fig_files(tmp_path))
        assert g.n == 11
        assert [c.name for c in g.columns] == ["a", "b", "c", "d"]
        assert g.column("a").kind == "numeric"
        assert all(g.column(x).kind == "nominal" for x in "bcd")
        assert g.m == 3  # comment line ignored

    def test_self_loop_rejected(self, tmp_path):
        e, a = write_dataset(tmp_path, ["3 3"], ["id,b", "1,0", "2,0", "3,0", "4,1"])
        with pytest.raises(GraphFormatError, match="self-loop"):
            load_graph(e, a)

    def test_directed_self_loop_dropped_when_enabled(self, tmp_path):
        e, a = write_dataset(tmp_path, ["1 1", "1 2"], ["id,b", "1,0", "2,1"])
        g = load_graph(e, a, LoadOptions(directed=True, allow_self_loops=True))
        assert g.m == 1

    def test_duplicate_edge_rejected(self, tmp_path):
        e, a = write_dataset(tmp_path, ["1 2", "2 1"], ["id,b", "1,0", "2,1"])
        with pytest.raises(GraphFormatError, match="duplicate"):
            load_graph(e, a)

    def test_unknown_label_rejected(self, tmp_path):
        e, a = write_dataset(tmp_path, ["1 9"], ["id,b", "1,0", "2,1"])
        with pytest.raises(GraphFormatError, match="unknown vertex label '9'"):
            load_graph(e, a)

    def test_ragged_attribute_row(self, tmp_path):
        e, a = write_dataset(tmp_path, ["1 2"], ["id,b,c", "1,0,1", "2,0"])
        with pytest.raises(GraphFormatError, match="ragged"):
            load_graph(e, a)

    def test_kind_override_and_missing(self, tmp_path):
        e, a = write_dataset(tmp_path, ["1 2"], ["id,b,x", "1,0,", "2,1,3.5", "3,0,NA"])
        g = load_graph(e, a, LoadOptions(kinds={"b": "nominal"}))
        assert g.column("x").kind == "numeric"
        assert np.isnan(g.column("x").values[0]) and np.isnan(g.column("x").values[2])

    def test_tab_delimiter_and_named_id_col(self, tmp_path):
        e, a = write_dataset(tmp_path, ["u v"],
                             ["b\tnode\tc", "1\tu\tx", "0\tv\ty"])
        g = load_graph(e, a, LoadOptions(delimiter="\t", id_column="node"))
        assert g.n == 2 and g.m == 1
        assert g.column("b").values[0] == "1"

    def test_roundtrip(self, tmp_path):
        g = load_graph(*fig_files(tmp_path))
        save_graph(g, tmp_path / "out.edges", tmp_path / "out.csv")
        g2 = load_graph(tmp_path / "out.edges", tmp_path / "out.csv")
        assert g2.n == g.n and g2.m == g.m
        assert np.array_equal(np.sort(g2.edges, axis=0), np.sort(g.edges, axis=0))
        for c1, c2 in zip(g.columns, g2.columns):
            assert c1.name == c2.name and c1.kind == c2.kind
            if c1.kind == "numeric":
                assert np.allclose(c1.values, c2.values, equal_nan=True)
            else:
                assert list(c1.values) == list(c2.values)

    def test_label_starting_with_hash_rejected(self, tmp_path):
        # the edge line "#1 2" would be read as a comment, losing its edge
        e, a = write_dataset(tmp_path, ["#1 2"], ["id,b", "#1,a", "2,b"])
        with pytest.raises(GraphFormatError, match="vertex id '#1' starts with '#'"):
            load_graph(e, a)

    @pytest.mark.parametrize("label", ["a b", "a\tb", "", "#x"])
    def test_save_rejects_label_that_would_not_load_back(self, tmp_path, label):
        g = AttributedGraph(2, [(0, 1)], labels=[label, "y"])
        with pytest.raises(GraphFormatError, match=re.escape(repr(label))):
            save_graph(g, tmp_path / "out.edges", tmp_path / "out.csv")
        assert not (tmp_path / "out.edges").exists()

    def test_save_keeps_isolated_label_with_space(self, tmp_path):
        # a vertex without edges never appears in the edge file
        g = AttributedGraph(3, [(0, 1)], labels=["x", "y", "a b"])
        save_graph(g, tmp_path / "out.edges", tmp_path / "out.csv")
        g2 = load_graph(tmp_path / "out.edges", tmp_path / "out.csv")
        assert g2.fingerprint() == g.fingerprint()


XY = ["id,b", "x,1", "y,0"]
COLUMN_B = AttributeColumn("b", "nominal", ["1", "0", "1"])


def _loading(attr_lines, edge_lines=("x y",), **options):
    return lambda tmp: load_graph(*write_dataset(tmp, list(edge_lines), attr_lines),
                                  LoadOptions(**options))


@pytest.mark.parametrize("build, message", [
    (_loading([]), "is empty"),
    (_loading(["id,b"]), "has a header but no rows"),
    (_loading(XY, id_column="node"), r"id column 'node' not in header \['id', 'b'\]"),
    (_loading(XY, id_column=2), "id column index 2 out of range"),
    (_loading(XY, ["x y x"]), ":1: expected two whitespace-separated tokens"),
    (_loading(XY, ["x y", "x"]), ":2: expected two whitespace-separated tokens"),
    # the first id in file order that occurs twice, though a later one is
    # repeated first
    (_loading(["id,b", "x,1", "y,0", "y,1", "x,0"], []), "duplicate vertex id 'x'"),
    (lambda _: AttributedGraph(0, []), "at least one vertex"),
    (lambda _: AttributedGraph(3, [(1, 1)]), "self-loop on vertex 1"),
    (lambda _: AttributedGraph(3, [(0, 3)]), r"edge \(0,3\) references a vertex id >= n=3"),
    (lambda _: AttributedGraph(2, [], columns=[COLUMN_B]), "'b' has 3 values, expected 2"),
    (lambda _: AttributedGraph(3, [], columns=[COLUMN_B, COLUMN_B]),
     "duplicate attribute column 'b'"),
    (lambda _: AttributedGraph(3, [], labels=["x", "y"]), "label list length must equal n"),
])
def test_malformed_input_rejected(tmp_path, build, message):
    with pytest.raises(GraphFormatError, match=message):
        build(tmp_path)


def test_id_column_by_index(tmp_path):
    g = _loading(["b,id", "1,x", "0,y"], id_column=1)(tmp_path)
    assert g.labels == ["x", "y"] and g.attribute_names == ["b"] and g.m == 1


class TestDescriptionGrammar:
    @pytest.mark.parametrize("name", ["a ∧ b", "a=b", "x∈[0"])
    def test_reserved_name_rejected(self, tmp_path, name):
        e, a = write_dataset(tmp_path, ["1 2"], [f"id,{name}", "1,p", "2,q"])
        with pytest.raises(GraphFormatError, match="attribute name"):
            load_graph(e, a)

    @pytest.mark.parametrize("value", ["a ∧ b=1", "x∈[0,1]", "x ∧"])
    def test_reserved_value_rejected(self, tmp_path, value):
        e, a = write_dataset(tmp_path, ["1 2"], ["id,b", f"1,{value}", "2,q"])
        with pytest.raises(GraphFormatError, match="value"):
            load_graph(e, a)

    def test_constructor_rejects_surrounding_whitespace(self):
        with pytest.raises(GraphFormatError, match="whitespace"):
            AttributedGraph(2, [(0, 1)],
                            columns=[AttributeColumn("b", "nominal", ["p ", "q"])])

    def test_tokens_inside_allowed_positions_load(self, tmp_path):
        # "=" in a value and "∧" without surrounding spaces render unambiguously
        e, a = write_dataset(tmp_path, ["1 2"], ["id,b∧c", "1,x=y", "2,∧ q"])
        g = load_graph(e, a)
        for s in generate_selectors(g):
            assert parse_description(str(Description((s,)))) == Description((s,))


_TEXT = st.lists(st.one_of(
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
            max_size=4),
    st.sampled_from([" ∧ ", " ∧", "∧ ", "∧", "=", "∈[", "∈", "[", "]", ",", " ",
                     '"'])),
    max_size=5).map("".join)


@settings(max_examples=300, deadline=None)
@given(name=_TEXT, value=_TEXT)
def test_loaded_descriptions_round_trip(tmp_path_factory, name, value):
    """Arbitrary attribute text either fails to load or round-trips through
    ``parse_description``, alone and joined with another selector."""
    path = tmp_path_factory.mktemp("grammar")
    with open(path / "g.csv", "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(
            [["id", name, "z"], ["1", value, "p"], ["2", "v", "q"], ["3", "w", "p"]])
    (path / "g.edges").write_text("1 2\n2 3\n", encoding="utf-8")
    try:
        g = load_graph(path / "g.edges", path / "g.csv")
    except GraphFormatError:
        return
    sels = generate_selectors(g)
    descs = [Description((s,)) for s in sels]
    descs += [Description((s, t)) for s in sels for t in sels if s.attribute != t.attribute]
    for d in descs:
        assert parse_description(str(d)) == d


_NOMINAL = st.one_of(st.none(), st.sampled_from(["NA", "None", "∅missing", ""]),
                     st.text("ab∅=∧[,#", max_size=3))


@settings(max_examples=200, deadline=None)
@given(values=st.lists(_NOMINAL, min_size=1, max_size=30),
       absent=st.lists(_NOMINAL.filter(lambda v: v is not None), max_size=4), data=st.data())
def test_codes_match_string_references(values, absent, data):
    """A coded column reads as its strings do: selector masks (of values the
    column lacks too), missing mask, domain and block-prior bins; numeric
    columns keep their NaN-free domain.  The codes are read-only."""
    numbers = data.draw(st.lists(st.sampled_from([np.nan, 0.0, -0.0, 1.5, 2.0, -np.inf]),
                                 min_size=len(values), max_size=len(values)))
    g = AttributedGraph(len(values), [], columns=[AttributeColumn("b", "nominal", values),
                                                  AttributeColumn("x", "numeric", numbers)])
    col, num = g.column("b"), g.column("x")
    assert col.distinct() == reference_domain(values)
    assert col.missing_mask().tolist() == [v is None for v in values]
    for value in reference_domain(values) + absent:
        got = selector_mask(EqualsSelector("b", value), g)
        assert got.tolist() == reference_equals_mask(values, value)
    bins, labels = _partition_bins(g, "b")
    assert (bins.tolist(), labels) == reference_partition_bins(values)
    assert num.distinct() == sorted(set(v for v in numbers if not math.isnan(v)))
    assert num.missing_mask().tolist() == [math.isnan(v) for v in numbers]
    for c in (col, num):
        assert c.codes.dtype == np.int64
        with pytest.raises(ValueError):
            c.codes[0] = 0
        with pytest.raises(ValueError):
            c.codes.flags.writeable = True


class TestCounting:
    def test_degree_triangle(self, triangle):
        assert triangle.degrees().tolist() == [2, 2, 2]

    def test_degree_path(self, path4):
        assert path4.degrees()[1] == 2 and path4.degrees()[0] == 1

    def test_degree_star_center(self, star5):
        assert star5.degrees()[0] == 4

    def test_directed_degrees(self):
        g = AttributedGraph(3, [(0, 1), (0, 2), (2, 0)], directed=True)
        assert g.out_degrees()[0] == 2 and g.in_degrees()[0] == 1
        assert g.degrees()[0] == 3

    @pytest.mark.parametrize("directed", [False, True])
    def test_degree_arrays_are_shared_read_only(self, directed):
        g = random_graph(3, directed=directed)
        e0, e1 = g.edges.T
        out, inc = np.bincount(e0, minlength=g.n), np.bincount(e1, minlength=g.n)
        reads = [(g.degrees, out + inc)]
        if directed:
            reads += [(g.out_degrees, out), (g.in_degrees, inc)]
        for read, ref in reads:
            deg = read()
            assert np.array_equal(deg, ref)
            assert np.shares_memory(deg, read())
            with pytest.raises(ValueError):
                deg[0] = 99
            with pytest.raises(ValueError):
                deg.flags.writeable = True
            assert np.array_equal(read(), ref)

    def test_count_edges_between_triangle(self, triangle):
        assert triangle.count_edges_between([0, 1], [2]) == 2
        assert triangle.count_edges_between(range(3), range(3)) == triangle.m == 3

    def test_count_edges_whole_graph(self, fig_graph):
        v = list(range(fig_graph.n))
        assert fig_graph.count_edges_between(v, v) == fig_graph.m

    def test_count_edges_directed(self):
        g = AttributedGraph(3, [(0, 1), (1, 0), (1, 2)], directed=True)
        assert g.count_edges_between([0], [1]) == 1
        assert g.count_edges_between([1], [0]) == 1
        assert g.count_edges_between([0, 1], [2]) == 1

    def test_inter_edge_count(self, triangle, path4, fig_graph):
        assert fig_graph.inter_edge_count(range(fig_graph.n)) == 0
        assert triangle.inter_edge_count([0]) == 2
        assert path4.inter_edge_count([1, 2]) == 2  # edges 0-1 and 2-3

    def test_degree_sum_is_2m(self, fig_graph):
        assert fig_graph.degrees().sum() == 2 * fig_graph.m


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), data=st.data())
def test_counting_identities(seed, data):
    g = random_graph(seed)
    ids = np.arange(g.n)
    a_pick = data.draw(st.lists(st.integers(0, g.n - 1), unique=True))
    b_pick = data.draw(st.lists(st.integers(0, g.n - 1), unique=True))
    a = g.as_mask(a_pick)
    b = g.as_mask(b_pick)
    # symmetry
    assert g.count_edges_between(a, b) == g.count_edges_between(b, a)
    # within/inter/outside partition of the edge set
    comp = ~a
    assert (g.count_edges_between(a, a) + g.inter_edge_count(a)
            + g.count_edges_between(comp, comp)) == g.m
    assert g.degrees().sum() == 2 * g.m
    assert g.count_edges_between(ids, ids) == g.m


def _outcome(build):
    """What ``build()`` gives: its value, or the text of its
    ``GraphFormatError``; and the messages logged on ``simine.graph``."""
    logged = []
    handler = logging.Handler()
    handler.emit = lambda record: logged.append(record.getMessage())
    logger = logging.getLogger("simine.graph")
    logger.addHandler(handler)
    try:
        return build(), logged
    except GraphFormatError as exc:
        return f"GraphFormatError: {exc}", logged
    finally:
        logger.removeHandler(handler)


_ID = st.one_of(st.integers(-2, 7), st.integers(-2, 7), st.integers(-2, 7),
                st.sampled_from([2**63 - 1, 2**63, -2**63 - 1, 2**70]))


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 6), directed=st.booleans(),
       edges=st.lists(st.tuples(_ID, _ID), max_size=12))
def test_edge_checks_match_per_edge_reference(n, directed, edges):
    """The whole-array edge checks give the per-edge reference's ends, in
    order, or its error: the first edge at fault, its first fault in the
    order self-loop, id out of range, repeat.  Some ids are past what an
    int64 holds."""
    def ends(check):
        return lambda: [e.tolist() for e in check(n, edges, directed)]

    assert _outcome(ends(_edge_arrays)) == _outcome(ends(reference_edge_arrays))


@pytest.mark.parametrize("edges", [[(0, 1), (2,)], [(0, 1), (1, 2, 3)], [(0, 1, 2)],
                                   [(2**70,)], [(0, None)], [(0, "a")], [(0, float("nan"))]])
def test_edges_that_are_not_id_pairs(edges):
    """Ragged edges, and ids that are not integers, raise GraphFormatError."""
    with pytest.raises(GraphFormatError, match=r"edges must be \(u, v\) pairs"):
        AttributedGraph(3, edges)


_CELLS = ["x", "y", "1", "2", "0.5", "-1.25", "NA", "", " z ", "3"]


def _edge_line(labels):
    """An edge file line over the vertex ids ``labels``: mostly an edge
    between two of them (self-loops and repeats included), else an unknown
    id, a comment, a blank line or a line of one or three tokens."""
    label = st.one_of(st.sampled_from(labels), st.sampled_from(labels),
                      st.sampled_from(labels), st.just("zz"))
    return st.one_of(
        st.builds("{}{}{}{}".format, st.sampled_from(["", " ", "\t"]), label,
                  st.sampled_from([" ", "\t", "  "]), label),
        st.builds("{}{}{}{}".format, st.sampled_from(["", " ", "\t"]), label,
                  st.sampled_from([" ", "\t", "  "]), label),
        st.sampled_from(["", "   ", "# comment", "  # a b", "a", "a b c", "#a b"]))


@settings(max_examples=300, deadline=None)
@given(labels=st.lists(st.sampled_from("abcde"), min_size=1, max_size=5, unique=True),
       columns=st.integers(0, 2), data=st.data(), directed=st.booleans(),
       allow_self_loops=st.booleans())
def test_load_matches_row_by_row_reference(tmp_path_factory, labels, columns, data, directed,
                                           allow_self_loops):
    """``load_graph`` by whole-file passes reads what the row-by-row parsers
    and per-edge checks read: an equal fingerprint over every attribute, the
    same edges in file order, labels and column kinds, or the same error
    after the same warnings.  The files hold self-loops, repeated edges,
    unknown labels, lines of one or three tokens, comments, blank lines,
    ragged rows, repeated vertex ids and missing tokens."""
    if data.draw(st.integers(0, 7)) == 0:  # a repeated vertex id
        labels = labels + [data.draw(st.sampled_from(labels))]
    rows = [[lab] + data.draw(st.lists(st.sampled_from(_CELLS), min_size=columns,
                                       max_size=columns)) for lab in labels]
    if data.draw(st.integers(0, 3)) == 0:  # a ragged row, one field long or short
        row = rows[data.draw(st.integers(0, len(rows) - 1))]
        row.append("x") if data.draw(st.booleans()) or len(row) < 3 else row.pop()
    attr_lines = [",".join(["id"] + [f"c{k}" for k in range(columns)])]
    attr_lines += [",".join(row) for row in rows]
    if data.draw(st.booleans()):
        attr_lines.insert(data.draw(st.integers(1, len(attr_lines))), " , ")
    edge_lines = data.draw(st.lists(_edge_line(labels), max_size=10))
    path = tmp_path_factory.mktemp("load")
    files = write_dataset(path, edge_lines, attr_lines)
    options = LoadOptions(directed=directed, allow_self_loops=allow_self_loops)

    def read(load):
        def build():
            g = load(*files, options)
            return (g.fingerprint(g.attribute_names), g.edges.tolist(), g.labels,
                    [(c.name, c.kind) for c in g.columns])
        return build

    assert _outcome(read(load_graph)) == _outcome(read(reference_load_graph))
