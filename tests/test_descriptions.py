import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simine import (AttributeColumn, AttributedGraph, Description,
                    DescriptionError, EMPTY_DESCRIPTION, EqualsSelector,
                    RangeSelector, SelectorConfig, extension,
                    generate_selectors, parse_description, selector_mask)

from conftest import random_graph


class TestExtension:
    def test_example_extension(self, fig_graph):
        # a in [2, 4] AND b = 1 selects vertices {0, 1, 2, 3}
        w = Description((RangeSelector("a", 2.0, 4.0), EqualsSelector("b", "1")))
        assert sorted(np.flatnonzero(extension(w, fig_graph))) == [0, 1, 2, 3]

    def test_empty_description_selects_all(self, fig_graph):
        assert extension(EMPTY_DESCRIPTION, fig_graph).all()

    def test_contradiction_forced(self, fig_graph):
        # same-attribute contradictions are forbidden by with_selector, but a
        # directly-built description still evaluates to the empty set
        w = Description((EqualsSelector("b", "1"), EqualsSelector("b", "0")))
        assert not extension(w, fig_graph).any()

    def test_unknown_attribute(self, fig_graph):
        with pytest.raises(KeyError):
            extension(Description((EqualsSelector("zz", "1"),)), fig_graph)

    def test_kind_mismatch(self, fig_graph):
        with pytest.raises(DescriptionError, match="non-nominal"):
            extension(Description((EqualsSelector("a", "1"),)), fig_graph)
        with pytest.raises(DescriptionError, match="non-numeric"):
            extension(Description((RangeSelector("b", 0.0, 1.0),)), fig_graph)

    def test_interval_is_closed(self):
        g = AttributedGraph(3, [(0, 1)], columns=[
            AttributeColumn("x", "numeric", [1.0, 2.0, 3.0])])
        w = Description((RangeSelector("x", 1.0, 2.0),))
        assert sorted(np.flatnonzero(extension(w, g))) == [0, 1]

    def test_missing_values_never_match(self):
        g = AttributedGraph(3, [(0, 1)], columns=[
            AttributeColumn("x", "numeric", [1.0, np.nan, 3.0]),
            AttributeColumn("b", "nominal", ["1", None, "0"])])
        assert not extension(Description((RangeSelector("x", 0.0, 9.0),)), g)[1]
        assert not extension(Description((EqualsSelector("b", "1"),)), g)[1]

    def test_equality_mask_matches_per_value_reference(self):
        values = ["1", None, "0", "None", "1", "", None, "10"]
        g = AttributedGraph(len(values), [(0, 1)],
                            columns=[AttributeColumn("b", "nominal", values)])
        for value in ("1", "0", "None", "", "10", "2"):
            got = selector_mask(EqualsSelector("b", value), g)
            assert got.dtype == bool
            assert got.tolist() == [v == value for v in values]


class TestRefine:
    def test_refine_from_empty(self):
        d = EMPTY_DESCRIPTION.with_selector(EqualsSelector("b", "1"))
        assert len(d) == 1

    def test_same_attribute_rejected(self):
        d = Description((EqualsSelector("b", "1"),))
        with pytest.raises(DescriptionError, match="already constrained"):
            d.with_selector(EqualsSelector("b", "0"))

    def test_refine_builds_example_description(self, fig_graph):
        d = Description((RangeSelector("a", 2.0, 4.0),)).with_selector(EqualsSelector("b", "1"))
        assert sorted(np.flatnonzero(extension(d, fig_graph))) == [0, 1, 2, 3]

    def test_canonical_order_and_hash(self):
        s1, s2 = EqualsSelector("b", "1"), RangeSelector("a", 2.0, 4.0)
        assert Description((s1, s2)) == Description((s2, s1))
        assert hash(Description((s1, s2))) == hash(Description((s2, s1)))
        assert str(Description((s1, s2))) == str(Description((s2, s1)))


class TestGeneration:
    def test_binary_attribute(self, fig_graph):
        sels = [s for s in generate_selectors(fig_graph) if s.attribute == "b"]
        assert [s.render() for s in sels] == ["b=0", "b=1"]

    def test_three_binary_attributes_give_six(self, fig_graph):
        sels = [s for s in generate_selectors(fig_graph)
                if s.attribute in ("b", "c", "d")]
        assert len(sels) == 6

    def test_equal_frequency_boundaries(self):
        g = AttributedGraph(12, [(0, 1)], columns=[
            AttributeColumn("x", "numeric", list(range(1, 13)))])
        sels = generate_selectors(g, SelectorConfig(numeric_bins=2))
        rendered = {(s.lower, s.upper) for s in sels}
        # boundaries 1, 6.5, 12; the full range [1, 12] covers V and is dropped
        assert rendered == {(1.0, 6.5), (6.5, 12.0)}

    def test_single_valued_attribute_skipped(self):
        g = AttributedGraph(3, [(0, 1)], columns=[
            AttributeColumn("u", "nominal", ["x", "x", "x"]),
            AttributeColumn("b", "nominal", ["0", "1", "0"])])
        sels = generate_selectors(g)
        assert {s.attribute for s in sels} == {"b"}

    def test_bins_must_be_at_least_two(self, fig_graph):
        with pytest.raises(ValueError):
            generate_selectors(fig_graph, SelectorConfig(numeric_bins=1))

    def test_deterministic(self, fig_graph):
        a = [s.render() for s in generate_selectors(fig_graph)]
        b = [s.render() for s in generate_selectors(fig_graph)]
        assert a == b


class TestGrammar:
    def test_roundtrip(self, fig_graph):
        w = Description((RangeSelector("a", 2.0, 4.0), EqualsSelector("b", "1")))
        assert parse_description(str(w)) == w

    def test_interval_bounds_exact(self):
        w = Description((RangeSelector("x", 0.1, 1.0 / 3.0),))
        parsed = parse_description(str(w))
        assert parsed.selectors[0].upper == 1.0 / 3.0

    def test_bad_text(self):
        with pytest.raises(DescriptionError):
            parse_description("")
        with pytest.raises(DescriptionError):
            parse_description("justanattr")

    @pytest.mark.parametrize("build, message", [
        (lambda: RangeSelector("x", float("nan"), 1.0), "must be finite"),
        (lambda: RangeSelector("x", 0.0, float("inf")), "must be finite"),
        (lambda: RangeSelector("x", 2.0, 1.0), r"lower < upper, got \[2.0, 1.0\]"),
        (lambda: RangeSelector("x", 1.0, 1.0), "lower < upper"),
        (lambda: parse_description("x∈[0.5,1.0"), "malformed interval selector"),
        (lambda: parse_description("x∈[a,1.0]"), "malformed interval bounds"),
        (lambda: parse_description("x∈[0.5]"), "malformed interval bounds"),
        # the interval's own reason, not a wrapper's
        (lambda: parse_description("x∈[1.0,0.5]"), r"lower < upper, got \[1.0, 0.5\]"),
        (lambda: parse_description("b=1 ∧ x∈[1.0,0.5]"), "lower < upper"),
        (lambda: parse_description("x∈[-inf,0.5]"), "must be finite"),
    ])
    def test_bad_interval(self, build, message):
        with pytest.raises(DescriptionError, match=message):
            build()


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), data=st.data())
def test_refinement_monotone(seed, data):
    g = random_graph(seed)
    sels = generate_selectors(g)
    s1 = data.draw(st.sampled_from(sels))
    s2 = data.draw(st.sampled_from([s for s in sels if s.attribute != s1.attribute]))
    d1 = Description((s1,))
    d2 = d1.with_selector(s2)
    m1, m2 = extension(d1, g), extension(d2, g)
    assert not np.any(m2 & ~m1)  # extension(d ∧ s) is a subset
