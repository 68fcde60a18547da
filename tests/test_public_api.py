import dataclasses
import inspect

import simine


def test_every_listed_name_resolves():
    assert len(set(simine.__all__)) == len(simine.__all__)
    for name in simine.__all__:
        assert getattr(simine, name) is not None, name


def test_removed_names_are_gone():
    for name in ("n_w_single", "n_w_bi", "n_w_bi_ordered", "resolve_pair_counting",
                 "si_value", "SearchCancelled", "add_if_required", "refine",
                 "exact_tail_probability", "subjective_interestingness", "Beam",
                 "BeamEntry"):
        assert name not in simine.__all__
        assert not hasattr(simine, name), name


def test_removed_members_are_gone():
    from simine import scores

    for name in ("exact_tail_probability", "subjective_interestingness"):
        assert not hasattr(scores, name), name
    for name in ("probabilities", "edge_probability", "lam_row", "lam_col", "pair_sums"):
        assert not hasattr(simine.BackgroundModel, name), name
    assert not hasattr(simine.AttributedGraph, "degree")
    for name in ("sort_key", "total_length"):
        assert not hasattr(simine.BaselineResult, name), name


def test_scorers_take_no_graph():
    # score_single and score_bi score counts only, a batch at a time; the
    # one-pattern mask path folded into rescore
    from simine import scores

    for fn in (simine.score_single, simine.score_bi):
        params = inspect.signature(fn).parameters
        assert "g" not in params, fn.__name__
        assert all("AttributedGraph" not in str(p.annotation) for p in params.values()), fn
    assert not hasattr(scores, "_score_masks")


def test_pattern_update_fields():
    # an absorbed pattern is its block, multiplier and counts; its membership
    # masks are computed by masks(n), not cached on the record
    fields = [f.name for f in dataclasses.fields(simine.PatternUpdate)]
    assert fields == ["rows", "cols", "lam", "observed", "n_pairs"]
