import simine


def test_every_listed_name_resolves():
    assert len(set(simine.__all__)) == len(simine.__all__)
    for name in simine.__all__:
        assert getattr(simine, name) is not None, name


def test_removed_names_are_gone():
    for name in ("n_w_single", "n_w_bi", "n_w_bi_ordered", "resolve_pair_counting",
                 "si_value", "SearchCancelled", "add_if_required", "refine"):
        assert name not in simine.__all__
        assert not hasattr(simine, name), name
