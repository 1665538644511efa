import recurra


def test_all_is_sorted_unique_and_resolves():
    names = recurra.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    for name in names:
        assert getattr(recurra, name) is not None, name
