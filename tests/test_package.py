import c2f


def test_every_exported_name_resolves():
    assert [name for name in c2f.__all__ if not hasattr(c2f, name)] == []
    assert len(set(c2f.__all__)) == len(c2f.__all__)
