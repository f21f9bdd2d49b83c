import brpmarket


def test_every_exported_name_resolves():
    missing = [name for name in brpmarket.__all__ if not hasattr(brpmarket, name)]
    assert missing == []
    assert len(set(brpmarket.__all__)) == len(brpmarket.__all__)
