import equirobust


def test_every_exported_name_resolves():
    missing = [name for name in equirobust.__all__ if not hasattr(equirobust, name)]
    assert missing == []
    assert len(set(equirobust.__all__)) == len(equirobust.__all__)
