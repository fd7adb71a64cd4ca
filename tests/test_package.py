"""The package's public names."""

import apsgd


def test_every_exported_name_resolves_once():
    assert len(apsgd.__all__) == len(set(apsgd.__all__))
    missing = [name for name in apsgd.__all__ if not hasattr(apsgd, name)]
    assert missing == []
