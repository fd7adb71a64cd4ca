"""The package's public names."""

import apsgd


def test_every_exported_name_resolves_once():
    assert len(apsgd.__all__) == len(set(apsgd.__all__))
    missing = [name for name in apsgd.__all__ if not hasattr(apsgd, name)]
    assert missing == []


def test_no_exported_name_looks_like_a_test():
    """Pytest collects a ``test*`` function from any test module that imports it."""
    assert [name for name in apsgd.__all__ if name.startswith("test")] == []
