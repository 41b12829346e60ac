"""The package namespace: every exported name resolves, none is listed twice."""

import schubstab


def test_all_names_resolve_and_are_unique():
    assert len(schubstab.__all__) == len(set(schubstab.__all__))
    missing = [name for name in schubstab.__all__ if not hasattr(schubstab, name)]
    assert missing == []
