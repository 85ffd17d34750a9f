"""The package export list: `from parlmc import *` must import every listed name."""

import parlmc


def test_all_names_resolve_without_duplicates():
    assert sorted(set(parlmc.__all__)) == sorted(parlmc.__all__)
    assert [name for name in parlmc.__all__ if not hasattr(parlmc, name)] == []
