import inspect

import qpwalk


def test_all_resolves_and_lists_every_public_name():
    """``qpwalk.__all__`` names only what the package binds, and all of it."""
    assert len(set(qpwalk.__all__)) == len(qpwalk.__all__)
    missing = [name for name in qpwalk.__all__ if not hasattr(qpwalk, name)]
    assert missing == []
    bound = {name for name, value in vars(qpwalk).items()
             if not name.startswith("_") and not inspect.ismodule(value)}
    assert sorted(bound - set(qpwalk.__all__)) == []
