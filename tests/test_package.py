import inspect

import menger


def test_all_names_exactly_the_public_exports():
    assert len(set(menger.__all__)) == len(menger.__all__)
    for name in menger.__all__:
        assert hasattr(menger, name), name
    namespace = {}
    exec("from menger import *", namespace)
    assert set(menger.__all__) <= set(namespace)
    # every name __init__ imports is exported, so none is left behind stale
    public = {n for n, v in vars(menger).items() if not n.startswith("_") and not inspect.ismodule(v)}
    assert public == set(menger.__all__)
