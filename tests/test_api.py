"""The package's declared public API."""

import opcalc


def test_every_listed_name_resolves():
    assert len(opcalc.__all__) == len(set(opcalc.__all__))
    for name in opcalc.__all__:
        assert getattr(opcalc, name, None) is not None, name
    namespace = {}
    exec("from opcalc import *", namespace)
    assert set(opcalc.__all__) <= set(namespace)
