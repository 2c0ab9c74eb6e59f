import qredist


def test_public_api_resolves():
    names = qredist.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(qredist, name)] == []
    namespace: dict = {}
    exec("from qredist import *", namespace)
    assert set(names) <= set(namespace)
