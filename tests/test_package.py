import istanet


def test_every_exported_name_imports():
    # a star import fails on a name __all__ lists and the package lacks
    namespace = {}
    exec("from istanet import *", namespace)
    assert set(istanet.__all__) <= set(namespace)
