import mbnrsfm


def test_every_export_resolves_and_star_import_binds_it():
    missing = [name for name in mbnrsfm.__all__ if not hasattr(mbnrsfm, name)]
    assert missing == []
    namespace = {}
    exec("from mbnrsfm import *", namespace)
    assert set(mbnrsfm.__all__) <= set(namespace)
