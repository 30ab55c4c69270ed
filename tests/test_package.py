import nlo


def test_public_names_resolve_and_star_import_works():
    missing = [name for name in nlo.__all__ if not hasattr(nlo, name)]
    assert missing == []
    namespace: dict = {}
    exec("from nlo import *", namespace)
    assert set(nlo.__all__) <= set(namespace)
