import proxilearn


def test_every_exported_name_resolves():
    missing = [name for name in proxilearn.__all__
               if not hasattr(proxilearn, name)]
    assert missing == []
    assert len(set(proxilearn.__all__)) == len(proxilearn.__all__)


def test_star_import_binds_exactly_the_exports():
    namespace = {}
    exec("from proxilearn import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(proxilearn.__all__)
