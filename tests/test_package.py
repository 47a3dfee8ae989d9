import fedspectrum


def test_every_exported_name_resolves_and_is_listed_once():
    names = fedspectrum.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(fedspectrum, name)] == []
