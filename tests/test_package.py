import knowtell


def test_every_public_name_resolves_once():
    names = knowtell.__all__
    assert len(set(names)) == len(names)
    for name in names:
        assert hasattr(knowtell, name), name
