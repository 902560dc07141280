import pytest

import ellwall.fock


@pytest.mark.parametrize("name", ellwall.fock.__all__)
def test_exported_name_resolves(name):
    assert getattr(ellwall.fock, name) is not None
