"""The public Fock names resolve in the modules that define them; the
``ellwall.fock`` package itself re-exports nothing."""

import importlib

import pytest

PUBLIC = {
    "COH_E": "labels",
    "COH_PT": "labels",
    "COH_SM": "labels",
    "COH_SP": "labels",
    "LABEL_NAMES": "labels",
    "monodromy_f": "monodromy",
    "monodromy_s": "monodromy",
    "OperatorExpr": "operators",
    "w_general": "operators",
    "w_small": "operators",
    "FockState": "states",
    "basis_monomials": "states",
    "BracketReport": "verify",
    "bracket_sweep": "verify",
    "bracket_verify": "verify",
}


@pytest.mark.parametrize("name", PUBLIC)
def test_exported_name_resolves(name):
    module = importlib.import_module(f"ellwall.fock.{PUBLIC[name]}")
    assert getattr(module, name) is not None
