"""The package's public names: every name an __all__ lists resolves."""

import importlib
import pkgutil

import pytest

import elliptic_dedekind

# The package and each of its modules that declares __all__ (errors does not; __main__ runs the CLI).
MODULES = [elliptic_dedekind] + [
    module
    for info in pkgutil.iter_modules(elliptic_dedekind.__path__)
    if info.name != "__main__" and hasattr(module := importlib.import_module(f"elliptic_dedekind.{info.name}"), "__all__")
]


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_every_name_in_all_resolves(module):
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


def test_the_package_exports_no_second_name_for_a_lattice_method():
    # area, e1, zeta, quasi-periods, E2(0) and j are Lattice methods; the float I(z) is z - z.conjugate().
    for name in ("area", "weierstrass_zeta", "quasi_periods", "e2_zero", "e1", "j_invariant", "i_map"):
        assert name not in elliptic_dedekind.__all__
        assert not hasattr(elliptic_dedekind, name)
