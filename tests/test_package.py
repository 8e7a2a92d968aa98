"""The package's public names."""

import lgsim
from lgsim import ancilla, lgi, noise

# result carriers that became plain tuples and arrays
REMOVED = ("GainPoint", "CorrelatorSet", "K3Curve", "LibraryEntry", "AncillaCircuit",
           "VerificationReport", "u_tilde_pm")


def test_every_exported_name_resolves_once():
    names = lgsim.__all__
    assert len(names) == len(set(names))
    for name in names:
        getattr(lgsim, name)  # AttributeError for a name the package does not define
    namespace = {}
    exec("from lgsim import *", namespace)
    assert set(names) <= set(namespace)


def test_removed_result_types_are_gone():
    assert not set(REMOVED) & set(lgsim.__all__)
    for module in (lgsim, lgi, ancilla, noise):
        assert not [name for name in REMOVED if hasattr(module, name)], module.__name__
