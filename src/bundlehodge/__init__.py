"""Adiabatic Hodge theory for invariant forms on principal bundles over flat tori."""

__version__ = "0.1.0"
