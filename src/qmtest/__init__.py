"""Simulator and property-testing toolkit for finite-dimensional quantum measurements.

The package re-exports nothing: import what you need from its modules
(``qmtest.core``, ``qmtest.testers``, ``qmtest.cli``, ...).
"""

__version__ = "0.1.0"
