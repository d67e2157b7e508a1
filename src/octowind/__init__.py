"""Brownian winding functionals on the three octonionic model spaces.

Simulation of the radial skew-product decompositions, Stratonovich line
integration of the winding one-form, closed-form characteristic functions,
and a Monte Carlo harness that confronts the two.  Import names from their
modules (``octowind.engine``, ``octowind.mc``, ...); the package root holds
only the version.
"""

__version__ = "0.1.0"
