"""Numerical lab for a periodically driven second-order topological
superconductor: corner Majorana modes at quasienergies 0 and pi/T,
measurement-only gate protocols on the eight-Majorana qubit space, and
the conductance-interferometry readout that measures Majorana parities.

Units: hbar = 1, driving period T = 1, so omega = 2*pi and all couplings
are dimensionless (energies in hbar/T).
"""

__version__ = "0.1.0"
