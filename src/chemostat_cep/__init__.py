"""Simulation and verification toolkit for n-species chemostat competition.

The package computes break-even concentrations and the separation constants
that certify competitive exclusion, integrates the model with an adaptive
embedded Runge-Kutta pair, and checks the long-run claims (mass convergence,
washout, biomass persistence, substrate framing, staged exclusion, and the
final state) on simulated trajectories.

The names below are the library entry points; every other name is imported
from its own module (``chemostat_cep.certificate``, ``chemostat_cep.verify``,
...).
"""

from .certificate import build_certificate
from .dynamics import ChemostatParams, State
from .errors import ChemostatError, InputError
from .growth import Hill, Monod, Table, order_species
from .integrate import simulate
from .scenario import Scenario, parse_scenario
from .verify import run_report

__version__ = "0.1.0"

__all__ = [
    "ChemostatError",
    "ChemostatParams",
    "Hill",
    "InputError",
    "Monod",
    "Scenario",
    "State",
    "Table",
    "build_certificate",
    "order_species",
    "parse_scenario",
    "run_report",
    "simulate",
]
