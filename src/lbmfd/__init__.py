"""D1Q3 MRT lattice Boltzmann diffusion model and its four-level
finite-difference form, with high-order calibration, stability analysis and
convergence verification."""

__version__ = "0.1.0"
