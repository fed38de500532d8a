"""Coupled van der Pol oscillator fitting from partially observed time series.

Estimates per-component gains and a coupling matrix, together with the hidden
excitability tracks, by variable-projection optimization alternated with a
greedy stochastic search; includes SVD preprocessing of raw data matrices,
VDP/VAR forecasting benchmarks, and corpus export for downstream learners.
Each name is imported from its module (`vdpfit.model`, `vdpfit.estimator`, ...).
"""

__version__ = "0.1.0"
