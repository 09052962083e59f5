"""Growth-rate inference for supercritical birth-death processes.

Simulate sample genealogies through their coalescent-point-process
representation, estimate the net growth rate r = birth - death from the
coalescence times (calibrated pairwise-difference estimators, internal
branch lengths, logistic maximum likelihood), attach quantile-calibrated
confidence intervals, and ingest real ultrametric trees from Newick files.

The package root holds only __version__: import every other name from the
module that defines it, such as bdgrowth.estimators or bdgrowth.cli.
"""

__version__ = "0.1.0"
