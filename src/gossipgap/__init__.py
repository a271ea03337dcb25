"""Ratio consensus under random nonnegative matrix products.

Simulates push-sum / weighted gossip dynamics (including packet loss) driven
by stationary matrix processes and estimates the Lyapunov spectral gap that
governs the almost-sure exponential convergence rate of the per-node
value/weight ratios, via three independent routes: re-orthonormalized frame
products, wedge-product growth, and Birkhoff contraction asymptotics.

Importing the package imports none of its modules; import each name from the
module that owns it:

* ``gossipgap.core``: nonnegative-matrix primitives (Birkhoff, Hilbert, wedge).
* ``gossipgap.generators``: digraphs and stationary matrix processes.
* ``gossipgap.consensus``: ratio-consensus trajectories and rate fits.
* ``gossipgap.spectrum``: Lyapunov-spectrum and spectral-gap estimators.
* ``gossipgap.primitivity``: pattern primitivity and index sampling.
* ``gossipgap.config``: the JSON experiment configuration.
* ``gossipgap.report``: output tables, summaries and manifests.
* ``gossipgap.acceptance``: the acceptance criteria.
* ``gossipgap.cli``: the command-line subcommands.
"""

__version__ = "0.1.0"
