"""Ratio consensus under random nonnegative matrix products.

Simulates push-sum / weighted gossip dynamics (including packet loss) driven
by stationary matrix processes and estimates the Lyapunov spectral gap that
governs the almost-sure exponential convergence rate of the per-node
value/weight ratios, via three independent routes: re-orthonormalized frame
products, wedge-product growth, and Birkhoff contraction asymptotics.
"""

from .core import (birkhoff_phi, birkhoff_tau, hilbert_distance,
                   is_allowable, is_row_allowable, log_abs_det, tv_distance,
                   wedge_magnitude)
from .generators import (ConstantProcess, Digraph, IIDFamilyProcess,
                         MarkovFamilyProcess, MatrixProcess, PushSumConfig,
                         PushSumProcess, column_sums, complete_digraph,
                         is_column_stochastic, is_strongly_connected,
                         push_sum_matrix, ring, ring_with_chords)
from .primitivity import (PrimitivityReport, bool_product,
                          is_family_primitive, ks_critical_distance,
                          ks_distance, pattern_of, replay_word,
                          sample_backward_index, sample_backward_indices,
                          sample_forward_index, sample_forward_indices,
                          survival_loglinear_fit)
from .spectrum import (GapEstimate, SpectrumEstimate, check_det_identity,
                       estimate_gap_birkhoff, estimate_spectrum_qr,
                       estimate_sum_top2_wedge)
from .consensus import (ConsensusState, Trajectory, fit_rate, make_checkpoints,
                        rate_window, run, step, weighted_ratio)
from .config import ConfigError, ExperimentConfig, load_config

__version__ = "0.1.0"
