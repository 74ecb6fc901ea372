"""Estimation and posterior analysis for logit models on sampled choice sets.

The package covers the full workflow around approximating a large choice
set by a drawn subset containing the chosen alternative: drawing protocols
with exact conditional probabilities, corrected (quasi) likelihood
estimation for fixed and normally mixed coefficients, grid and MCMC
posteriors, a hierarchical Gibbs sampler, and exhaustive enumeration
oracles for the expectation identities that make the whole construction
consistent.
"""

from .errors import (CapacityError, ConfigError, InsufficientDrawsError,
                     InvalidInputError, InvalidStateError,
                     NumericalDegeneracyError, UnsupportedDimensionError)
from .model_core import (CORRECTION_MODES, Alternative, Dataset, Observation,
                         SampledSet, SetTable, log_softmax, log_sum_exp,
                         utilities)
from .protocols import (PROTOCOL_KINDS, Protocol,
                        correction_vector, derive_stream, draw_sampled_set,
                        draw_set_table, enumerate_feasible_sets,
                        enumerate_sets, seeded_streams)
from .synth import (COVARIATE_LAWS, MmnlDgpConfig, MnlDgpConfig, generate_mmnl,
                    generate_mnl)
from .mle import (WN_MODES, ChoiceArrays, FitResult, fit_mmnl_msl, fit_mnl,
                  pack_theta, theta_labels, unpack_theta)
from .grids import GridSpec, log_trapezoid
from .bayes_mnl import (GridPosterior, PosteriorDraws, PosteriorSummary, Prior,
                        grid_posterior, kl_decomposition, kl_divergence_grid,
                        log_posterior_kernel, posterior_summary, rw_metropolis)
from .bayes_mmnl import (GibbsConfig, MixingState, MmnlPriors, gibbs_step_mu,
                         gibbs_step_sigma, run_gibbs, sigma_posterior_params)
from .divergence_lab import (ComparisonRow, DivergenceReport, KlTerms,
                             ProtocolComparison,
                             build_divergence_report, coverage_r,
                             divergence_uniform_closed_form, expected_divergence,
                             expected_divergence_direct, expected_kl_direct,
                             expected_quasi_ll, expected_quasi_ll_setwise,
                             expected_true_ll, kl_term_a,
                             kl_term_a_entropy_form, kl_terms,
                             protocol_comparison)
from .draws import halton_normal_draws
from .storage import (config_hash, file_hash, read_dataset_csv,
                      read_sets_csv, verify_lineage, write_csv,
                      write_beta_n_csv, write_dataset_csv, write_draws_csv,
                      write_manifest, write_report_csv, write_sets_csv,
                      write_summary_csv)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
