"""Fractional-posterior Bayesian inference for generalized reduced-rank
regression: exponential-family likelihoods, a spectral scaled Student prior,
a batched MALA sampler, closed-form divergences, and a verification harness
for the associated contraction-rate bounds."""

__version__ = "1.0.0"

from .divergence import (DivergenceReport, LemmaBounds, RateFormulas, c_alpha,
                         divergence_report, kl_per_entry, rate_formulas,
                         renyi_per_entry)
from .experiments import (KLFit, MisspecConfig, MisspecStudyResult,
                          RateStudyConfig, RateStudyResult, fit_kl_minimizer,
                          hellinger_consistency_check, likelihood_ridge_fit,
                          posterior_average_divergence, run_misspec_study,
                          run_rate_study, verify_divergence_bounds)
from .families import (FAMILY_IDS, Dataset, FamilyBounds, FamilySpec,
                       InvalidParameterError, b_and_prime, b_prime, b_second,
                       b_value, family_bounds, linear_predictor, link_terms,
                       sample_response, theta_from_eta)
from .posterior import (Chain, FractionalConfig, SamplerDivergence,
                        default_step_size, effective_rank, fisher_information,
                        grad_log_fractional_posterior, grad_log_likelihood,
                        log_fractional_posterior, log_likelihood,
                        log_likelihood_and_grad, posterior_mean, run_chains,
                        run_sampler, value_and_grad)
from .prior import (PriorConfig, grad_log_prior, log_prior,
                    log_prior_and_grad, sample_prior, tau_preset)
from .simulate import (SyntheticTruth, calibrate_scale, compute_kappa,
                       generate_dataset, make_design, make_low_rank_truth,
                       prediction_error)
