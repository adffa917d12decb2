"""Stable (pseudo-)MLE, Gaussian QMLE and information-matrix estimation.

The likelihood is built from one per-observation kernel, ``loglik_terms``,
which returns every l_t and its score row; ``score_full`` is their column
mean and ``outer_product_information`` their averaged outer product.
``neg_log_likelihood`` is the value-only mean of l_t.
"""

from .fit import fit_gaussian_qmle, fit_stable_mle
from .information import compute_Jn, outer_product_information, std_errors_from_information
from .likelihood import loglik_terms, neg_log_likelihood, score_full
from .params import BoundsConfig, FitResult, ModelParams, param_names

__all__ = [
    "ModelParams", "BoundsConfig", "FitResult", "param_names",
    "neg_log_likelihood", "loglik_terms", "score_full",
    "fit_stable_mle", "fit_gaussian_qmle",
    "compute_Jn", "outer_product_information", "std_errors_from_information",
]
