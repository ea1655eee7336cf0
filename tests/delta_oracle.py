"""The delta-method endpoint SE in its matrix form, frozen as it stood in
``concate.manski`` before the closed form replaced it: the plug-in
covariance of (mean1, mean0, p1, p0), the gradients of both region ends in
those four, and sqrt(g' S g).  It is the oracle of
``concate.manski.delta_method_interval``."""

import math

import numpy as np

from concate.errors import DegenerateArmError


def bound_gradients(stats, support):
    """Gradients of the lower/upper bound in (mean1, mean0, p1, p0).

    Support endpoints are held constant (their estimation error is handled
    elsewhere, by padding, not by the delta method).
    """
    p1, p0 = stats.share_treated, stats.share_control
    grad_lower = np.array(
        [
            p1,
            -p0,
            stats.mean_treated - support.upper_control,
            support.lower_treated - stats.mean_control,
        ]
    )
    grad_upper = np.array(
        [
            p1,
            -p0,
            stats.mean_treated - support.lower_control,
            support.upper_treated - stats.mean_control,
        ]
    )
    return grad_lower, grad_upper


def sampling_covariance(stats):
    """Plug-in covariance of (mean1, mean0, p1, p0), already scaled by 1/N.

    Arm means are treated as independent with variance var_k / n_k; the
    shares are multinomial with Var(p1) = Var(p0) = p1 * p0 / N and
    Cov(p1, p0) = -p1 * p0 / N.
    """
    if stats.n_treated < 2 or stats.n_control < 2:
        raise DegenerateArmError("sampling covariance needs 2+ observations per arm")
    v_share = stats.share_treated * stats.share_control / stats.n
    cov = np.zeros((4, 4))
    cov[0, 0] = stats.var_treated / stats.n_treated
    cov[1, 1] = stats.var_control / stats.n_control
    cov[2, 2] = cov[3, 3] = v_share
    cov[2, 3] = cov[3, 2] = -v_share
    return cov


def endpoint_se(cov, gradient):
    """Delta-method SE sqrt(g' cov g) of one interval endpoint.  A constant
    outcome's zero quadratic form can round below zero; that reads as 0."""
    return math.sqrt(max(float(gradient @ cov @ gradient), 0.0))
