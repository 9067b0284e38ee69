/**
 * @file
 * Special functions for the tail-latency extension: the regularized
 * incomplete gamma function and a gamma-distribution quantile.
 */
#ifndef LOGNIC_SOLVER_SPECIAL_HPP_
#define LOGNIC_SOLVER_SPECIAL_HPP_

namespace lognic::solver {

/**
 * Regularized lower incomplete gamma P(a, x) = gamma(a, x) / Gamma(a),
 * for a > 0, x >= 0. Series expansion for x < a + 1, Lentz continued
 * fraction otherwise; absolute accuracy ~1e-12.
 */
double regularized_gamma_p(double a, double x);

/// Upper tail Q(a, x) = 1 - P(a, x).
double regularized_gamma_q(double a, double x);

/**
 * Quantile of the gamma distribution with shape @p k and scale @p theta:
 * the t with P(k, t/theta) = @p p. Brackets from the mean k * theta,
 * doubling the upper end until it covers @p p, then bisects to a width
 * of 1e-12 * (1 + t); @p p in (0, 1).
 */
double gamma_quantile(double k, double theta, double p);

} // namespace lognic::solver

#endif // LOGNIC_SOLVER_SPECIAL_HPP_
