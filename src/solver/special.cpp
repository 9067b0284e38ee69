#include "lognic/solver/special.hpp"

#include <math.h>

#include <cmath>
#include <stdexcept>

namespace lognic::solver {

namespace {

constexpr int kMaxIterations = 500;
constexpr double kEps = 1e-14;

/// log Gamma(a). std::lgamma also writes libm's global `signgam`, a data
/// race once model solves run on several threads; lgamma_r returns the
/// same value and writes the sign to a local instead.
double
log_gamma(double a)
{
    int sign = 0;
    return ::lgamma_r(a, &sign);
}

/// Series representation, converges fast for x < a + 1.
double
gamma_p_series(double a, double x)
{
    double term = 1.0 / a;
    double sum = term;
    double ap = a;
    for (int i = 0; i < kMaxIterations; ++i) {
        ap += 1.0;
        term *= x / ap;
        sum += term;
        if (std::abs(term) < std::abs(sum) * kEps)
            break;
    }
    return sum * std::exp(-x + a * std::log(x) - log_gamma(a));
}

/// Lentz continued fraction for Q(a, x), converges fast for x >= a + 1.
double
gamma_q_continued_fraction(double a, double x)
{
    constexpr double kTiny = 1e-300;
    double b = x + 1.0 - a;
    double c = 1.0 / kTiny;
    double d = 1.0 / b;
    double h = d;
    for (int i = 1; i <= kMaxIterations; ++i) {
        const double an = -static_cast<double>(i) * (static_cast<double>(i) - a);
        b += 2.0;
        d = an * d + b;
        if (std::abs(d) < kTiny)
            d = kTiny;
        c = b + an / c;
        if (std::abs(c) < kTiny)
            c = kTiny;
        d = 1.0 / d;
        const double delta = d * c;
        h *= delta;
        if (std::abs(delta - 1.0) < kEps)
            break;
    }
    return std::exp(-x + a * std::log(x) - log_gamma(a)) * h;
}

} // namespace

double
regularized_gamma_p(double a, double x)
{
    if (!(a > 0.0) || x < 0.0 || !std::isfinite(a) || !std::isfinite(x))
        throw std::invalid_argument(
            "regularized_gamma_p: need a > 0, x >= 0");
    if (x == 0.0)
        return 0.0;
    if (x < a + 1.0)
        return gamma_p_series(a, x);
    return 1.0 - gamma_q_continued_fraction(a, x);
}

double
regularized_gamma_q(double a, double x)
{
    return 1.0 - regularized_gamma_p(a, x);
}

double
gamma_quantile(double k, double theta, double p)
{
    if (!(k > 0.0) || !(theta > 0.0) || !(p > 0.0) || !(p < 1.0))
        throw std::invalid_argument(
            "gamma_quantile: need k, theta > 0 and p in (0, 1)");

    // Bracket the quantile starting from the mean, then bisect.
    double lo = 0.0;
    double hi = k * theta;
    while (regularized_gamma_p(k, hi / theta) < p) {
        hi *= 2.0;
        if (hi > 1e30)
            throw std::runtime_error("gamma_quantile: bracket failed");
    }
    for (int i = 0; i < 200; ++i) {
        const double mid = 0.5 * (lo + hi);
        if (regularized_gamma_p(k, mid / theta) < p)
            lo = mid;
        else
            hi = mid;
        if (hi - lo < 1e-12 * (1.0 + hi))
            break;
    }
    return 0.5 * (lo + hi);
}

} // namespace lognic::solver
