/**
 * @file
 * What every workload of the repo benchmark shares: the result of one
 * pass of fixed work, the model-vs-DES accuracy pairs, and the workload
 * interface the loop in main.cpp runs.
 */
#ifndef LOGNIC_PERFBENCH_COMMON_HPP_
#define LOGNIC_PERFBENCH_COMMON_HPP_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "lognic/core/model.hpp"
#include "lognic/sim/nic_simulator.hpp"
#include "trace.hpp"

namespace perfbench {

/// Thread count passed to every entry point that takes one.
inline constexpr std::size_t kThreads = 2;

inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank quantile, q in [0, 1].
inline double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(q * static_cast<double>(v.size()));
    const std::size_t i = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return v[std::min(i, v.size() - 1)];
}

/// |model - des| / des, guarded against a zero denominator.
inline double
rel_err(double model, double des)
{
    return std::fabs(model - des) / std::max(std::fabs(des), 1e-9);
}

/// Worst per-class p99 of a model latency report, microseconds.
inline double
worst_p99_us(const lognic::core::LatencyReport& lat)
{
    double worst = 0.0;
    for (const auto& cls : lat.per_class)
        worst = std::max(worst, cls.p99.micros());
    return worst;
}

/// lifetime packet conservation: generated == completed + dropped + in flight.
inline bool
conserves_packets(const lognic::sim::SimResult& r)
{
    return r.generated == r.completed_total + r.dropped_total + r.in_flight;
}

/// What one pass of a workload's fixed work produced.
struct Pass {
    double wall_s{0.0};
    /// Work done: oracle requests, check units, or simulated seconds.
    double work{0.0};
    std::uint64_t attempted{0};
    std::uint64_t failed{0};
    /// Counts and output digests that must repeat exactly in every pass
    /// of a run, traced or not.
    std::map<std::string, std::uint64_t> exact;
    /// Failed output checks; any entry makes the run incorrect.
    std::vector<std::string> errors;
    /// Model-vs-DES relative errors.
    std::vector<double> tput_err;
    std::vector<double> p99_err;
    /// Traced passes only: per-solve model timings, microseconds.
    std::vector<double> throughput_us;
    std::vector<double> latency_us;
    /// Traced passes only: layer counts reported as per-layer metrics.
    std::map<std::string, double> counts;

    void require(bool ok, const std::string& what)
    {
        if (!ok)
            errors.push_back(what);
    }
};

class Workload {
  public:
    virtual ~Workload() = default;
    /// Generate the inputs from the seed and parse them into the objects
    /// the entry point takes. Timed as set-up; @p t may be null.
    virtual void setup(Tracer* t) = 0;
    /// One pass of the fixed work through the public entry point.
    virtual Pass run(std::size_t threads) = 0;
    /// The same pass replayed serially through the layer calls the entry
    /// point composes, with a span around each.
    virtual Pass replay(Tracer& t) = 0;
};

} // namespace perfbench

#endif // LOGNIC_PERFBENCH_COMMON_HPP_
