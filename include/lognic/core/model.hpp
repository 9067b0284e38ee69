/**
 * @file
 * The LogNIC estimator facade (paper S3.8, Figure 4a).
 *
 * Takes a software execution graph, a hardware model, and a traffic profile;
 * produces throughput and latency reports. Mixed packet-size profiles are
 * handled per extension #2 (S3.7): each packet class is estimated at its
 * own operating point (with its bandwidth share and a partitioned queue
 * capacity) and the results are dist_size-weighted.
 */
#ifndef LOGNIC_CORE_MODEL_HPP_
#define LOGNIC_CORE_MODEL_HPP_

#include "lognic/core/execution_graph.hpp"
#include "lognic/core/hardware_model.hpp"
#include "lognic/core/latency_model.hpp"
#include "lognic/core/throughput_model.hpp"
#include "lognic/core/traffic_profile.hpp"

namespace lognic::core {

/// Throughput across all packet classes of a profile.
struct ThroughputReport {
    /// dist_size-weighted attainable capacity (extension #2).
    Bandwidth capacity{Bandwidth::from_gbps(0.0)};
    /// dist_size-weighted achieved throughput under the offered load.
    Bandwidth achieved{Bandwidth::from_gbps(0.0)};
    /// Per-class single-profile estimates (same order as profile classes).
    std::vector<ThroughputEstimate> per_class;

    /// Bottleneck of the class with the lowest capacity.
    const ThroughputTerm& bottleneck() const;
};

/// Latency across all packet classes of a profile.
struct LatencyReport {
    /// dist_size-weighted mean latency (Eq. 8 + extension #2).
    Seconds mean{0.0};
    std::vector<LatencyEstimate> per_class;
    double max_drop_probability{0.0};
};

struct Report {
    ThroughputReport throughput;
    LatencyReport latency;
};

class SolveScratch;

/// The estimator. Cheap to copy; holds the hardware model by value.
class Model {
  public:
    explicit Model(HardwareModel hw) : hw_(std::move(hw)) {}

    const HardwareModel& hardware() const { return hw_; }

    /**
     * One per-class pass: each class's graph is validated once and its
     * solves share one core::SolveScratch. throughput() and latency() are
     * projections of estimate()'s pass. The optional @p scratch caches
     * topology artifacts and per-vertex analyses across repeated solves
     * over small scenario deltas (bit-identical results; single-class
     * profiles only — mixed profiles partition queues per class and
     * solve each copy with a local scratch). The caller owns
     * invalidation; see solve_scratch.hpp.
     */
    ThroughputReport throughput(const ExecutionGraph& graph,
                                const TrafficProfile& traffic,
                                SolveScratch* scratch = nullptr) const;
    LatencyReport latency(const ExecutionGraph& graph,
                          const TrafficProfile& traffic,
                          SolveScratch* scratch = nullptr) const;
    Report estimate(const ExecutionGraph& graph,
                    const TrafficProfile& traffic,
                    SolveScratch* scratch = nullptr) const;

  private:
    HardwareModel hw_;
};

} // namespace lognic::core

#endif // LOGNIC_CORE_MODEL_HPP_
