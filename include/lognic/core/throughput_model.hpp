/**
 * @file
 * LogNIC throughput modeling (paper S3.5, Eq. 1-4).
 *
 * The attainable throughput of an offloaded program equals the minimum over
 * every hardware entity the data plane touches of (capacity / demand per
 * unit of ingress data):
 *
 *   P_attainable = min( P_vi / sum(delta_in),       for every IP vertex
 *                       BW_eij / delta_eij,          for dedicated edges
 *                       BW_INTF / sum(alpha),        shared interface
 *                       BW_MEM  / sum(beta),         shared memory
 *                       line rate )                  ingress/egress engines
 */
#ifndef LOGNIC_CORE_THROUGHPUT_MODEL_HPP_
#define LOGNIC_CORE_THROUGHPUT_MODEL_HPP_

#include <string>
#include <vector>

#include "lognic/core/execution_graph.hpp"
#include "lognic/core/hardware_model.hpp"
#include "lognic/core/traffic_profile.hpp"

namespace lognic::core {

class SolveScratch;

/// What kind of hardware entity a throughput term corresponds to.
enum class TermKind {
    kIpCompute,  ///< an IP vertex's compute capacity (Eq. 1)
    kEdge,       ///< a dedicated-bandwidth edge (BW_mn)
    kInterface,  ///< the shared interface (Eq. 2)
    kMemory,     ///< the shared memory subsystem (Eq. 2)
    kLineRate,   ///< ingress/egress engine I/O rate
    kRateLimit,  ///< a rate-limiter pseudo-IP
};

const char* to_string(TermKind kind);

/// One term in the Eq. 4 min(): the throughput this entity alone allows.
struct ThroughputTerm {
    TermKind kind{TermKind::kIpCompute};
    std::string name;
    Bandwidth limit{Bandwidth::from_gbps(0.0)};
};

struct ThroughputEstimate {
    /// P_attainable (Eq. 4): the program's capacity.
    Bandwidth capacity{Bandwidth::from_gbps(0.0)};
    /// Achieved throughput: min(capacity, offered BW_in).
    Bandwidth achieved{Bandwidth::from_gbps(0.0)};
    /// The binding term (smallest limit).
    ThroughputTerm bottleneck;
    /// Every term, sorted ascending by limit.
    std::vector<ThroughputTerm> terms;
};

/**
 * Estimate throughput for one packet class of @p traffic.
 *
 * Validates the graph once, then solves through @p scratch (a local one
 * when null); throws std::invalid_argument on a malformed graph or
 * out-of-range class index. A caller-owned scratch reuses cached topology
 * artifacts and per-vertex analyses across solves over small deltas
 * (bit-identical results; see solve_scratch.hpp). Never enumerates paths.
 */
ThroughputEstimate estimate_throughput(const ExecutionGraph& graph,
                                       const HardwareModel& hw,
                                       const TrafficProfile& traffic,
                                       std::size_t class_index = 0,
                                       SolveScratch* scratch = nullptr);

} // namespace lognic::core

#endif // LOGNIC_CORE_THROUGHPUT_MODEL_HPP_
