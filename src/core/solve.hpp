/**
 * @file
 * The model solves (internal to lognic_core) on a graph that validate()
 * already accepted, reading topology and vertex analyses only through
 * @p scratch: the public entry points validate once and call these.
 */
#ifndef LOGNIC_CORE_SOLVE_HPP_
#define LOGNIC_CORE_SOLVE_HPP_

#include "lognic/core/latency_model.hpp"
#include "lognic/core/solve_scratch.hpp"
#include "lognic/core/throughput_model.hpp"

namespace lognic::core::detail {

ThroughputEstimate solve_throughput(
    const ExecutionGraph& graph, const HardwareModel& hw,
    const TrafficProfile& traffic, std::size_t class_index,
    SolveScratch& scratch);

LatencyEstimate solve_latency(
    const ExecutionGraph& graph, const HardwareModel& hw,
    const TrafficProfile& traffic, std::size_t class_index,
    SolveScratch& scratch);

} // namespace lognic::core::detail

#endif // LOGNIC_CORE_SOLVE_HPP_
