#include "lognic/core/model.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <stdexcept>
#include <utility>

#include "solve.hpp"

namespace lognic::core {

namespace {

/**
 * Build the operating profile for one class of a mixed profile: the class
 * keeps its own packet size and receives its byte share of the offered load.
 */
TrafficProfile
class_operating_profile(const TrafficProfile& traffic, std::size_t i)
{
    TrafficProfile p = traffic.class_profile(i);
    p.set_ingress_bandwidth(
        traffic.ingress_bandwidth() * traffic.classes()[i].weight);
    return p;
}

/**
 * Extension #2: when several classes share an IP, each class owns a share
 * of the queue capacity proportional to its traffic weight (min 1 entry).
 */
ExecutionGraph
queue_partitioned_copy(const ExecutionGraph& graph, const HardwareModel& hw,
                       double weight)
{
    ExecutionGraph copy = graph;
    for (VertexId v = 0; v < copy.vertex_count(); ++v) {
        Vertex& vx = copy.vertex(v);
        if (vx.kind == VertexKind::kIngress || vx.kind == VertexKind::kEgress)
            continue;
        std::uint32_t base = vx.params.queue_capacity;
        if (base == 0 && vx.kind == VertexKind::kIp)
            base = hw.ip(vx.ip).default_queue_capacity;
        if (base == 0)
            base = 1;
        vx.params.queue_capacity = std::max<std::uint32_t>(
            1, static_cast<std::uint32_t>(
                   std::floor(static_cast<double>(base) * weight + 0.5)));
    }
    return copy;
}

/**
 * Combine per-class capacities into the mixed-traffic capacity.
 *
 * Every resource is shared by all classes at once, so one ingress byte of
 * class i consumes 1 / limit_i of the resource per second; the mix
 * saturates the resource at 1 / sum(w_i / limit_i) — the weighted
 * *harmonic* mean of the per-class limits, taken per resource and then
 * minimised across resources. (A weighted arithmetic mean of the
 * per-class capacities overestimates: it describes classes that each get
 * a dedicated slice of every resource, not classes interleaving on the
 * same engines.)
 */
Bandwidth
mixed_capacity(const std::vector<ThroughputEstimate>& per_class,
               const std::vector<PacketClass>& classes)
{
    std::map<std::pair<TermKind, std::string>, double> inverse;
    for (std::size_t i = 0; i < per_class.size(); ++i)
        for (const ThroughputTerm& term : per_class[i].terms)
            inverse[{term.kind, term.name}] +=
                classes[i].weight / term.limit.bits_per_sec();
    double min_limit = std::numeric_limits<double>::infinity();
    for (const auto& [key, inv] : inverse)
        if (inv > 0.0)
            min_limit = std::min(min_limit, 1.0 / inv);
    if (!std::isfinite(min_limit))
        min_limit = 0.0;
    return Bandwidth{min_limit};
}

/// The per-class pass behind Model::estimate/throughput/latency (see
/// model.hpp); the caller's scratch serves a single-class profile only.
Report
solve(const HardwareModel& hw, const ExecutionGraph& graph,
      const TrafficProfile& traffic, SolveScratch* scratch, bool throughput,
      bool latency)
{
    Report report;
    ThroughputReport& tr = report.throughput;
    LatencyReport& lr = report.latency;
    const auto solve_class = [&](const ExecutionGraph& g,
                                 const TrafficProfile& t, SolveScratch& s) {
        g.validate(hw);
        if (throughput)
            tr.per_class.push_back(detail::solve_throughput(g, hw, t, 0, s));
        if (latency)
            lr.per_class.push_back(detail::solve_latency(g, hw, t, 0, s));
    };
    const auto& classes = traffic.classes();
    const bool mixed = classes.size() > 1;
    SolveScratch local;
    if (!mixed)
        solve_class(graph, traffic, scratch ? *scratch : local);
    for (std::size_t i = 0; mixed && i < classes.size(); ++i) {
        SolveScratch own;
        solve_class(queue_partitioned_copy(graph, hw, classes[i].weight),
                    class_operating_profile(traffic, i), own);
    }

    for (std::size_t i = 0; i < lr.per_class.size(); ++i) {
        lr.mean += Seconds{classes[i].weight * lr.per_class[i].mean.seconds()};
        lr.max_drop_probability = std::max(
            lr.max_drop_probability, lr.per_class[i].max_drop_probability);
    }
    if (throughput && !mixed) {
        tr.achieved += tr.per_class[0].achieved * classes[0].weight;
        tr.capacity = tr.per_class[0].capacity;
    } else if (throughput) {
        // Each class's achieved throughput already uses its BW share, but
        // assumed the rest of the mix was absent; the shared resources cap
        // the total at the mixed capacity.
        for (const ThroughputEstimate& est : tr.per_class)
            tr.achieved += est.achieved;
        tr.capacity = mixed_capacity(tr.per_class, classes);
        tr.achieved = std::min(tr.achieved, tr.capacity);
    }
    return report;
}

} // namespace

const ThroughputTerm&
ThroughputReport::bottleneck() const
{
    if (per_class.empty())
        throw std::logic_error("ThroughputReport: empty report");
    const auto it = std::min_element(
        per_class.begin(), per_class.end(),
        [](const ThroughputEstimate& a, const ThroughputEstimate& b) {
            return a.capacity < b.capacity;
        });
    return it->bottleneck;
}

ThroughputReport
Model::throughput(const ExecutionGraph& graph, const TrafficProfile& traffic,
                  SolveScratch* scratch) const
{
    return solve(hw_, graph, traffic, scratch, true, false).throughput;
}

LatencyReport
Model::latency(const ExecutionGraph& graph, const TrafficProfile& traffic,
               SolveScratch* scratch) const
{
    return solve(hw_, graph, traffic, scratch, false, true).latency;
}

Report
Model::estimate(const ExecutionGraph& graph, const TrafficProfile& traffic,
                SolveScratch* scratch) const
{
    return solve(hw_, graph, traffic, scratch, true, true);
}

} // namespace lognic::core
