/**
 * @file
 * The solve state every throughput/latency solve reads (Eq. 1-12):
 *
 *   - topology artifacts (topological order, per-vertex out-edge lists,
 *     in-delta sums, ingress/egress lists, and the ingress->egress paths,
 *     enumerated for the latency walk only) depend only on the graph's
 *     vertex/edge structure and edge params;
 *   - per-vertex operating points (analyze_vertex) depend on that
 *     vertex's params, the hardware catalog, and the traffic profile.
 *
 * A caller that passes no scratch gets a local one; Model::estimate
 * shares one between both models. A caller-owned scratch (see
 * dse::Materializer) keeps both layers across solves over small deltas,
 * and the caller owns invalidation: it knows which knob changed and calls
 * invalidate() / invalidate_analyses() / invalidate_vertex(). Entries are
 * outputs of the same pure functions on identical inputs, so a warm
 * scratch, a fresh one and none are bit-identical -- the property the dse
 * byte-identity gates rest on. Validation is never cached: the models
 * validate once per estimate. One scratch serves one (graph, traffic
 * class); Model gives each class of a mixed profile a local one.
 */
#ifndef LOGNIC_CORE_SOLVE_SCRATCH_HPP_
#define LOGNIC_CORE_SOLVE_SCRATCH_HPP_

#include <vector>

#include "lognic/core/execution_graph.hpp"
#include "lognic/core/traffic_profile.hpp"
#include "lognic/core/vertex_analysis.hpp"

namespace lognic::core {

class SolveScratch {
  public:
    /// Drop everything (graph structure or edges changed / new scenario).
    void invalidate();
    /// Keep topology; drop every cached analysis (catalog/traffic changed).
    void invalidate_analyses();
    /// Keep topology; drop @p v's cached analysis (its params changed).
    void invalidate_vertex(VertexId v);

    /// (Re)build the topology artifacts when stale. Called by the models.
    void ensure_topology(const ExecutionGraph& graph);
    /// ensure_topology(), then enumerate the paths once per topology (the
    /// latency walk only; throws on a path explosion).
    void ensure_paths(const ExecutionGraph& graph);

    /// Cached analyze_vertex(). Precondition: a valid cached entry was
    /// computed against value-identical (graph params, hw, traffic) inputs.
    const VertexAnalysis& vertex_analysis(const ExecutionGraph& graph,
                                          const HardwareModel& hw, VertexId v,
                                          const TrafficProfile& traffic,
                                          std::size_t class_index);

    /// Accessors; precondition: ensure_topology() (paths(): ensure_paths())
    /// ran for this graph.
    const std::vector<VertexId>& topological_order() const
    {
        return topo_order_;
    }
    const std::vector<ExecutionGraph::Path>& paths() const { return paths_; }
    const std::vector<std::vector<EdgeId>>& out_edge_lists() const
    {
        return out_edges_;
    }
    double in_delta_sum(VertexId v) const { return in_delta_sums_.at(v); }
    const std::vector<VertexId>& ingresses() const { return ingresses_; }
    const std::vector<VertexId>& egresses() const { return egresses_; }

  private:
    bool topo_valid_{false};
    bool paths_valid_{false};
    std::vector<VertexId> topo_order_;
    std::vector<ExecutionGraph::Path> paths_;
    std::vector<std::vector<EdgeId>> out_edges_;
    std::vector<double> in_delta_sums_;
    std::vector<VertexId> ingresses_;
    std::vector<VertexId> egresses_;
    std::vector<char> analysis_valid_;
    std::vector<VertexAnalysis> analyses_;
};

} // namespace lognic::core

#endif // LOGNIC_CORE_SOLVE_SCRATCH_HPP_
