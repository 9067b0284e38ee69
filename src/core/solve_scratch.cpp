#include "lognic/core/solve_scratch.hpp"

#include <algorithm>

namespace lognic::core {

void
SolveScratch::invalidate()
{
    topo_valid_ = false; // the rebuild resets the analyses and paths
}

void
SolveScratch::invalidate_analyses()
{
    std::fill(analysis_valid_.begin(), analysis_valid_.end(), 0);
}

void
SolveScratch::invalidate_vertex(VertexId v)
{
    if (v < analysis_valid_.size())
        analysis_valid_[v] = 0;
}

void
SolveScratch::ensure_topology(const ExecutionGraph& graph)
{
    const std::size_t n = graph.vertex_count();
    if (topo_valid_ && in_delta_sums_.size() == n)
        return;
    topo_order_ = graph.topological_order();
    paths_valid_ = false;
    // One pass in edge order: the same lists, and the same summation
    // order, as graph.out_edges(v) / graph.in_delta_sum(v).
    out_edges_.assign(n, {});
    in_delta_sums_.assign(n, 0.0);
    for (EdgeId e = 0; e < graph.edge_count(); ++e) {
        const Edge& ed = graph.edge(e);
        out_edges_[ed.from].push_back(e);
        in_delta_sums_[ed.to] += ed.params.delta;
    }
    ingresses_ = graph.ingress_vertices();
    egresses_ = graph.egress_vertices();
    analysis_valid_.assign(n, 0);
    analyses_.assign(n, VertexAnalysis{});
    topo_valid_ = true;
}

void
SolveScratch::ensure_paths(const ExecutionGraph& graph)
{
    ensure_topology(graph);
    if (!paths_valid_) {
        paths_ = graph.enumerate_paths();
        paths_valid_ = true;
    }
}

const VertexAnalysis&
SolveScratch::vertex_analysis(const ExecutionGraph& graph,
                              const HardwareModel& hw, VertexId v,
                              const TrafficProfile& traffic,
                              std::size_t class_index)
{
    ensure_topology(graph);
    if (!analysis_valid_.at(v)) {
        analyses_[v] = analyze_vertex(graph, hw, v, traffic, class_index);
        analysis_valid_[v] = 1;
    }
    return analyses_[v];
}

} // namespace lognic::core
