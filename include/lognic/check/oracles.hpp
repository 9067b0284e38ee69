/**
 * @file
 * Invariant oracles over a single DES run (lognic::check).
 *
 * These are properties every simulation result must satisfy regardless of
 * the scenario — conservation laws, range constraints, and internal
 * consistency between the scalar result fields and the structured metrics
 * snapshot. A violation here is a simulator (or metrics-publishing) bug,
 * never a property of the input.
 *
 * Each oracle states its tolerance explicitly in the Violation it emits:
 *  - exact identities (packet conservation, scalar <-> snapshot equality)
 *    use zero or pure floating-point slack;
 *  - statistical identities (Little's law on the servers) use a
 *    k-sigma band derived from the sample count plus an edge-effect
 *    allowance for requests straddling the measurement window.
 */
#ifndef LOGNIC_CHECK_ORACLES_HPP_
#define LOGNIC_CHECK_ORACLES_HPP_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "lognic/io/serialize.hpp"
#include "lognic/sim/nic_simulator.hpp"

namespace lognic::check {

/// One oracle failure, with the numbers needed to judge it.
struct Violation {
    /// Dotted oracle id, e.g. "invariant.conservation" or
    /// "conformance.mm1n.occupancy".
    std::string oracle;
    /// What it fired on (a vertex or metric name); empty for run-level.
    std::string subject;
    std::string message;
    double measured{0.0};
    double expected{0.0};
    double tolerance{0.0};
};

/**
 * Violation's readable field list, for an io::RecordWriter (a const
 * Violation) or io::RecordReader: the numbers are plain JSON numbers,
 * which a reader skips (they carry neither non-finite nor every finite
 * double). Checkpoint journals add the exact encoding under *_bits keys.
 */
template <typename IO, typename V>
void
violation_fields(IO& io, V& v)
{
    io.field("oracle", v.oracle);
    io.field("subject", v.subject);
    io.field("message", v.message);
    io.display("measured", v.measured);
    io.display("expected", v.expected);
    io.display("tolerance", v.tolerance);
}

io::Json to_json(const Violation& v);

struct InvariantTolerances {
    /// Relative slack on identities that are exact up to floating point.
    double rel_eps{1e-9};
    /// Width of the statistical band for Little's-law checks, in standard
    /// deviations of the busy-time estimator.
    double little_sigmas{6.0};
    /// Extra relative slack on the Little's-law identity. The vertex
    /// `served` counter spans the whole run while utilization is windowed,
    /// so the comparison couples the warmup-period completion rate to the
    /// window's; their difference is a sub-percent stationarity residual,
    /// bounded loosely here. A real accounting bug (e.g. comparing
    /// lifetime counts against windowed time without rescaling) shifts
    /// the ratio by the warmup fraction itself — an order of magnitude
    /// above this slack.
    double little_rel{0.02};
    /// Minimum served requests before a statistical check is meaningful.
    std::uint64_t min_served{200};
};

/**
 * The simulator's resolved per-vertex configuration, recomputed
 * independently from the scenario (the same resolution rules
 * NicSimulator applies: parallelism 0 means all engines, queue capacity
 * 0 means the IP default, service mean from the roofline engine scaled by
 * partition share and acceleration). Oracles compare the run against this
 * independently derived shape, so a resolution bug on either side shows
 * up as a violation.
 *
 * Returns nullopt for passthrough (ingress/egress) vertices.
 */
struct VertexShape {
    std::uint32_t engines{1};
    std::uint32_t capacity{1};
    std::size_t queue_count{1};
    std::uint32_t per_queue_capacity{1};
    /// Mean service time for class 0, seconds.
    double service_mean{0.0};
    /// Squared coefficient of variation of the service draw the simulator
    /// makes (0 when options force deterministic service).
    double service_scv{1.0};
    bool rate_limiter{false};
};

std::optional<VertexShape>
resolve_shape(const io::Scenario& sc, core::VertexId v,
              bool exponential_service);

/**
 * Run every invariant oracle against @p res (produced by simulating
 * @p sc under @p opts). Returns the violations found (empty = clean).
 *
 * Checked: packet conservation; utilization/drop-rate/occupancy ranges;
 * occupancy >= busy servers and <= buffer bound; quantile ordering;
 * empty-window sentinels; scalar fields == metrics snapshot (the warmup
 * accounting consistency check: both views are computed over the same
 * (warmup_end, horizon] window, so any disagreement means one side used
 * the wrong window); drop_rate == dropped/offered; throughput-counter
 * identity delivered_ops * window == completed; Little's law on each
 * vertex's servers (single-class, fault-free, burst-free runs only —
 * the preconditions under which E[S] is known exactly).
 */
std::vector<Violation>
check_invariants(const io::Scenario& sc, const sim::SimOptions& opts,
                 const sim::SimResult& res,
                 const InvariantTolerances& tol = {});

} // namespace lognic::check

#endif // LOGNIC_CHECK_ORACLES_HPP_
