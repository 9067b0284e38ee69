#include "lognic/check/oracles.hpp"

#include "lognic/io/record.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>

namespace lognic::check {

namespace {

/// Measurement window (warmup_end, horizon]. The simulator sets
/// sim_time_reached to the horizon for completed runs and to the
/// truncation instant otherwise, so this is the window every windowed
/// statistic was normalized over.
struct Window {
    double warmup_end{0.0};
    double length{0.0};
};

Window
measurement_window(const sim::SimOptions& opts, const sim::SimResult& res)
{
    Window w;
    w.warmup_end = opts.duration * opts.warmup_fraction;
    w.length = res.sim_time_reached - w.warmup_end;
    return w;
}

class Collector {
  public:
    Collector(std::vector<Violation>& out, const InvariantTolerances& tol)
        : out_(out), tol_(tol)
    {
    }

    void
    require(bool ok, const std::string& oracle, const std::string& subject,
            const std::string& message, double measured, double expected,
            double tolerance)
    {
        if (ok)
            return;
        out_.push_back(Violation{oracle, subject, message, measured,
                                 expected, tolerance});
    }

    /// |measured - expected| <= tolerance.
    void
    near(double measured, double expected, double tolerance,
         const std::string& oracle, const std::string& subject,
         const std::string& message)
    {
        require(std::abs(measured - expected) <= tolerance, oracle,
                subject, message, measured, expected, tolerance);
    }

    /// Exact up to relative floating-point slack.
    void
    close(double measured, double expected, const std::string& oracle,
          const std::string& subject, const std::string& message)
    {
        const double tolerance =
            tol_.rel_eps * std::max(1.0, std::abs(expected));
        near(measured, expected, tolerance, oracle, subject, message);
    }

    void
    equal_count(std::uint64_t measured, std::uint64_t expected,
                const std::string& oracle, const std::string& subject,
                const std::string& message)
    {
        require(measured == expected, oracle, subject, message,
                static_cast<double>(measured),
                static_cast<double>(expected), 0.0);
    }

  private:
    std::vector<Violation>& out_;
    const InvariantTolerances& tol_;
};

void
check_conservation(Collector& c, const sim::SimResult& res)
{
    const std::uint64_t accounted =
        res.completed_total + res.dropped_total + res.in_flight;
    c.equal_count(res.generated, accounted, "invariant.conservation", "",
                  "generated != completed_total + dropped_total + "
                  "in_flight");
    c.require(res.completed <= res.completed_total,
              "invariant.conservation", "completed",
              "windowed completions exceed lifetime completions",
              static_cast<double>(res.completed),
              static_cast<double>(res.completed_total), 0.0);
    c.require(res.dropped <= res.dropped_total, "invariant.conservation",
              "dropped", "windowed drops exceed lifetime drops",
              static_cast<double>(res.dropped),
              static_cast<double>(res.dropped_total), 0.0);
}

void
check_ranges(Collector& c, const io::Scenario& sc,
             const sim::SimOptions& opts, const sim::SimResult& res,
             const InvariantTolerances& tol)
{
    c.require(res.drop_rate >= 0.0 && res.drop_rate <= 1.0,
              "invariant.range", "drop_rate", "drop_rate outside [0, 1]",
              res.drop_rate, 0.5, 0.5);
    c.require(res.mean_latency.seconds() >= 0.0, "invariant.range",
              "mean_latency", "negative latency",
              res.mean_latency.seconds(), 0.0, 0.0);
    c.require(
        res.p50_latency.seconds() <= res.p99_latency.seconds()
            + tol.rel_eps * std::max(1.0, res.p99_latency.seconds()),
        "invariant.range", "quantiles", "p50 exceeds p99",
        res.p50_latency.seconds(), res.p99_latency.seconds(), 0.0);
    if (res.completed == 0) {
        // Empty-window sentinel contract: no completions, no latency.
        c.close(res.mean_latency.seconds(), 0.0, "invariant.sentinel",
                "mean_latency",
                "latency nonzero with zero completions");
    }

    for (const auto& vs : res.vertex_stats) {
        const auto v = sc.graph.find_vertex(vs.name);
        if (!v)
            continue;
        const auto shape =
            resolve_shape(sc, *v, opts.exponential_service);
        if (!shape)
            continue;
        const double util_slack = tol.rel_eps;
        c.require(vs.utilization >= -util_slack
                      && vs.utilization <= 1.0 + util_slack,
                  "invariant.range", vs.name,
                  "utilization outside [0, 1]", vs.utilization, 0.5,
                  0.5);
        c.require(vs.mean_occupancy >= -tol.rel_eps, "invariant.range",
                  vs.name, "negative mean occupancy", vs.mean_occupancy,
                  0.0, 0.0);
        // Mean occupancy can never fall below the mean busy-server count
        // (the queued area is pointwise non-negative) ...
        const double busy =
            vs.utilization * static_cast<double>(shape->engines);
        c.require(vs.mean_occupancy + tol.rel_eps * std::max(1.0, busy)
                      >= busy,
                  "invariant.range", vs.name,
                  "occupancy below busy-server mean", vs.mean_occupancy,
                  busy, tol.rel_eps);
        // ... nor exceed what the buffers plus engines can physically
        // hold at any instant.
        const double bound = static_cast<double>(shape->queue_count)
                * static_cast<double>(shape->per_queue_capacity)
            + static_cast<double>(shape->engines);
        c.require(vs.mean_occupancy <= bound * (1.0 + tol.rel_eps),
                  "invariant.range", vs.name,
                  "occupancy exceeds buffer + engine bound",
                  vs.mean_occupancy, bound, 0.0);
    }
}

void
check_metrics_consistency(Collector& c, const sim::SimResult& res)
{
    const auto& m = res.metrics;
    const auto counter = [&](const char* name, std::uint64_t field) {
        c.equal_count(m.counter_or_zero(name), field,
                      "invariant.metrics", name,
                      "snapshot counter disagrees with result field");
    };
    counter("sim.generated", res.generated);
    counter("sim.completed", res.completed);
    counter("sim.dropped", res.dropped);
    counter("sim.completed_total", res.completed_total);
    counter("sim.dropped_total", res.dropped_total);
    counter("sim.in_flight", res.in_flight);
    counter("sim.events_executed", res.events_executed);

    const auto gauge = [&](const char* name, double field) {
        c.close(m.gauge_or(name), field, "invariant.metrics", name,
                "snapshot gauge disagrees with result field");
    };
    gauge("sim.drop_rate", res.drop_rate);
    gauge("sim.delivered_gbps", res.delivered.gbps());
    gauge("sim.mean_latency_us", res.mean_latency.micros());
    gauge("sim.p50_latency_us", res.p50_latency.micros());
    gauge("sim.p99_latency_us", res.p99_latency.micros());
    gauge("sim.truncated", res.truncated ? 1.0 : 0.0);

    // Drop causes must decompose the lifetime total exactly.
    const std::uint64_t by_cause =
        m.counter_or_zero("sim.dropped_by_cause.overflow")
        + m.counter_or_zero("sim.dropped_by_cause.burst")
        + m.counter_or_zero("sim.dropped_by_cause.engine_fail");
    c.equal_count(by_cause, res.dropped_total, "invariant.metrics",
                  "sim.dropped_by_cause",
                  "drop causes do not sum to dropped_total");

    // The latency histogram and the completion counter are filled from
    // the same warmup-gated event, so their totals must agree — this is
    // the warmup-window accounting consistency check for the histogram
    // path.
    const auto hist = m.histograms.find("sim.latency_us");
    if (hist != m.histograms.end())
        c.equal_count(hist->second.total, res.completed,
                      "invariant.metrics", "sim.latency_us",
                      "latency histogram total != windowed completions");

    for (const auto& vs : res.vertex_stats) {
        c.equal_count(m.counter_or_zero("vertex." + vs.name + ".served"),
                      vs.served, "invariant.metrics", vs.name,
                      "snapshot served disagrees with vertex stats");
        c.equal_count(
            m.counter_or_zero("vertex." + vs.name + ".dropped"),
            vs.dropped, "invariant.metrics", vs.name,
            "snapshot dropped disagrees with vertex stats");
        c.close(m.gauge_or("vertex." + vs.name + ".utilization"),
                vs.utilization, "invariant.metrics", vs.name,
                "snapshot utilization disagrees with vertex stats");
        c.close(m.gauge_or("vertex." + vs.name + ".occupancy"),
                vs.mean_occupancy, "invariant.metrics", vs.name,
                "snapshot occupancy disagrees with vertex stats");
    }
}

void
check_window_accounting(Collector& c, const sim::SimOptions& opts,
                        const sim::SimResult& res,
                        const InvariantTolerances& tol)
{
    const auto& m = res.metrics;
    const std::uint64_t offered = m.counter_or_zero("sim.offered");
    c.require(offered <= res.generated, "invariant.window", "sim.offered",
              "windowed arrivals exceed lifetime generated",
              static_cast<double>(offered),
              static_cast<double>(res.generated), 0.0);
    // drop_rate is defined as windowed drops over windowed arrivals.
    const double expected_rate = offered > 0
        ? static_cast<double>(res.dropped) / static_cast<double>(offered)
        : 0.0;
    c.close(res.drop_rate, expected_rate, "invariant.window", "drop_rate",
            "drop_rate != dropped / offered over the same window");

    // delivered_ops is windowed completions over the window length; the
    // identity closes the loop between the rate view and the count view.
    const Window w = measurement_window(opts, res);
    if (w.length > 0.0) {
        const double implied = res.delivered_ops.per_sec() * w.length;
        c.near(implied, static_cast<double>(res.completed),
               tol.rel_eps * std::max(1.0, static_cast<double>(
                                               res.completed))
                   + 1e-6,
               "invariant.window", "delivered_ops",
               "delivered_ops * window != completed");
    }
}

/**
 * Little's law applied to the servers of each vertex: the mean busy
 * engine count (utilization * D, measured over the post-warmup window)
 * must match the service-completion rate times E[S]. Valid when E[S] is
 * the same for every request the vertex served — single-class traffic
 * with no faults (slowdowns change E[S] mid-run) and no bursts.
 *
 * The vertex `served` counter spans the whole run while utilization is
 * windowed, so the completion rate is estimated as served / horizon.
 * With stationary arrivals the two rates differ only by the warmup
 * ramp-up (the queue starts empty), whose total completion deficit is
 * bounded by the system size — hence the explicit `ramp` allowance on
 * top of the little_sigmas statistical band (sum of served service
 * draws, variance scv * E[S]^2 each) and an edge allowance for requests
 * straddling the run boundaries.
 */
void
check_littles_law(Collector& c, const io::Scenario& sc,
                  const sim::SimOptions& opts, const sim::SimResult& res,
                  const InvariantTolerances& tol)
{
    if (sc.traffic.classes().size() != 1 || !opts.faults.empty()
        || opts.burst.enabled)
        return;
    const Window w = measurement_window(opts, res);
    const double horizon = res.sim_time_reached;
    if (w.length <= 0.0 || horizon <= 0.0)
        return;
    for (const auto& vs : res.vertex_stats) {
        if (vs.served < tol.min_served)
            continue;
        const auto v = sc.graph.find_vertex(vs.name);
        if (!v)
            continue;
        const auto shape =
            resolve_shape(sc, *v, opts.exponential_service);
        if (!shape)
            continue;
        const double mean_busy =
            vs.utilization * static_cast<double>(shape->engines);
        const double expected = static_cast<double>(vs.served)
            * shape->service_mean / horizon;
        const double sigma = shape->service_mean
            * std::sqrt(static_cast<double>(vs.served)
                        * std::max(shape->service_scv, 0.0))
            / horizon;
        const double edge = 8.0 * static_cast<double>(shape->engines)
            * shape->service_mean / horizon;
        const double system_bound =
            static_cast<double>(shape->queue_count)
                * static_cast<double>(shape->per_queue_capacity)
            + static_cast<double>(shape->engines);
        const double ramp =
            3.0 * system_bound * shape->service_mean / horizon;
        c.near(mean_busy, expected,
               tol.little_sigmas * sigma + edge + ramp
                   + tol.little_rel * expected
                   + tol.rel_eps * std::max(1.0, expected),
               "invariant.little", vs.name,
               "busy servers violate Little's law vs served rate");
    }
}

} // namespace

io::Json
to_json(const Violation& v)
{
    return io::write_record(v, [](auto& io, auto& violation) {
        violation_fields(io, violation);
    });
}

std::optional<VertexShape>
resolve_shape(const io::Scenario& sc, core::VertexId v,
              bool exponential_service)
{
    const core::Vertex& vx = sc.graph.vertex(v);
    if (vx.kind == core::VertexKind::kIngress
        || vx.kind == core::VertexKind::kEgress)
        return std::nullopt;

    VertexShape shape;
    const Bytes req = sc.traffic.granularity(0);
    if (vx.kind == core::VertexKind::kRateLimiter) {
        shape.rate_limiter = true;
        shape.engines = 1;
        shape.capacity =
            std::max<std::uint32_t>(vx.params.queue_capacity, 1);
        shape.service_mean = (req / vx.rate_limit).seconds();
        shape.service_scv = exponential_service ? 1.0 : 0.0;
    } else {
        const core::IpSpec& spec = sc.hw.ip(vx.ip);
        shape.engines = vx.params.parallelism > 0
            ? vx.params.parallelism
            : spec.max_engines;
        shape.capacity = vx.params.queue_capacity > 0
            ? vx.params.queue_capacity
            : spec.default_queue_capacity;
        shape.service_mean =
            spec.roofline.engine().service_time(req).seconds()
            / (vx.params.partition * vx.params.acceleration);
        shape.service_scv =
            exponential_service ? spec.service_scv : 0.0;
    }
    const std::size_t indegree = sc.graph.in_degree(v);
    shape.queue_count =
        (vx.params.per_input_queues && indegree > 1) ? indegree : 1;
    shape.per_queue_capacity = std::max<std::uint32_t>(
        1,
        shape.capacity / static_cast<std::uint32_t>(shape.queue_count));
    return shape;
}

std::vector<Violation>
check_invariants(const io::Scenario& sc, const sim::SimOptions& opts,
                 const sim::SimResult& res,
                 const InvariantTolerances& tol)
{
    std::vector<Violation> out;
    Collector c(out, tol);
    check_conservation(c, res);
    check_ranges(c, sc, opts, res, tol);
    check_metrics_consistency(c, res);
    check_window_accounting(c, opts, res, tol);
    check_littles_law(c, sc, opts, res, tol);
    return out;
}

} // namespace lognic::check
