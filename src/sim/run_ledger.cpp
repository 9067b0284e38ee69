#include "run_ledger.hpp"

#include <chrono>
#include <stdexcept>

namespace lognic::sim {

RunLimits
RunLedger::limits(const WatchdogOptions& watchdog)
{
    RunLimits limits;
    limits.max_events = watchdog.max_events;
    if (watchdog.wall_clock_seconds > 0.0) {
        const auto deadline = std::chrono::steady_clock::now()
            + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(watchdog.wall_clock_seconds));
        limits.should_abort = [deadline] {
            return std::chrono::steady_clock::now() >= deadline;
        };
    }
    return limits;
}

SimResult
RunLedger::finish(RunOutcome outcome, std::vector<VertexStats> vertex_stats,
                  std::uint64_t queued_or_busy, const std::string& engine,
                  const std::string& series, obs::MetricsRegistry& reg)
{
    // When truncated, the clock stopped short of the horizon; every rate
    // below normalizes to the time actually simulated.
    const SimTime end = events.now();

    SimResult r;
    r.truncated = outcome == RunOutcome::kEventBudget
        || outcome == RunOutcome::kAborted;
    if (outcome == RunOutcome::kEventBudget)
        r.truncation_reason = "event_budget";
    else if (outcome == RunOutcome::kAborted)
        r.truncation_reason = "wall_clock";
    r.sim_time_reached = end;
    r.events_executed = events.executed();
    r.delivered = delivered.bandwidth(end);
    r.delivered_ops = delivered.rate(end);
    // The single-writer phase is over: seal the recorder (one sort), after
    // which quantile reads are const and thread-safe. A run that completed
    // nothing after warmup keeps the 0.0 empty-set sentinel; consumers
    // gate on `completed` (the runner's Replicator counts such runs as
    // degenerate and excludes them).
    latencies.seal();
    r.mean_latency = latencies.mean().value_or(Seconds{0.0});
    r.p50_latency = latencies.p50().value_or(Seconds{0.0});
    r.p99_latency = latencies.p99().value_or(Seconds{0.0});
    r.generated = generated;
    r.completed = delivered.requests();
    // Windowed drops over windowed arrivals: the (warmup_end, horizon]
    // convention completions use, so drop_rate is an unbiased blocking
    // estimate even at short horizons.
    const std::uint64_t offered = offered_in_window.count();
    r.dropped = drops_in_window.count();
    r.drop_rate = offered > 0
        ? static_cast<double>(r.dropped) / static_cast<double>(offered)
        : 0.0;
    r.vertex_stats = std::move(vertex_stats);

    // Packet conservation: every generated packet must be delivered,
    // dropped, or still inside the device. A violation is a simulator bug
    // (double-count or leak), never a property of the scenario — fail loud.
    r.completed_total = completed_total;
    r.dropped_total = dropped_cause[kDropOverflow]
        + dropped_cause[kDropBurstLoss] + dropped_cause[kDropEngineFail];
    r.in_flight = in_transit + queued_or_busy;
    if (r.generated != r.completed_total + r.dropped_total + r.in_flight)
        throw std::logic_error(
            engine + ": packet conservation violated: generated="
            + std::to_string(r.generated) + " != completed="
            + std::to_string(r.completed_total) + " + dropped="
            + std::to_string(r.dropped_total) + " + in_flight="
            + std::to_string(r.in_flight));

    // The structured snapshot mirroring (and extending) the scalar fields;
    // this is what the runner aggregates.
    reg.counter("sim.generated").add(r.generated);
    reg.counter("sim.offered").add(offered);
    reg.counter("sim.completed").add(r.completed);
    reg.counter("sim.dropped").add(r.dropped);
    reg.counter("sim.completed_total").add(r.completed_total);
    reg.counter("sim.dropped_total").add(r.dropped_total);
    reg.counter("sim.dropped_by_cause.overflow")
        .add(dropped_cause[kDropOverflow]);
    reg.counter("sim.dropped_by_cause.burst")
        .add(dropped_cause[kDropBurstLoss]);
    reg.counter("sim.dropped_by_cause.engine_fail")
        .add(dropped_cause[kDropEngineFail]);
    reg.counter("sim.in_flight").add(r.in_flight);
    reg.counter("sim.fault_events").add(fault_events_applied);
    reg.counter("sim.events_executed").add(r.events_executed);
    reg.gauge("sim.truncated").set(r.truncated ? 1.0 : 0.0);
    reg.gauge("sim.delivered_gbps").set(r.delivered.gbps());
    reg.gauge("sim.delivered_mops").set(r.delivered_ops.mops());
    reg.gauge("sim.drop_rate").set(r.drop_rate);
    reg.gauge("sim.mean_latency_us").set(r.mean_latency.micros());
    reg.gauge("sim.p50_latency_us").set(r.p50_latency.micros());
    reg.gauge("sim.p99_latency_us").set(r.p99_latency.micros());
    reg.histogram("sim.latency_us", latency_bounds_us) = latency_hist;
    for (const VertexStats& vs : r.vertex_stats) {
        const std::string prefix = series + "." + vs.name;
        reg.counter(prefix + ".served").add(vs.served);
        reg.counter(prefix + ".dropped").add(vs.dropped);
        reg.gauge(prefix + ".utilization").set(vs.utilization);
    }
    return r;
}

} // namespace lognic::sim
