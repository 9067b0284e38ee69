/**
 * @file
 * The run harness both DES engines share (private to src/sim). Their
 * dynamics differ — per-hop routing over queues and links vs. per-packet
 * chains gated by credits — but they measure a run the same way: each
 * holds one RunLedger (calendar, RNG, measurement window, recorders,
 * conservation counters, fault serials) and finish() turns it into the
 * SimResult.
 */
#ifndef LOGNIC_SIM_RUN_LEDGER_HPP_
#define LOGNIC_SIM_RUN_LEDGER_HPP_

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "lognic/fault/fault_plan.hpp"
#include "lognic/io/record.hpp"
#include "lognic/obs/metrics.hpp"
#include "lognic/sim/event_queue.hpp"
#include "lognic/sim/nic_simulator.hpp"
#include "lognic/sim/random.hpp"
#include "lognic/sim/stats.hpp"

namespace lognic::sim {

/// Cause slots for the lifetime drop accounting.
enum DropCause : int {
    kDropOverflow = 0,   ///< finite queue was full
    kDropBurstLoss = 1,  ///< fault-injected transient drop burst
    kDropEngineFail = 2, ///< in-service request lost to an engine failure
};

/// What both engines keep per service station (a NIC vertex or a PANIC
/// unit): busy engines, fault state, and the window measurements.
struct Station {
    std::uint32_t busy{0};
    // Fault state (defaults = healthy; untouched when the plan is empty,
    // so the fault-free path is unchanged):
    std::uint32_t engines_offline{0};
    double slow_factor{1.0};            ///< service-time multiplier (>= 1)
    double drop_prob{0.0};              ///< active drop-burst probability
    std::uint32_t capacity_override{0}; ///< 0 = the configured capacity
    // Measurement (accumulated after warmup):
    double area_busy{0.0};      ///< integral of busy engines over time
    double area_occupancy{0.0}; ///< integral of queued + busy (NIC only)
    SimTime last_change{0.0};
    std::uint64_t served{0};
    std::uint64_t dropped{0};

    /// How many of @p engines are online.
    std::uint32_t available(std::uint32_t engines) const
    {
        return engines_offline >= engines ? 0u : engines - engines_offline;
    }

    /// Apply a slowdown, drop-burst or queue-capacity step.
    void set(const fault::FaultStep& step)
    {
        if (step.kind == fault::FaultKind::kSlowdown)
            slow_factor = step.value;
        else if (step.kind == fault::FaultKind::kDropBurst)
            drop_prob = step.value;
        else if (step.kind == fault::FaultKind::kQueueCapacity)
            capacity_override = static_cast<std::uint32_t>(step.value);
    }
};

/**
 * An engine's fault schedule: @p plan's timeline up to @p horizon, each
 * step paired with the target `engine.resolve(kind, target)` finds for it
 * (a struct with a `step` member). Every event is resolved first, even
 * one past the horizon, so an unknown target throws at construction
 * instead of surfacing as a silent no-op mid-campaign.
 */
template <typename Engine>
auto
schedule_plan(const fault::FaultPlan& plan, double horizon,
              const Engine& engine)
{
    using Scheduled = decltype(engine.resolve(fault::FaultKind{}, ""));
    for (const fault::FaultEvent& ev : plan.sorted())
        (void)engine.resolve(ev.kind, ev.target);
    std::vector<Scheduled> scheduled;
    for (fault::FaultStep& step : plan.timeline(horizon)) {
        Scheduled s = engine.resolve(step.kind, step.target);
        s.step = std::move(step);
        scheduled.push_back(std::move(s));
    }
    return scheduled;
}

struct RunLedger {
    EventQueue events;
    Rng rng;
    SimTime warmup_end;
    LatencyRecorder latencies;
    ThroughputMeter delivered;
    /// Arrivals and drops inside the (warmup_end, horizon] window; their
    /// ratio is the reported drop_rate (same window as completions).
    WindowedCounter offered_in_window;
    WindowedCounter drops_in_window;
    obs::Histogram latency_hist{latency_bounds_us};

    // Lifetime conservation accounting, asserted by finish():
    // generated == completed_total + sum(dropped_cause) + in_transit
    //              + the packets the engine still holds (queued or busy).
    std::uint64_t generated{0};
    std::uint64_t completed_total{0};
    std::uint64_t dropped_cause[3]{0, 0, 0};
    /// Packets between stations: in a delay, a link or a fabric transfer.
    std::uint64_t in_transit{0};

    /// Monotonic id for in-service requests (fault plans only), so a fault
    /// instant can neutralize their already-scheduled completion events.
    std::uint64_t next_serial{0};
    std::unordered_set<std::uint64_t> killed;
    std::uint64_t fault_events_applied{0};

    explicit RunLedger(const SimOptions& options)
        : rng(options.seed),
          warmup_end(options.duration * options.warmup_fraction),
          latencies(warmup_end), delivered(warmup_end),
          offered_in_window(warmup_end, options.duration),
          drops_in_window(warmup_end, options.duration)
    {
    }

    /// Fixed latency-histogram buckets (microseconds, log-spaced), the same
    /// for every run and both engines so snapshots aggregate bucket-wise.
    static inline const std::vector<double> latency_bounds_us{
        1.0,    2.0,    5.0,    10.0,   20.0,    50.0,    100.0,
        200.0,  500.0,  1000.0, 2000.0, 5000.0,  10000.0, 20000.0,
        50000.0};

    /**
     * The ledger's snapshot fields (a const RunLedger to save), for an
     * io::RecordWriter or io::RecordReader: the calendar clock, the RNG,
     * the conservation counters, the fault serials and the recorders.
     * Loading restores the clock; the engine rebuilds the pending events.
     */
    template <typename IO, typename Ledger>
    static void fields(IO& io, Ledger& l)
    {
        double now = l.events.now();
        std::uint64_t next_seq = l.events.next_seq();
        std::uint64_t executed = l.events.executed();
        std::string rng = l.rng.save_state();
        std::vector<std::uint64_t> killed(l.killed.begin(), l.killed.end());
        std::sort(killed.begin(), killed.end());
        io.field("now", now);
        io.field("next_seq", next_seq);
        io.field("executed", executed);
        io.field("rng", rng);
        io.field("generated", l.generated);
        io.field("completed_total", l.completed_total);
        io.field("dropped_cause", l.dropped_cause);
        io.field("in_transit", l.in_transit);
        io.field("next_serial", l.next_serial);
        io.field("fault_events_applied", l.fault_events_applied);
        io.field("killed", killed);
        io.record("recorders", l, [](IO& rio, Ledger& r) {
            // Window measurements, restored wholesale through each
            // recorder's restore().
            std::vector<double> samples = r.latencies.samples();
            bool sealed = r.latencies.sealed();
            double bytes = r.delivered.total().bytes();
            std::uint64_t requests = r.delivered.requests();
            std::uint64_t offered = r.offered_in_window.count();
            std::uint64_t drops = r.drops_in_window.count();
            obs::HistogramSnapshot hist{{},
                                        r.latency_hist.counts(),
                                        r.latency_hist.total(),
                                        r.latency_hist.sum()};
            rio.field("latency_samples", samples);
            rio.field("latency_sealed", sealed);
            rio.field("delivered_bytes", bytes);
            rio.field("delivered_requests", requests);
            rio.field("offered", offered);
            rio.field("drops", drops);
            rio.record("latency_hist", hist, [](auto& hio, auto& h) {
                hio.field("counts", std::span(h.counts));
                hio.field("total", h.total);
                hio.field("sum", h.sum);
            });
            if constexpr (IO::kReading) {
                r.latencies.restore(std::move(samples), sealed);
                r.delivered.restore(bytes, requests);
                r.offered_in_window.restore(offered);
                r.drops_in_window.restore(drops);
                r.latency_hist.restore(std::move(hist.counts), hist.total,
                                       hist.sum);
            }
        });
        if constexpr (IO::kReading) {
            l.events.restore_clock(now, next_seq, executed);
            l.rng.restore_state(rng);
            l.killed.clear();
            l.killed.insert(killed.begin(), killed.end());
        }
    }

    /// The watchdog as limits for one run_until over the whole run.
    static RunLimits limits(const WatchdogOptions& watchdog);

    bool in_window() const { return events.now() > warmup_end; }

    /// In-window time since @p last_change, which moves to now: how long a
    /// station's busy/occupancy level has held (0 during warmup).
    double window_dt(SimTime& last_change) const
    {
        const SimTime now = events.now();
        const SimTime from = std::max(last_change, warmup_end);
        last_change = std::max(now, warmup_end);
        return now > from ? now - from : 0.0;
    }

    /// A packet entered the device; returns its arrival ordinal.
    std::uint64_t arrive()
    {
        offered_in_window.record(events.now());
        return generated++;
    }

    /// A packet created at @p created left the device carrying @p size.
    void deliver(SimTime created, Bytes size)
    {
        ++completed_total;
        const Seconds latency{events.now() - created};
        latencies.record(events.now(), latency);
        delivered.record(events.now(), size);
        if (in_window())
            latency_hist.record(latency.micros());
    }

    /// A packet was lost to @p cause at station @p at.
    void drop(DropCause cause, Station& at)
    {
        ++dropped_cause[cause];
        drops_in_window.record(events.now());
        if (in_window())
            ++at.dropped;
    }

    /// @p st's window measurements (an empty window reports zeros).
    VertexStats measure(std::string name, const Station& st,
                        std::uint32_t engines) const
    {
        VertexStats vs;
        vs.name = std::move(name);
        const double window = events.now() - warmup_end;
        if (window > 0.0) {
            vs.utilization =
                st.area_busy / (window * static_cast<double>(engines));
            vs.mean_occupancy = st.area_occupancy / window;
        }
        vs.served = st.served;
        vs.dropped = st.dropped;
        return vs;
    }

    /**
     * Take request @p serial out of @p in_service as its completion event
     * fires. False when an engine failure already aborted it: the fault
     * instant requeued or dropped it and fixed the engine's counts, so
     * the stale completion must do nothing.
     */
    template <typename InService>
    bool retire(std::vector<InService>& in_service, std::uint64_t serial)
    {
        if (killed.erase(serial) > 0)
            return false;
        for (std::size_t i = 0; i < in_service.size(); ++i) {
            if (in_service[i].serial == serial) {
                in_service[i] = std::move(in_service.back());
                in_service.pop_back();
                break;
            }
        }
        return true;
    }

    /**
     * Close the run: fill a SimResult from the ledger and the engine's
     * @p vertex_stats, enforce packet conservation (@p queued_or_busy is
     * what the engine still holds; a violation throws std::logic_error
     * prefixed with @p engine), and publish the `sim.*` metrics plus each
     * station's `<series>.<name>.{served,dropped,utilization}` into
     * @p reg. The caller adds any series of its own, then snapshots.
     */
    SimResult finish(RunOutcome outcome, std::vector<VertexStats> vertex_stats,
                     std::uint64_t queued_or_busy, const std::string& engine,
                     const std::string& series, obs::MetricsRegistry& reg);
};

} // namespace lognic::sim

#endif // LOGNIC_SIM_RUN_LEDGER_HPP_
