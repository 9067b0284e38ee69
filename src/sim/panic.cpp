#include "lognic/sim/panic.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <stdexcept>

#include "lognic/sim/packet_slab.hpp"
#include "run_ledger.hpp"

namespace lognic::sim {

namespace {

/// Slab-owned in-flight record; queues and events hold stable `Packet*`.
struct Packet {
    std::size_t class_index{0};
    Bytes size{Bytes{0.0}};
    SimTime created{0.0};
    std::size_t chain{0};
    std::size_t stage{0}; ///< index into the chain's unit list
    std::uint64_t id{0};
    bool traced{false};
};

struct UnitState : Station {
    std::uint32_t credits_free{0};
    std::deque<Packet*> pending; ///< held at the central scheduler
    std::deque<Packet*> buffer;  ///< on-unit, waiting for an engine
    /// In-service requests, tracked only while a fault plan is active.
    struct InService {
        std::uint64_t serial{0};
        Packet* pkt{nullptr};
    };
    std::vector<InService> in_service;
};

struct PanicSim {
    const PanicConfig& config;
    const core::TrafficProfile& traffic;
    const SimOptions& options;

    RunLedger ledger;
    /// In-flight packet records, recycled instead of per-arrival heap
    /// allocation (see packet_slab.hpp).
    Slab<Packet> packet_slab;

    // Fault injection (inert when the plan is empty).
    const bool faults_active;
    double fabric_factor{1.0};
    struct ScheduledFault {
        fault::FaultStep step;
        bool fabric{false}; ///< link_degrade on the switching fabric
        std::size_t unit{0};
    };
    std::vector<ScheduledFault> scheduled_faults;
    obs::TrackId fault_track{0};

    // Tracing (inert when trace_opts.sink is null): one track per unit
    // carrying pending/credit counters, serve spans, and drop instants.
    const obs::TraceOptions trace_opts;
    std::vector<obs::TrackId> unit_tracks;

    std::vector<UnitState> units;
    std::vector<double> chain_weights;
    std::vector<double> class_pps_weight;
    double total_pps{0.0};

    // The switching fabric is a crossbar: each unit's ingress port (and
    // the TX port) has the full fabric bandwidth; only same-port transfers
    // serialize.
    struct LinkFree {
        SimTime free_at{0.0};
    };
    std::vector<LinkFree> fabric_ports;

    PanicSim(const PanicConfig& cfg, const core::TrafficProfile& tp,
             const SimOptions& opts)
        : config(cfg), traffic(tp), options(opts), ledger(opts),
          faults_active(!opts.faults.empty()), trace_opts(opts.trace)
    {
        validate(options);
        auto require = [](bool ok, const std::string& what) {
            if (!ok)
                throw std::invalid_argument("simulate_panic: " + what);
        };
        require(!config.units.empty() && !config.chains.empty(),
                "empty config");
        const double fabric = config.fabric_bw.bytes_per_sec();
        require(std::isfinite(fabric) && fabric > 0.0,
                "fabric_bw must be finite and > 0");
        for (const auto& [field, delay] :
             {std::pair{"hop_latency", config.hop_latency},
              std::pair{"rmt_latency", config.rmt_latency}})
            require(std::isfinite(delay.seconds()) && delay.seconds() >= 0.0,
                    std::string(field) + " must be finite and >= 0");
        for (const auto& chain : config.chains) {
            require(!chain.units.empty(), "empty chain");
            for (std::size_t u : chain.units)
                require(u < config.units.size(),
                        "chain references unknown unit");
            chain_weights.push_back(chain.weight);
        }
        units.resize(config.units.size());
        for (std::size_t u = 0; u < config.units.size(); ++u) {
            require(config.units[u].credits > 0,
                    "unit needs at least one credit");
            require(config.units[u].parallelism > 0,
                    "unit '" + unit_name(u) + "' needs parallelism >= 1");
            units[u].credits_free = config.units[u].credits;
        }
        for (const auto& c : traffic.classes()) {
            const double pps = c.weight
                * traffic.ingress_bandwidth().bytes_per_sec()
                / c.size.bytes();
            class_pps_weight.push_back(pps);
            total_pps += pps;
        }
        fabric_ports.resize(config.units.size() + 1); // +1: the TX port
        scheduled_faults =
            schedule_plan(options.faults, options.duration, *this);
        if (trace_opts.sink != nullptr) {
            if (faults_active)
                fault_track = trace_opts.sink->register_track("faults");
            unit_tracks.reserve(config.units.size());
            for (std::size_t u = 0; u < config.units.size(); ++u)
                unit_tracks.push_back(
                    trace_opts.sink->register_track(unit_name(u)));
        }
    }

    std::string
    unit_name(std::size_t u) const
    {
        const std::string& name = config.units[u].name;
        return name.empty() ? "unit" + std::to_string(u) : name;
    }

    /// The unit (or the fabric) a fault names; throws on unknown targets.
    ScheduledFault
    resolve(fault::FaultKind kind, const std::string& target) const
    {
        ScheduledFault f;
        if (kind == fault::FaultKind::kLinkDegrade) {
            if (target != "fabric")
                throw std::invalid_argument(
                    "simulate_panic: link_degrade target '" + target
                    + "' must be 'fabric'");
            f.fabric = true;
            return f;
        }
        for (f.unit = 0; f.unit < config.units.size(); ++f.unit) {
            if (unit_name(f.unit) == target)
                return f;
        }
        throw std::invalid_argument(
            "simulate_panic: fault target '" + target
            + "' is not a PANIC unit (and not the reserved link 'fabric')");
    }

    void
    apply_fault(const ScheduledFault& f)
    {
        ++ledger.fault_events_applied;
        if (trace_opts.sink != nullptr)
            trace_opts.sink->instant(fault_track, f.step.label,
                                     Seconds{ledger.events.now()});
        const fault::FaultStep& step = f.step;
        if (f.fabric)
            fabric_factor = step.value;
        else if (step.engines > 0)
            fail_engines(f.unit, static_cast<std::uint32_t>(step.engines));
        else if (step.engines < 0)
            recover_engines(f.unit, static_cast<std::uint32_t>(-step.engines));
        else
            units[f.unit].set(step);
    }

    /**
     * Take engines of unit @p u offline, aborting in-service requests
     * that lost their engine. Requeued requests go back to the head of
     * the unit buffer and keep their credit (buffered packets own
     * credits); dropped ones return the credit after the usual one-hop
     * delay, exactly like a served packet would.
     */
    void
    fail_engines(std::size_t u, std::uint32_t count)
    {
        UnitState& st = units[u];
        touch(st);
        st.engines_offline = std::min(config.units[u].parallelism,
                                      st.engines_offline + count);
        while (st.busy > st.available(config.units[u].parallelism)) {
            const UnitState::InService victim = st.in_service.back();
            st.in_service.pop_back();
            ledger.killed.insert(victim.serial);
            --st.busy;
            if (options.faults.in_service_policy
                == fault::InServicePolicy::kRequeue) {
                st.buffer.push_front(victim.pkt);
            } else {
                drop_packet(victim.pkt, u, kDropEngineFail);
                return_credit(u);
            }
        }
        trace_counters(u);
    }

    void
    recover_engines(std::size_t u, std::uint32_t count)
    {
        UnitState& st = units[u];
        touch(st);
        st.engines_offline =
            count >= st.engines_offline ? 0u : st.engines_offline - count;
        trace_counters(u);
        try_serve(u);
    }

    /// The unit's credit returns to the scheduler after one fabric hop.
    void
    return_credit(std::size_t u)
    {
        ledger.events.schedule_in(config.hop_latency.seconds(), [this, u] {
            ++units[u].credits_free;
            trace_counters(u);
            try_dispatch(u);
        });
    }

    /// Account a lost packet, close its trace spans, and recycle the slab
    /// slot (the caller's pointer is dead after this).
    void
    drop_packet(Packet* pkt, std::size_t u, DropCause cause)
    {
        ledger.drop(cause, units[u]);
        if (trace_opts.sink != nullptr) {
            const Seconds now{ledger.events.now()};
            trace_opts.sink->instant(unit_tracks[u], "drop", now);
            if (pkt->traced)
                trace_opts.sink->async_end(pkt->id, "pkt", now);
        }
        packet_slab.release(pkt);
    }

    /// Accumulate a unit's busy-engine area up to the current time.
    void
    touch(UnitState& st)
    {
        const double dt = ledger.window_dt(st.last_change);
        if (dt > 0.0)
            st.area_busy += dt * static_cast<double>(st.busy);
    }

    /// Emit the unit's scheduler/credit counter samples.
    void
    trace_counters(std::size_t u)
    {
        if (trace_opts.sink == nullptr || !trace_opts.counters)
            return;
        const UnitState& st = units[u];
        const Seconds now{ledger.events.now()};
        const obs::TrackId t = unit_tracks[u];
        trace_opts.sink->counter(t, "pending", now,
                                 static_cast<double>(st.pending.size()));
        trace_opts.sink->counter(t, "credits_free", now,
                                 static_cast<double>(st.credits_free));
        trace_opts.sink->counter(t, "busy", now,
                                 static_cast<double>(st.busy));
    }

    SimTime
    fabric_transfer(Bytes payload, std::size_t port)
    {
        LinkFree& p = fabric_ports[port];
        const SimTime start = std::max(ledger.events.now(), p.free_at);
        // fabric_factor is exactly 1.0 unless a link_degrade fault is in
        // force, keeping the healthy path bit-identical.
        p.free_at =
            start + (payload / (config.fabric_bw * fabric_factor)).seconds();
        return p.free_at + config.hop_latency.seconds();
    }

    void
    schedule_next_arrival()
    {
        const double gap = options.poisson_arrivals
            ? ledger.rng.exponential(1.0 / total_pps)
            : 1.0 / total_pps;
        ledger.events.schedule_in(gap, [this] {
            if (ledger.events.now() >= options.duration)
                return;
            Packet* pkt = packet_slab.acquire();
            pkt->class_index = ledger.rng.weighted_index(class_pps_weight);
            pkt->size = traffic.classes()[pkt->class_index].size;
            pkt->created = ledger.events.now();
            pkt->chain = ledger.rng.weighted_index(chain_weights);
            pkt->id = ledger.arrive();
            pkt->traced = trace_opts.sampled(pkt->id);
            if (pkt->traced)
                trace_opts.sink->async_begin(pkt->id, "pkt",
                                             Seconds{pkt->created});
            // RMT parse, then hand the packet to the scheduler.
            ++ledger.in_transit;
            ledger.events.schedule_in(config.rmt_latency.seconds(),
                                      [this, pkt] {
                                          --ledger.in_transit;
                                          enqueue_at_scheduler(pkt);
                                      });
            schedule_next_arrival();
        });
    }

    void
    enqueue_at_scheduler(Packet* pkt)
    {
        const std::size_t u = config.chains[pkt->chain].units[pkt->stage];
        UnitState& st = units[u];
        if (faults_active && st.drop_prob > 0.0
            && ledger.rng.uniform() < st.drop_prob) {
            drop_packet(pkt, u, kDropBurstLoss);
            return;
        }
        const std::uint32_t cap = st.capacity_override > 0
            ? st.capacity_override
            : config.scheduler_queue_capacity;
        if (pkt->stage == 0 && st.pending.size() >= cap) {
            // The central packet buffer is full: shed new arrivals.
            // Mid-chain packets are never shed (they already own buffering).
            drop_packet(pkt, u, kDropOverflow);
            return;
        }
        st.pending.push_back(pkt);
        trace_counters(u);
        try_dispatch(u);
    }

    void
    try_dispatch(std::size_t u)
    {
        UnitState& st = units[u];
        while (st.credits_free > 0 && !st.pending.empty()) {
            Packet* pkt = st.pending.front();
            st.pending.pop_front();
            --st.credits_free;
            trace_counters(u);
            ++ledger.in_transit;
            const SimTime arrive = fabric_transfer(pkt->size, u);
            ledger.events.schedule_at(arrive, [this, pkt, u] {
                --ledger.in_transit;
                units[u].buffer.push_back(pkt);
                try_serve(u);
            });
        }
    }

    void
    try_serve(std::size_t u)
    {
        UnitState& st = units[u];
        const PanicUnit& spec = config.units[u];
        while (st.busy < st.available(spec.parallelism)
               && !st.buffer.empty()) {
            Packet* pkt = st.buffer.front();
            st.buffer.pop_front();
            touch(st);
            ++st.busy;
            trace_counters(u);
            const double mean =
                spec.service.service_time(pkt->size).seconds()
                * st.slow_factor;
            const double service = options.exponential_service
                ? ledger.rng.exponential(mean)
                : mean;
            std::uint64_t serial = 0;
            if (faults_active) {
                serial = ledger.next_serial++;
                st.in_service.push_back({serial, pkt});
            }
            const SimTime start = ledger.events.now();
            ledger.events.schedule_in(service, [this, pkt, u, start, service,
                                                serial] {
                if (faults_active
                    && !ledger.retire(units[u].in_service, serial))
                    return;
                UnitState& s2 = units[u];
                touch(s2);
                --s2.busy;
                ++s2.served;
                if (pkt->traced)
                    trace_opts.sink->span(unit_tracks[u], "serve",
                                          Seconds{start}, Seconds{service});
                trace_counters(u);
                try_serve(u);
                return_credit(u);
                advance(pkt);
            });
        }
    }

    void
    advance(Packet* pkt)
    {
        ++pkt->stage;
        if (pkt->stage < config.chains[pkt->chain].units.size()) {
            enqueue_at_scheduler(pkt);
            return;
        }
        // Egress: one last fabric traversal to the TX pipeline; the slab
        // slot is recycled once the completion is measured.
        ++ledger.in_transit;
        const SimTime out = fabric_transfer(pkt->size, config.units.size());
        ledger.events.schedule_at(out, [this, pkt] {
            --ledger.in_transit;
            ledger.deliver(pkt->created, pkt->size);
            if (pkt->traced)
                trace_opts.sink->async_end(pkt->id, "pkt",
                                           Seconds{ledger.events.now()});
            packet_slab.release(pkt);
        });
    }

    SimResult
    run()
    {
        // Faults go on the calendar ahead of the first arrival, so a fault
        // "at t" is in force for arrivals at t (FIFO tie-break).
        for (const ScheduledFault& f : scheduled_faults)
            ledger.events.schedule_at(f.step.at,
                                      [this, &f] { apply_fault(f); });
        schedule_next_arrival();
        const RunOutcome outcome = ledger.events.run_until(
            options.duration, RunLedger::limits(options.watchdog));

        std::uint64_t queued_or_busy = 0;
        std::vector<VertexStats> stats;
        for (std::size_t u = 0; u < units.size(); ++u) {
            UnitState& st = units[u];
            touch(st);
            queued_or_busy += st.pending.size() + st.buffer.size() + st.busy;
            stats.push_back(ledger.measure(unit_name(u), st,
                                           config.units[u].parallelism));
        }
        obs::MetricsRegistry reg;
        SimResult r = ledger.finish(outcome, std::move(stats), queued_or_busy,
                                    "simulate_panic", "unit", reg);
        r.metrics = reg.snapshot();
        return r;
    }
};

} // namespace

SimResult
simulate_panic(const PanicConfig& config, const core::TrafficProfile& traffic,
               SimOptions options)
{
    return PanicSim(config, traffic, options).run();
}

Bandwidth
panic_credit_capacity(const PanicUnit& unit, Bytes request,
                      const PanicConfig& config)
{
    const double service = unit.service.service_time(request).seconds();
    const double rtt = 2.0 * config.hop_latency.seconds()
        + (request / config.fabric_bw).seconds();
    const double window_bytes_per_sec =
        static_cast<double>(unit.credits) * request.bytes() / (service + rtt);
    const Bandwidth compute = unit.service.throughput(request)
        * static_cast<double>(unit.parallelism);
    return std::min(compute,
                    Bandwidth::from_bytes_per_sec(window_bytes_per_sec));
}

} // namespace lognic::sim
