#include "lognic/sim/nic_simulator.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <span>
#include <stdexcept>

#include "lognic/io/record.hpp"
#include "lognic/sim/packet_slab.hpp"
#include "run_ledger.hpp"

namespace lognic::sim {

namespace {

using core::Edge;
using core::EdgeId;
using core::ExecutionGraph;
using core::HardwareModel;
using core::TrafficProfile;
using core::Vertex;
using core::VertexId;
using core::VertexKind;

/// A packet in flight. Owned by the simulator's packet slab: allocated at
/// arrival, recycled at delivery or drop; events and queues hold `Packet*`
/// (stable for the whole flight), never copies.
struct Packet {
    std::size_t class_index{0};
    Bytes app_size{Bytes{0.0}};
    SimTime created{0.0};
    /// Arrival ordinal; drives trace sampling and async-span correlation.
    std::uint64_t id{0};
    /// Set when entering a vertex queue; used for traced wait spans.
    SimTime enqueued{0.0};
    /// True when this packet carries lifecycle spans (sampled).
    bool traced{false};

    // --- checkpoint tracking (written only when ckpt_track is on) ---------
    // The calendar holds closures over this packet which cannot be
    // serialized; these fields describe the packet's single pending event
    // well enough to *reconstruct* it with its original (when, seq) pair.
    /// 0 = none (queued / being measured), 1 = transfer stage, 2 = service
    /// completion.
    std::uint8_t pending_kind{0};
    /// Next transfer stage to run (pending_kind 1).
    std::uint8_t pending_stage{0};
    EdgeId pending_edge{0};     ///< pending_kind 1
    VertexId pending_vertex{0}; ///< pending_kind 2
    std::size_t pending_slot{0};///< pending_kind 2 (traced lane; 0 here)
    SimTime pending_when{0.0};
    std::uint64_t pending_seq{0};
    SimTime service_start{0.0}; ///< pending_kind 2
    SimTime service_time{0.0};  ///< pending_kind 2
    std::uint64_t serial{0};    ///< pending_kind 2, faults active only
};

/// FIFO bandwidth server: transfers serialize, later ones wait.
struct LinkServer {
    Bandwidth bw{Bandwidth::from_gbps(0.0)};
    SimTime free_at{0.0};
    /// Fault-injected bandwidth multiplier in (0, 1]; 1.0 = healthy. Only
    /// transfers *starting* after a degrade event are reshaped — a
    /// transfer already on the wire keeps its committed completion time.
    double factor{1.0};

    /// Returns the completion time of a transfer of @p payload starting not
    /// earlier than @p now.
    SimTime occupy(SimTime now, Bytes payload)
    {
        const SimTime start = std::max(now, free_at);
        free_at = start + (payload / (bw * factor)).seconds();
        return free_at;
    }
};

/// Snapshot field lists (io/record.hpp) of a LinkServer and of a stale
/// completion event.
constexpr auto link_fields = [](auto& io, auto& l) {
    io.field("free_at", l.free_at);
    io.field("factor", l.factor);
};

constexpr auto stale_fields = [](auto& io, auto& ev) {
    io.field("when", ev.when);
    io.field("seq", ev.seq);
    io.field("serial", ev.serial);
};

/// The snapshot key of the configuration fingerprint.
constexpr const char* kConfigKey = "config";

} // namespace

void
validate(const SimOptions& options)
{
    if (options.duration <= 0.0)
        throw std::invalid_argument("NicSimulator: duration must be > 0");
    if (!(options.warmup_fraction >= 0.0) || options.warmup_fraction >= 1.0)
        throw std::invalid_argument(
            "NicSimulator: warmup_fraction must be in [0, 1), got "
            + std::to_string(options.warmup_fraction));
    if (options.burst.enabled) {
        if (!options.poisson_arrivals)
            throw std::invalid_argument(
                "NicSimulator: bursts require Poisson arrivals");
        const double on = options.burst.on.seconds();
        const double off = options.burst.off.seconds();
        if (on <= 0.0 || off <= 0.0 || options.burst.intensity < 1.0)
            throw std::invalid_argument(
                "NicSimulator: malformed burst model");
        const double p_on = on / (on + off);
        if (options.burst.intensity * p_on > 1.0 + 1e-12)
            throw std::invalid_argument(
                "NicSimulator: burst intensity exceeds the mean "
                "(intensity * on-fraction must be <= 1)");
    }
    options.faults.validate();
}

const VertexStats&
SimResult::busiest() const
{
    static const VertexStats empty{};
    const VertexStats* best = &empty;
    for (const auto& vs : vertex_stats) {
        if (vs.utilization > best->utilization)
            best = &vs;
    }
    return *best;
}

struct NicSimulator::Impl {
    const HardwareModel& hw;
    const ExecutionGraph& graph;
    const TrafficProfile traffic;
    const SimOptions options;

    RunLedger ledger;
    /// In-flight packet records; recycled rather than heap-allocated per
    /// arrival (see packet_slab.hpp for the determinism argument).
    Slab<Packet> packet_slab;

    // --- fault injection (inert when the plan is empty) ---------------------
    const bool faults_active;
    struct ScheduledFault {
        fault::FaultStep step;
        int link{-1}; ///< 0 = interface, 1 = memory, -1 = vertex
        VertexId v{0};
    };
    std::vector<ScheduledFault> scheduled_faults;
    obs::TrackId fault_track{0};

    // --- tracing (inert when trace.sink is null) ----------------------------
    const obs::TraceOptions trace_opts;
    struct VertexTracks {
        obs::TrackId queue{0};               ///< counters, waits, drops
        std::vector<obs::TrackId> engines;   ///< one lane per engine slot
        std::vector<std::uint8_t> slot_busy; ///< traced-slot allocator
    };
    std::vector<VertexTracks> tracks;

    // --- static per-vertex/per-class tables ---------------------------------

    struct VertexState : Station {
        // Static:
        std::uint32_t engines{1};
        std::uint32_t capacity{1};
        double service_scv{1.0};
        std::vector<double> service_mean; ///< per class, seconds
        std::vector<EdgeId> out;
        std::vector<double> out_weights;
        bool passthrough{false};
        Seconds overhead{0.0};
        // Queueing structure: one FIFO by default; one FIFO per in-edge
        // (round-robin served, split capacity) when the vertex asks for
        // per-input queues (Figure 2b). Queued packets are slab handles.
        std::vector<std::deque<Packet*>> queues;
        std::uint32_t per_queue_capacity{1};
        std::size_t rr_cursor{0};
        /// Queue index for each in-edge id (all 0 for the shared FIFO).
        std::vector<std::pair<EdgeId, std::size_t>> queue_of_edge;
        /// In-service requests, tracked only while a fault plan is active
        /// so a fail-stop can requeue/drop them (swap-removed: order is
        /// arbitrary but deterministic).
        struct InService {
            std::uint64_t serial{0};
            Packet* pkt{nullptr};
            std::size_t qi{0};
            std::size_t slot{0};
        };
        std::vector<InService> in_service;
    };
    std::vector<VertexState> vertices;

    LinkServer interface_link;
    LinkServer memory_link;
    std::vector<LinkServer> dedicated_links; ///< one per edge (unused if none)

    std::vector<double> class_pps_weight; ///< packet-count weights per class
    double total_pps{0.0};
    std::vector<VertexId> ingresses;
    std::vector<double> ingress_weights; ///< delta shares per ingress

    // Trace replay (optional): recorded sizes arrive in order.
    const traffic::PacketTrace* trace{nullptr};
    std::vector<std::size_t> trace_class; ///< profile class per position
    std::size_t trace_pos{0};

    // --- segmented execution / checkpoint state -----------------------------
    // All of this is inert for run(): ckpt_track stays false, so the hot
    // path pays one predictable branch per scheduling site and nothing
    // else, and run() results are bit-identical to a build without
    // checkpoint support.
    /// When true, every scheduling site records enough metadata to
    /// reconstruct its pending event (set by begin()/load_state()).
    bool ckpt_track{false};
    bool started{false};
    bool finalized{false};
    /// Outcome of the last advance() segment; kEventBudget until a segment
    /// actually finishes the run.
    RunOutcome last_outcome{RunOutcome::kEventBudget};
    /// The (at most one) pending arrival-generator event.
    bool arrival_pending{false};
    double arrival_peak{0.0};
    SimTime arrival_when{0.0};
    std::uint64_t arrival_seq{0};
    /// Calendar seq of each upfront-scheduled fault event, index-aligned
    /// with scheduled_faults; pending faults are [fault_events_applied,
    /// size) because they dispatch in index order.
    std::vector<std::uint64_t> fault_seqs;
    /// Completion events neutralized by fail_engines(): still sitting in
    /// the calendar as stale no-ops, so a restore must reconstruct them
    /// (they consume an executed-count slot when they fire).
    struct StaleEvent {
        SimTime when{0.0};
        std::uint64_t seq{0};
        std::uint64_t serial{0};
    };
    std::vector<StaleEvent> stale_events;
    /// Live packets by stable id; ordered so snapshots serialize packets
    /// deterministically.
    std::map<std::uint64_t, Packet*> live_packets;

    Impl(const HardwareModel& hw_in, const ExecutionGraph& graph_in,
         const TrafficProfile& traffic_in, SimOptions options_in)
        : hw(hw_in), graph(graph_in), traffic(traffic_in),
          options(options_in), ledger(options_in),
          faults_active(!options_in.faults.empty()),
          trace_opts(options_in.trace)
    {
        graph.validate(hw);
        sim::validate(options);

        interface_link.bw = hw.interface_bandwidth();
        memory_link.bw = hw.memory_bandwidth();
        dedicated_links.resize(graph.edge_count());
        for (EdgeId e = 0; e < graph.edge_count(); ++e) {
            if (graph.edge(e).params.dedicated_bw)
                dedicated_links[e].bw = *graph.edge(e).params.dedicated_bw;
        }

        build_vertex_tables();
        build_arrival_tables();
        scheduled_faults =
            schedule_plan(options.faults, options.duration, *this);
        if (trace_opts.sink != nullptr)
            register_tracks();

        ingresses = graph.ingress_vertices();
        ingress_weights.assign(ingresses.size(), 0.0);
        double total = 0.0;
        for (std::size_t i = 0; i < ingresses.size(); ++i) {
            for (EdgeId e : graph.out_edges(ingresses[i]))
                ingress_weights[i] += graph.edge(e).params.delta;
            total += ingress_weights[i];
        }
        if (total <= 0.0)
            ingress_weights.assign(ingresses.size(), 1.0);
    }

    void
    build_vertex_tables()
    {
        const std::size_t nclasses = traffic.classes().size();
        vertices.resize(graph.vertex_count());
        for (VertexId v = 0; v < graph.vertex_count(); ++v) {
            const Vertex& vx = graph.vertex(v);
            VertexState& st = vertices[v];
            st.out = graph.out_edges(v);
            st.out_weights.reserve(st.out.size());
            for (EdgeId e : st.out)
                st.out_weights.push_back(graph.edge(e).params.delta);
            st.overhead = vx.params.overhead;

            if (vx.kind == VertexKind::kIngress
                || vx.kind == VertexKind::kEgress) {
                st.passthrough = true;
                continue;
            }

            const auto ins = graph.in_edges(v);
            if (vx.params.per_input_queues && ins.size() > 1) {
                st.queues.resize(ins.size());
                for (std::size_t q = 0; q < ins.size(); ++q)
                    st.queue_of_edge.emplace_back(ins[q], q);
            } else {
                st.queues.resize(1);
                for (EdgeId e : ins)
                    st.queue_of_edge.emplace_back(e, 0);
            }

            st.service_mean.resize(nclasses);
            for (std::size_t c = 0; c < nclasses; ++c) {
                // Requests keep the ingress granularity (delta steers
                // traffic; it does not shrink payloads).
                const Bytes req = traffic.granularity(c);
                if (vx.kind == VertexKind::kRateLimiter) {
                    st.engines = 1;
                    st.capacity = std::max<std::uint32_t>(
                        vx.params.queue_capacity, 1);
                    st.service_mean[c] = (req / vx.rate_limit).seconds();
                } else {
                    const core::IpSpec& spec = hw.ip(vx.ip);
                    st.engines = vx.params.parallelism > 0
                        ? vx.params.parallelism
                        : spec.max_engines;
                    st.capacity = vx.params.queue_capacity > 0
                        ? vx.params.queue_capacity
                        : spec.default_queue_capacity;
                    st.service_scv = spec.service_scv;
                    // A partitioned IP (gamma < 1) time-slices its engines.
                    const double share = vx.params.partition;
                    st.service_mean[c] = spec.roofline.engine()
                                             .service_time(req)
                                             .seconds()
                        / (share * vx.params.acceleration);
                }
            }
            st.per_queue_capacity = std::max<std::uint32_t>(
                1, st.capacity
                       / static_cast<std::uint32_t>(st.queues.size()));
        }
    }

    void
    build_arrival_tables()
    {
        const auto& classes = traffic.classes();
        // The ingress engine cannot admit traffic faster than the port
        // speed, no matter what load is offered.
        const double admitted_bytes_per_sec =
            std::min(traffic.ingress_bandwidth().bytes_per_sec(),
                     hw.line_rate().bytes_per_sec());
        class_pps_weight.reserve(classes.size());
        total_pps = 0.0;
        for (const auto& c : classes) {
            // Byte weight w at size s contributes w * BW_in / s packets/s.
            const double pps =
                c.weight * admitted_bytes_per_sec / c.size.bytes();
            class_pps_weight.push_back(pps);
            total_pps += pps;
        }
        if (total_pps <= 0.0)
            throw std::invalid_argument("NicSimulator: zero arrival rate");
        // Burst-model invariants are checked by validate(SimOptions) at
        // construction, before any tables are built.
    }

    /// The vertex or shared link a fault names; throws on unknown or
    /// unusable targets (see schedule_plan).
    ScheduledFault
    resolve(fault::FaultKind kind, const std::string& target) const
    {
        ScheduledFault f;
        if (kind == fault::FaultKind::kLinkDegrade) {
            if (target == "interface")
                f.link = 0;
            else if (target == "memory")
                f.link = 1;
            else
                throw std::invalid_argument(
                    "NicSimulator: link_degrade target '" + target
                    + "' must be 'interface' or 'memory'");
            return f;
        }
        const auto vid = graph.find_vertex(target);
        if (!vid)
            throw std::invalid_argument(
                "NicSimulator: fault target '" + target
                + "' is not a vertex of graph '" + graph.name() + "'");
        if (vertices[*vid].passthrough)
            throw std::invalid_argument(
                "NicSimulator: fault target '" + target
                + "' is an ingress/egress engine; only IP and "
                  "rate-limiter vertices can fault");
        f.v = *vid;
        return f;
    }

    /// Schedule the resolved plan. Faults scheduled before the first
    /// arrival sort ahead of same-instant packet events (FIFO tie-break),
    /// so a fault "at t" is always in force for arrivals at t.
    void
    schedule_faults()
    {
        for (const ScheduledFault& f : scheduled_faults) {
            const std::uint64_t seq = ledger.events.schedule_at(
                f.step.at, [this, &f] { apply_fault(f); });
            if (ckpt_track)
                fault_seqs.push_back(seq);
        }
    }

    void
    apply_fault(const ScheduledFault& f)
    {
        ++ledger.fault_events_applied;
        if (trace_opts.sink != nullptr)
            trace_opts.sink->instant(fault_track, f.step.label,
                                     Seconds{ledger.events.now()});
        if (f.link >= 0)
            (f.link == 0 ? interface_link : memory_link).factor = f.step.value;
        else if (f.step.engines > 0)
            fail_engines(f.v, static_cast<std::uint32_t>(f.step.engines));
        else if (f.step.engines < 0)
            recover_engines(f.v, static_cast<std::uint32_t>(-f.step.engines));
        else
            vertices[f.v].set(f.step);
    }

    /**
     * Take @p count engines of @p v offline. In-service requests that no
     * longer have an engine are aborted at this instant: their scheduled
     * completion is neutralized via the killed-serial set, and the request
     * is either requeued at the head of its queue (the queue may
     * transiently exceed capacity — the request never left the device) or
     * dropped with cause engine_fail, per the plan's in-service policy.
     */
    void
    fail_engines(VertexId v, std::uint32_t count)
    {
        VertexState& st = vertices[v];
        touch(st);
        st.engines_offline = std::min(st.engines, st.engines_offline + count);
        while (st.busy > st.available(st.engines)) {
            const VertexState::InService victim = st.in_service.back();
            st.in_service.pop_back();
            ledger.killed.insert(victim.serial);
            if (ckpt_track) {
                // The victim's completion event stays in the calendar as a
                // stale no-op; remember its (when, seq) so a restored run
                // can reconstruct it (it still burns an executed slot).
                stale_events.push_back({victim.pkt->pending_when,
                                        victim.pkt->pending_seq,
                                        victim.serial});
                victim.pkt->pending_kind = 0;
            }
            --st.busy;
            if (victim.pkt->traced)
                tracks[v].slot_busy[victim.slot] = 0;
            if (options.faults.in_service_policy
                == fault::InServicePolicy::kRequeue) {
                victim.pkt->enqueued = ledger.events.now();
                st.queues[victim.qi].push_front(victim.pkt);
            } else {
                drop(victim.pkt, v, st, kDropEngineFail);
            }
        }
        trace_counters(v, st);
    }

    void
    recover_engines(VertexId v, std::uint32_t count)
    {
        VertexState& st = vertices[v];
        touch(st);
        st.engines_offline =
            count >= st.engines_offline ? 0u : st.engines_offline - count;
        trace_counters(v, st);
        try_dispatch(v);
    }

    /// One queue track plus one lane per engine for every queueing vertex.
    void
    register_tracks()
    {
        obs::TraceSink& sink = *trace_opts.sink;
        if (faults_active)
            fault_track = sink.register_track("faults");
        tracks.resize(vertices.size());
        for (VertexId v = 0; v < graph.vertex_count(); ++v) {
            const VertexState& st = vertices[v];
            if (st.passthrough)
                continue;
            VertexTracks& vt = tracks[v];
            const std::string& name = graph.vertex(v).name;
            vt.queue = sink.register_track(name);
            vt.engines.reserve(st.engines);
            for (std::uint32_t e = 0; e < st.engines; ++e)
                vt.engines.push_back(sink.register_track(
                    name + "/e" + std::to_string(e)));
            vt.slot_busy.assign(st.engines, 0);
        }
    }

    /// Total requests queued at a vertex (all of its FIFOs).
    static std::size_t
    queued_total(const VertexState& st)
    {
        std::size_t queued = 0;
        for (const auto& q : st.queues)
            queued += q.size();
        return queued;
    }

    /// Emit the vertex's queue-depth and busy-engine counter samples.
    void
    trace_counters(VertexId v, const VertexState& st)
    {
        if (trace_opts.sink == nullptr || !trace_opts.counters)
            return;
        const Seconds now{ledger.events.now()};
        const VertexTracks& vt = tracks[v];
        trace_opts.sink->counter(vt.queue, "queue_depth", now,
                                 static_cast<double>(queued_total(st)));
        trace_opts.sink->counter(vt.queue, "busy", now,
                                 static_cast<double>(st.busy));
    }

    /// Instantaneous arrival-rate multiplier under the burst model
    /// (deterministic ON/OFF cycle, Poisson within each phase).
    double
    rate_multiplier(SimTime t) const
    {
        if (!options.burst.enabled)
            return 1.0;
        const double on = options.burst.on.seconds();
        const double off = options.burst.off.seconds();
        const double phase = std::fmod(t, on + off);
        const double p_on = on / (on + off);
        if (phase < on)
            return options.burst.intensity;
        // Compensating OFF rate keeps the long-run mean at total_pps.
        return (1.0 - options.burst.intensity * p_on) / (1.0 - p_on);
    }

    // --- dynamics -------------------------------------------------------------

    /// Accumulate a vertex's busy/occupancy areas up to the current time.
    void
    touch(VertexState& st)
    {
        const double dt = ledger.window_dt(st.last_change);
        if (dt > 0.0) {
            st.area_busy += dt * static_cast<double>(st.busy);
            st.area_occupancy +=
                dt * static_cast<double>(st.busy + queued_total(st));
        }
    }

    void
    schedule_next_arrival()
    {
        // Thinning (Lewis-Shedler): sample at the peak rate and accept
        // with probability rate(t) / peak — exact for the piecewise-
        // constant burst profile, and exactly Poisson when bursts are off.
        const double peak = options.burst.enabled
            ? total_pps * options.burst.intensity
            : total_pps;
        const double gap = options.poisson_arrivals
            ? ledger.rng.exponential(1.0 / peak)
            : 1.0 / total_pps;
        const std::uint64_t seq =
            ledger.events.schedule_in(gap,
                                      [this, peak] { arrival_event(peak); });
        if (ckpt_track) {
            arrival_pending = true;
            arrival_peak = peak;
            arrival_when = ledger.events.now() + gap;
            arrival_seq = seq;
        }
    }

    /// Body of the arrival-generator event; factored out so a restored
    /// snapshot can reconstruct the pending arrival with its original
    /// (when, seq) pair.
    void
    arrival_event(double peak)
    {
        if (ckpt_track)
            arrival_pending = false;
        if (ledger.events.now() >= options.duration)
            return;
        if (options.burst.enabled
            && ledger.rng.uniform()
                > rate_multiplier(ledger.events.now()) * total_pps / peak) {
            schedule_next_arrival(); // thinned out
            return;
        }
        Packet* pkt = packet_slab.acquire();
        if (trace != nullptr) {
            pkt->class_index =
                trace_class[trace_pos % trace_class.size()];
            ++trace_pos;
        } else {
            pkt->class_index = ledger.rng.weighted_index(class_pps_weight);
        }
        pkt->app_size = traffic.classes()[pkt->class_index].size;
        pkt->created = ledger.events.now();
        pkt->id = ledger.arrive();
        pkt->traced = trace_opts.sampled(pkt->id);
        if (ckpt_track) {
            pkt->pending_kind = 0; // slab slots recycle; reset stale state
            live_packets.emplace(pkt->id, pkt);
        }
        if (pkt->traced)
            trace_opts.sink->async_begin(pkt->id, "pkt",
                                         Seconds{pkt->created});
        const std::size_t which = ingresses.size() > 1
            ? ledger.rng.weighted_index(ingress_weights)
            : 0;
        depart(pkt, ingresses[which]);
        schedule_next_arrival();
    }

    /// The packet finished at @p v (or passed through); move it on. At
    /// egress the slab slot is recycled once the record is measured.
    void
    depart(Packet* pkt, VertexId v)
    {
        VertexState& st = vertices[v];
        if (st.out.empty()) { // egress
            ledger.deliver(pkt->created, pkt->app_size);
            if (pkt->traced)
                trace_opts.sink->async_end(pkt->id, "pkt",
                                           Seconds{ledger.events.now()});
            if (ckpt_track)
                live_packets.erase(pkt->id);
            packet_slab.release(pkt);
            return;
        }
        ++ledger.in_transit; // leaves v; in an overhead delay or link transfer
        // Pick the outgoing edge by delta weights.
        std::size_t pick = 0;
        if (st.out.size() > 1) {
            double wsum = 0.0;
            for (double w : st.out_weights)
                wsum += w;
            pick = wsum > 0.0
                ? ledger.rng.weighted_index(st.out_weights)
                : static_cast<std::size_t>(
                      ledger.rng.uniform()
                      * static_cast<double>(st.out.size()));
            pick = std::min(pick, st.out.size() - 1);
        }
        const EdgeId eid = st.out[pick];

        // Overhead O_i first, then the transfer chain. Each link must be
        // occupied *at the moment the packet reaches it* — reserving a
        // link for a future instant would block other packets' transfers
        // for the whole overhead duration.
        const std::uint64_t seq =
            ledger.events.schedule_in(st.overhead.seconds(), [this, pkt, eid] {
                transfer_stage(pkt, eid, 0);
            });
        if (ckpt_track) {
            pkt->pending_kind = 1;
            pkt->pending_stage = 0;
            pkt->pending_edge = eid;
            pkt->pending_when = ledger.events.now() + st.overhead.seconds();
            pkt->pending_seq = seq;
        }
    }

    /// Run transfer stage @p stage (0 = interface, 1 = memory,
    /// 2 = dedicated link) of edge @p eid, then deliver.
    void
    transfer_stage(Packet* pkt, EdgeId eid, int stage)
    {
        const Edge& e = graph.edge(eid);
        const Bytes g_in = traffic.granularity(pkt->class_index);
        for (; stage < 3; ++stage) {
            LinkServer* link = nullptr;
            Bytes payload{0.0};
            if (stage == 0 && e.params.alpha > 0.0) {
                link = &interface_link;
                payload = Bytes{g_in.bytes() * e.params.alpha};
            } else if (stage == 1 && e.params.beta > 0.0) {
                link = &memory_link;
                payload = Bytes{g_in.bytes() * e.params.beta};
            } else if (stage == 2 && e.params.dedicated_bw) {
                link = &dedicated_links[eid];
                payload = Bytes{g_in.bytes() * e.params.delta};
            }
            if (link != nullptr) {
                const SimTime end = link->occupy(ledger.events.now(), payload);
                const std::uint64_t seq =
                    ledger.events.schedule_at(end, [this, pkt, eid, stage] {
                        transfer_stage(pkt, eid, stage + 1);
                    });
                if (ckpt_track) {
                    pkt->pending_kind = 1;
                    pkt->pending_stage =
                        static_cast<std::uint8_t>(stage + 1);
                    pkt->pending_edge = eid;
                    pkt->pending_when = end;
                    pkt->pending_seq = seq;
                }
                return;
            }
        }
        arrive(pkt, e.to, eid);
    }

    /// A packet loss at vertex @p v: account it by cause (lifetime) and in
    /// the measurement window, close the packet's trace spans, and recycle
    /// the slab slot (the caller's pointer is dead after this).
    void
    drop(Packet* pkt, VertexId v, VertexState& st, DropCause cause)
    {
        ledger.drop(cause, st);
        if (trace_opts.sink != nullptr) {
            const Seconds now{ledger.events.now()};
            trace_opts.sink->instant(tracks[v].queue, "drop", now);
            if (pkt->traced)
                trace_opts.sink->async_end(pkt->id, "pkt", now);
        }
        if (ckpt_track)
            live_packets.erase(pkt->id);
        packet_slab.release(pkt);
    }

    void
    arrive(Packet* pkt, VertexId v, EdgeId via)
    {
        // The inter-vertex hop that started in depart() ended.
        --ledger.in_transit;
        VertexState& st = vertices[v];
        if (st.passthrough) {
            depart(pkt, v);
            return;
        }
        if (faults_active && st.drop_prob > 0.0
            && ledger.rng.uniform() < st.drop_prob) {
            drop(pkt, v, st, kDropBurstLoss);
            return;
        }
        std::size_t qi = 0;
        for (const auto& [edge, index] : st.queue_of_edge) {
            if (edge == via) {
                qi = index;
                break;
            }
        }
        // A fault-injected capacity override shrinks the whole vertex
        // budget; per-input queues split the override the same way they
        // split the static capacity.
        const std::uint32_t cap =
            st.capacity_override > 0 ? st.capacity_override : st.capacity;
        if (st.queues.size() == 1) {
            // Shared FIFO: the whole capacity N bounds queue + service.
            std::size_t queued = st.queues[0].size();
            if (queued + st.busy >= cap) {
                drop(pkt, v, st, kDropOverflow);
                return;
            }
        } else {
            const std::uint32_t pq_cap = st.capacity_override > 0
                ? std::max<std::uint32_t>(
                      1, cap / static_cast<std::uint32_t>(st.queues.size()))
                : st.per_queue_capacity;
            if (st.queues[qi].size() >= pq_cap) {
                // Per-input queue full: only this input's share overflows.
                drop(pkt, v, st, kDropOverflow);
                return;
            }
        }
        touch(st);
        pkt->enqueued = ledger.events.now();
        if (ckpt_track)
            pkt->pending_kind = 0; // the transfer event just fired; queued
        st.queues[qi].push_back(pkt);
        trace_counters(v, st);
        try_dispatch(v);
    }

    void
    try_dispatch(VertexId v)
    {
        VertexState& st = vertices[v];
        auto next_queue = [&st]() -> std::deque<Packet*>* {
            // Round-robin scan starting after the last served queue.
            for (std::size_t i = 0; i < st.queues.size(); ++i) {
                const std::size_t q =
                    (st.rr_cursor + 1 + i) % st.queues.size();
                if (!st.queues[q].empty()) {
                    st.rr_cursor = q;
                    return &st.queues[q];
                }
            }
            return nullptr;
        };
        std::deque<Packet*>* queue = nullptr;
        while (st.busy < st.available(st.engines)
               && (queue = next_queue()) != nullptr) {
            touch(st);
            Packet* pkt = queue->front();
            queue->pop_front();
            ++st.busy;
            // slow_factor is exactly 1.0 when no slowdown fault is in
            // force, so the healthy path is bit-identical.
            const double mean =
                st.service_mean[pkt->class_index] * st.slow_factor;
            // exponential_service = false forces determinism everywhere;
            // otherwise each IP's own variability (SCV) governs.
            const double service = options.exponential_service
                ? ledger.rng.with_scv(mean, st.service_scv)
                : mean;
            std::size_t slot = 0;
            if (pkt->traced) {
                trace_opts.sink->span(
                    tracks[v].queue, "wait", Seconds{pkt->enqueued},
                    Seconds{ledger.events.now() - pkt->enqueued});
                // Lowest free engine lane; traced in-service packets never
                // exceed the engine count, so a lane is always free.
                auto& lanes = tracks[v].slot_busy;
                while (slot + 1 < lanes.size() && lanes[slot])
                    ++slot;
                lanes[slot] = 1;
            }
            std::uint64_t serial = 0;
            if (faults_active) {
                serial = ledger.next_serial++;
                const auto qi =
                    static_cast<std::size_t>(queue - st.queues.data());
                st.in_service.push_back({serial, pkt, qi, slot});
            }
            trace_counters(v, st);
            const SimTime start = ledger.events.now();
            const std::uint64_t seq = ledger.events.schedule_in(
                service, [this, pkt, v, slot, start, service, serial] {
                    complete_service(pkt, v, slot, start, service, serial);
                });
            if (ckpt_track) {
                pkt->pending_kind = 2;
                pkt->pending_vertex = v;
                pkt->pending_slot = slot;
                pkt->pending_when = start + service;
                pkt->pending_seq = seq;
                pkt->service_start = start;
                pkt->service_time = service;
                pkt->serial = serial;
            }
        }
    }

    /// Body of a service-completion event; factored out so a restored
    /// snapshot can reconstruct pending completions with the values the
    /// original closure captured.
    void
    complete_service(Packet* pkt, VertexId v, std::size_t slot, SimTime start,
                     SimTime service, std::uint64_t serial)
    {
        if (faults_active && !ledger.retire(vertices[v].in_service, serial)) {
            if (ckpt_track)
                erase_stale(serial);
            return;
        }
        VertexState& s2 = vertices[v];
        touch(s2);
        --s2.busy;
        ++s2.served;
        if (pkt->traced) {
            trace_opts.sink->span(tracks[v].engines[slot], "serve",
                                  Seconds{start}, Seconds{service});
            tracks[v].slot_busy[slot] = 0;
        }
        trace_counters(v, s2);
        try_dispatch(v);
        depart(pkt, v);
    }

    /// Forget the stale_events record for @p serial — its calendar event
    /// just fired, so a future snapshot must not reconstruct it.
    void
    erase_stale(std::uint64_t serial)
    {
        for (std::size_t i = 0; i < stale_events.size(); ++i) {
            if (stale_events[i].serial == serial) {
                stale_events[i] = stale_events.back();
                stale_events.pop_back();
                return;
            }
        }
    }

    /// Guard shared by begin() and load_state(): segmented execution
    /// cannot coexist with streaming traces (spans are written out, not
    /// snapshotable), trace replay, or the watchdog (per-advance() budgets
    /// subsume it, and a wall-clock abort would not be deterministic).
    void
    check_segmentable() const
    {
        if (trace_opts.sink != nullptr)
            throw std::logic_error(
                "NicSimulator: segmented execution requires tracing off");
        if (trace != nullptr)
            throw std::logic_error(
                "NicSimulator: segmented execution does not support "
                "trace replay");
        if (options.watchdog.max_events != 0
            || options.watchdog.wall_clock_seconds > 0.0)
            throw std::logic_error(
                "NicSimulator: segmented execution requires an unset "
                "watchdog (advance() budgets subsume it)");
    }

    /// Build the SimResult from the end-of-run state. Shared by run() and
    /// finalize() — reads members only, so how the run was driven (one
    /// run_until or many advance() segments) cannot leak into the result.
    SimResult
    finalize_result(RunOutcome outcome)
    {
        // Close out the per-vertex accounting at the (possibly truncated)
        // end.
        std::uint64_t queued_or_busy = 0;
        std::vector<VertexStats> stats;
        for (core::VertexId v = 0; v < graph.vertex_count(); ++v) {
            auto& st = vertices[v];
            if (st.passthrough)
                continue;
            touch(st);
            queued_or_busy += queued_total(st) + st.busy;
            stats.push_back(
                ledger.measure(graph.vertex(v).name, st, st.engines));
        }
        obs::MetricsRegistry reg;
        SimResult r = ledger.finish(outcome, std::move(stats), queued_or_busy,
                                    "NicSimulator", "vertex", reg);
        for (const VertexStats& vs : r.vertex_stats)
            reg.gauge("vertex." + vs.name + ".occupancy")
                .set(vs.mean_occupancy);
        r.metrics = reg.snapshot();
        return r;
    }

    // --- snapshot serialization --------------------------------------------

    /// The configuration facts a snapshot is only valid against. Loading
    /// into a simulator whose fingerprint differs is rejected outright —
    /// resuming "almost the same" run would silently produce garbage.
    io::Json
    config_fingerprint() const
    {
        io::JsonObject fp;
        fp["seed"] = io::u64_to_hex(options.seed);
        fp["duration"] = io::double_to_hex(options.duration);
        fp["warmup_fraction"] = io::double_to_hex(options.warmup_fraction);
        fp["exponential_service"] = options.exponential_service;
        fp["poisson_arrivals"] = options.poisson_arrivals;
        fp["burst"] = options.burst.enabled;
        fp["vertices"] = static_cast<double>(graph.vertex_count());
        fp["edges"] = static_cast<double>(graph.edge_count());
        fp["classes"] = static_cast<double>(traffic.classes().size());
        fp["faults"] = static_cast<double>(scheduled_faults.size());
        return io::Json(std::move(fp));
    }

    /**
     * The snapshot's field list, walked by save_json (Self = const Impl)
     * and load_json (Self = Impl). Packets are listed by id, and queues
     * and in-service entries name them by id; loading acquires a slab
     * slot per packet and resolves the ids. Every index a snapshot holds
     * is a bounded count, so a malformed one is refused by name before
     * anything indexes with it.
     */
    template <typename IO, typename Self>
    static void
    snapshot_fields(IO& io, Self& s)
    {
        RunLedger::fields(io, s.ledger);
        io.field("fault_seqs", s.fault_seqs);
        std::vector<StaleEvent> stale = s.stale_events;
        std::sort(stale.begin(), stale.end(),
                  [](const StaleEvent& a, const StaleEvent& b) {
                      return a.seq < b.seq;
                  });
        io.records("stale", stale, stale_fields);
        io.record("arrival", s, [](auto& aio, auto& a) {
            aio.field("pending", a.arrival_pending);
            aio.field("peak", a.arrival_peak);
            aio.field("when", a.arrival_when);
            aio.field("seq", a.arrival_seq);
        });
        std::vector<Packet> packets;
        for (const auto& entry : s.live_packets)
            packets.push_back(*entry.second);
        io.records("packets", packets, [&s](auto& pio, auto& p) {
            s.packet_fields(pio, p);
        });
        io.record("interface_link", s.interface_link, link_fields);
        io.record("memory_link", s.memory_link, link_fields);
        io.records("dedicated_links", std::span(s.dedicated_links),
                   link_fields);
        if constexpr (IO::kReading) {
            s.stale_events = std::move(stale);
            // Slab slot assignment is invisible to results (nothing keys
            // on pointer values), so restored packets need not reuse the
            // original slots.
            s.live_packets.clear();
            for (const Packet& saved : packets) {
                Packet* p = s.packet_slab.acquire();
                *p = saved;
                if (!s.live_packets.emplace(p->id, p).second)
                    throw std::runtime_error(
                        "NicSimulator::load_state: duplicate packet id");
            }
        }
        io.records("vertices", std::span(s.vertices),
                   [&s](auto& vio, auto& st) { s.vertex_fields(vio, st); });
    }

    template <typename IO, typename P>
    void
    packet_fields(IO& io, P& p) const
    {
        io.field("id", p.id);
        io.count("class", p.class_index, traffic.classes().size());
        io.field("size", p.app_size);
        io.field("created", p.created);
        io.field("enqueued", p.enqueued);
        io.count("pending_kind", p.pending_kind, 3);
        io.count("pending_stage", p.pending_stage, 4);
        io.count("pending_edge", p.pending_edge, graph.edge_count());
        io.count("pending_vertex", p.pending_vertex, graph.vertex_count());
        io.count("pending_slot", p.pending_slot,
                 vertices[p.pending_vertex].engines);
        io.field("pending_when", p.pending_when);
        io.field("pending_seq", p.pending_seq);
        io.field("service_start", p.service_start);
        io.field("service_time", p.service_time);
        io.field("serial", p.serial);
    }

    template <typename IO, typename St>
    void
    vertex_fields(IO& io, St& st) const
    {
        io.count("busy", st.busy, std::uint64_t{st.engines} + 1);
        io.count("engines_offline", st.engines_offline,
                 std::uint64_t{st.engines} + 1);
        io.field("slow_factor", st.slow_factor);
        io.field("drop_prob", st.drop_prob);
        io.count("capacity_override", st.capacity_override,
                 std::uint64_t{1} << 32);
        io.field("area_busy", st.area_busy);
        io.field("area_occupancy", st.area_occupancy);
        io.field("last_change", st.last_change);
        io.field("served", st.served);
        io.field("dropped", st.dropped);
        io.count("rr_cursor", st.rr_cursor,
                 std::max<std::size_t>(st.queues.size(), 1));
        std::vector<std::vector<std::uint64_t>> queued;
        for (const auto& q : st.queues) {
            auto& ids = queued.emplace_back();
            for (const Packet* p : q)
                ids.push_back(p->id);
        }
        io.field("queues", std::span(queued)); // one id list per queue
        if constexpr (IO::kReading) {
            for (std::size_t q = 0; q < queued.size(); ++q) {
                st.queues[q].clear();
                for (const std::uint64_t id : queued[q])
                    st.queues[q].push_back(find_packet(id));
            }
        }
        io.records("in_service", st.in_service, [&](auto& eio, auto& e) {
            in_service_fields(eio, e, st);
        });
    }

    template <typename IO, typename E>
    void
    in_service_fields(IO& io, E& e, const VertexState& st) const
    {
        std::uint64_t id = e.pkt != nullptr ? e.pkt->id : 0;
        io.field("serial", e.serial);
        io.field("id", id);
        io.count("qi", e.qi, st.queues.size());
        io.count("slot", e.slot, st.engines);
        if constexpr (IO::kReading)
            e.pkt = find_packet(id);
    }

    Packet*
    find_packet(std::uint64_t id) const
    {
        const auto it = live_packets.find(id);
        if (it == live_packets.end())
            throw std::runtime_error(
                "NicSimulator::load_state: snapshot references an unknown "
                "packet id");
        return it->second;
    }

    io::Json
    save_json() const
    {
        if (!started)
            throw std::logic_error(
                "NicSimulator::save_state: begin() not called");
        if (finalized)
            throw std::logic_error(
                "NicSimulator::save_state: already finalized");
        io::RecordWriter w;
        w.field(kConfigKey, config_fingerprint());
        snapshot_fields(w, *this);
        return w.take();
    }

    void
    load_json(const io::Json& snap)
    {
        if (started)
            throw std::logic_error(
                "NicSimulator::load_state: simulator already started "
                "(load into a fresh instance)");
        check_segmentable();
        const std::string want = config_fingerprint().dump(-1);
        const std::string have = snap.at(kConfigKey).dump(-1);
        if (want != have)
            throw std::runtime_error(
                "NicSimulator::load_state: snapshot configuration "
                "fingerprint mismatch:\n  simulator " + want
                + "\n  snapshot  " + have);

        ckpt_track = true;
        started = true;
        io::RecordReader r(snap, "snapshot");
        snapshot_fields(r, *this);
        if (faults_active && fault_seqs.size() != scheduled_faults.size())
            throw std::runtime_error(
                "NicSimulator::load_state: snapshot fault_seqs count does "
                "not match the resolved fault schedule");

        // Rebuild the calendar (RunLedger::fields restored its clock): one
        // restore_event per pending event with its original (when, seq).
        // Dispatch order depends only on (when, seq), so heap layout
        // differences between the original and restored calendars are
        // unobservable.
        EventQueue& events = ledger.events;
        if (arrival_pending) {
            const double peak = arrival_peak;
            events.restore_event(arrival_when, arrival_seq,
                                 [this, peak] { arrival_event(peak); });
        }
        for (auto i = static_cast<std::size_t>(ledger.fault_events_applied);
             i < scheduled_faults.size(); ++i) {
            events.restore_event(scheduled_faults[i].step.at, fault_seqs[i],
                                 [this, i] {
                                     apply_fault(scheduled_faults[i]);
                                 });
        }
        for (const auto& [id, pkt] : live_packets) {
            if (pkt->pending_kind == 1) {
                Packet* p = pkt;
                const EdgeId eid = p->pending_edge;
                const int stage = p->pending_stage;
                events.restore_event(p->pending_when, p->pending_seq,
                                     [this, p, eid, stage] {
                                         transfer_stage(p, eid, stage);
                                     });
            } else if (pkt->pending_kind == 2) {
                Packet* p = pkt;
                const VertexId v = p->pending_vertex;
                const std::size_t slot = p->pending_slot;
                const SimTime start = p->service_start;
                const SimTime service = p->service_time;
                const std::uint64_t serial = p->serial;
                events.restore_event(
                    p->pending_when, p->pending_seq,
                    [this, p, v, slot, start, service, serial] {
                        complete_service(p, v, slot, start, service,
                                         serial);
                    });
            }
        }
        for (const StaleEvent& ev : stale_events) {
            const std::uint64_t serial = ev.serial;
            // The killed request's packet may be long gone (requeued,
            // delivered, even recycled); the stale no-op must only burn
            // its executed-count slot and clear the bookkeeping.
            events.restore_event(ev.when, ev.seq, [this, serial] {
                ledger.killed.erase(serial);
                erase_stale(serial);
            });
        }
    }
};

NicSimulator::NicSimulator(const HardwareModel& hw,
                           const ExecutionGraph& graph,
                           const TrafficProfile& traffic, SimOptions options)
    : impl_(std::make_unique<Impl>(hw, graph, traffic, options))
{
}

NicSimulator::~NicSimulator() = default;

SimResult
NicSimulator::run()
{
    Impl& s = *impl_;
    if (s.started)
        throw std::logic_error(
            "NicSimulator::run: run()/begin()/load_state() already called");
    s.started = true;
    if (s.faults_active)
        s.schedule_faults();
    s.schedule_next_arrival();

    const RunOutcome outcome = s.ledger.events.run_until(
        s.options.duration, RunLedger::limits(s.options.watchdog));
    s.finalized = true;
    return s.finalize_result(outcome);
}

void
NicSimulator::begin()
{
    Impl& s = *impl_;
    if (s.started)
        throw std::logic_error(
            "NicSimulator::begin: run()/begin()/load_state() already "
            "called");
    s.check_segmentable();
    s.ckpt_track = true;
    s.started = true;
    if (s.faults_active)
        s.schedule_faults();
    s.schedule_next_arrival();
}

bool
NicSimulator::advance(std::uint64_t max_events)
{
    Impl& s = *impl_;
    if (!s.started)
        throw std::logic_error(
            "NicSimulator::advance: begin()/load_state() not called");
    if (s.finalized)
        throw std::logic_error("NicSimulator::advance: already finalized");
    if (max_events == 0)
        throw std::invalid_argument(
            "NicSimulator::advance: max_events must be > 0");
    // The budget is per-call, so driving the run in segments executes the
    // exact event sequence one unlimited run_until would: the outcome of
    // the final segment is kDrained/kHorizon, exactly as run() sees.
    RunLimits limits;
    limits.max_events = max_events;
    s.last_outcome = s.ledger.events.run_until(s.options.duration, limits);
    return s.last_outcome != RunOutcome::kEventBudget;
}

io::Json
NicSimulator::save_state() const
{
    return impl_->save_json();
}

void
NicSimulator::load_state(const io::Json& snapshot)
{
    impl_->load_json(snapshot);
}

SimResult
NicSimulator::finalize()
{
    Impl& s = *impl_;
    if (!s.started)
        throw std::logic_error(
            "NicSimulator::finalize: begin()/load_state() not called");
    if (s.finalized)
        throw std::logic_error("NicSimulator::finalize: already finalized");
    if (s.last_outcome == RunOutcome::kEventBudget)
        throw std::logic_error(
            "NicSimulator::finalize: run not finished (advance() has not "
            "returned true)");
    s.finalized = true;
    return s.finalize_result(s.last_outcome);
}

std::vector<obs::VertexObservation>
observations(const SimResult& result)
{
    std::vector<obs::VertexObservation> out;
    out.reserve(result.vertex_stats.size());
    for (const VertexStats& vs : result.vertex_stats) {
        obs::VertexObservation o;
        o.name = vs.name;
        o.utilization = vs.utilization;
        o.mean_occupancy = vs.mean_occupancy;
        o.served = vs.served;
        o.dropped = vs.dropped;
        out.push_back(std::move(o));
    }
    return out;
}

SimResult
simulate(const core::HardwareModel& hw, const core::ExecutionGraph& graph,
         const core::TrafficProfile& traffic, SimOptions options)
{
    NicSimulator sim(hw, graph, traffic, options);
    return sim.run();
}

SimResult
simulate_trace(const core::HardwareModel& hw,
               const core::ExecutionGraph& graph,
               const traffic::PacketTrace& trace, SimOptions options)
{
    // Service-time tables come from the trace's size histogram; arrivals
    // then replay the recorded order at the recorded mean rate.
    options.poisson_arrivals = trace.poisson;
    const core::TrafficProfile profile = traffic::histogram_profile(trace);
    NicSimulator sim(hw, graph, profile, options);
    auto& impl = *sim.impl_;
    impl.trace = &trace;
    impl.trace_class.reserve(trace.sizes.size());
    for (Bytes s : trace.sizes) {
        std::size_t ci = 0;
        for (std::size_t c = 0; c < profile.classes().size(); ++c) {
            if (profile.classes()[c].size.bytes() == s.bytes()) {
                ci = c;
                break;
            }
        }
        impl.trace_class.push_back(ci);
    }
    return sim.run();
}

} // namespace lognic::sim
