#include "lognic/sim/nic_simulator.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>

#include "lognic/io/checkpoint.hpp"
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

/// Snapshot encodings: doubles and counters travel as hex bit patterns,
/// so a dump -> parse -> load round-trip is bit-exact.
io::Json
hex_d(double v)
{
    return io::Json(io::double_to_hex(v));
}

io::Json
hex_u(std::uint64_t v)
{
    return io::Json(io::u64_to_hex(v));
}

io::Json
num(double v)
{
    return io::Json(v);
}

/// A JSON array holding @p encode of every element of @p range.
template <typename Range, typename Encode>
io::Json
json_array(const Range& range, Encode encode)
{
    io::JsonArray arr;
    for (const auto& x : range)
        arr.push_back(encode(x));
    return io::Json(std::move(arr));
}

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
        fp["seed"] = hex_u(options.seed);
        fp["duration"] = hex_d(options.duration);
        fp["warmup_fraction"] = hex_d(options.warmup_fraction);
        fp["exponential_service"] = io::Json(options.exponential_service);
        fp["poisson_arrivals"] = io::Json(options.poisson_arrivals);
        fp["burst"] = io::Json(options.burst.enabled);
        fp["vertices"] = num(graph.vertex_count());
        fp["edges"] = num(graph.edge_count());
        fp["classes"] = num(traffic.classes().size());
        fp["faults"] = num(scheduled_faults.size());
        return io::Json(std::move(fp));
    }

    io::Json
    packet_to_json(const Packet& p) const
    {
        io::JsonObject o;
        o["id"] = hex_u(p.id);
        o["class"] = num(p.class_index);
        o["size"] = hex_d(p.app_size.bytes());
        o["created"] = hex_d(p.created);
        o["enqueued"] = hex_d(p.enqueued);
        o["pending_kind"] = num(p.pending_kind);
        o["pending_stage"] = num(p.pending_stage);
        o["pending_edge"] = num(p.pending_edge);
        o["pending_vertex"] = num(p.pending_vertex);
        o["pending_slot"] = num(p.pending_slot);
        o["pending_when"] = hex_d(p.pending_when);
        o["pending_seq"] = hex_u(p.pending_seq);
        o["service_start"] = hex_d(p.service_start);
        o["service_time"] = hex_d(p.service_time);
        o["serial"] = hex_u(p.serial);
        return io::Json(std::move(o));
    }

    static io::Json
    link_to_json(const LinkServer& l)
    {
        io::JsonObject o;
        o["free_at"] = hex_d(l.free_at);
        o["factor"] = hex_d(l.factor);
        return io::Json(std::move(o));
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
        io::JsonObject o;
        o["config"] = config_fingerprint();
        o["now"] = hex_d(ledger.events.now());
        o["next_seq"] = hex_u(ledger.events.next_seq());
        o["executed"] = hex_u(ledger.events.executed());
        o["rng"] = io::Json(ledger.rng.save_state());
        o["generated"] = hex_u(ledger.generated);
        o["completed_total"] = hex_u(ledger.completed_total);
        o["dropped_cause"] = json_array(ledger.dropped_cause, hex_u);
        o["in_transit"] = hex_u(ledger.in_transit);
        o["next_serial"] = hex_u(ledger.next_serial);
        o["fault_events_applied"] = hex_u(ledger.fault_events_applied);
        {
            std::vector<std::uint64_t> ks(ledger.killed.begin(),
                                          ledger.killed.end());
            std::sort(ks.begin(), ks.end());
            o["killed"] = json_array(ks, hex_u);
        }
        o["fault_seqs"] = json_array(fault_seqs, hex_u);
        {
            std::vector<StaleEvent> stale = stale_events;
            std::sort(stale.begin(), stale.end(),
                      [](const StaleEvent& a, const StaleEvent& b) {
                          return a.seq < b.seq;
                      });
            o["stale"] = json_array(stale, [](const StaleEvent& ev) {
                io::JsonObject so;
                so["when"] = hex_d(ev.when);
                so["seq"] = hex_u(ev.seq);
                so["serial"] = hex_u(ev.serial);
                return io::Json(std::move(so));
            });
        }
        {
            io::JsonObject a;
            a["pending"] = io::Json(arrival_pending);
            a["peak"] = hex_d(arrival_peak);
            a["when"] = hex_d(arrival_when);
            a["seq"] = hex_u(arrival_seq);
            o["arrival"] = io::Json(std::move(a));
        }
        o["packets"] = json_array(live_packets, [this](const auto& entry) {
            return packet_to_json(*entry.second);
        });
        o["interface_link"] = link_to_json(interface_link);
        o["memory_link"] = link_to_json(memory_link);
        o["dedicated_links"] = json_array(dedicated_links, link_to_json);
        {
            io::JsonArray arr;
            for (const VertexState& st : vertices) {
                io::JsonObject vo;
                vo["busy"] = num(st.busy);
                vo["engines_offline"] = num(st.engines_offline);
                vo["slow_factor"] = hex_d(st.slow_factor);
                vo["drop_prob"] = hex_d(st.drop_prob);
                vo["capacity_override"] = num(st.capacity_override);
                vo["rr_cursor"] = num(st.rr_cursor);
                vo["queues"] = json_array(st.queues, [](const auto& q) {
                    return json_array(
                        q, [](const Packet* p) { return hex_u(p->id); });
                });
                vo["in_service"] = json_array(
                    st.in_service, [](const VertexState::InService& e) {
                        io::JsonObject eo;
                        eo["serial"] = hex_u(e.serial);
                        eo["id"] = hex_u(e.pkt->id);
                        eo["qi"] = num(e.qi);
                        eo["slot"] = num(e.slot);
                        return io::Json(std::move(eo));
                    });
                vo["area_busy"] = hex_d(st.area_busy);
                vo["area_occupancy"] = hex_d(st.area_occupancy);
                vo["last_change"] = hex_d(st.last_change);
                vo["served"] = hex_u(st.served);
                vo["dropped"] = hex_u(st.dropped);
                arr.push_back(io::Json(std::move(vo)));
            }
            o["vertices"] = io::Json(std::move(arr));
        }
        {
            io::JsonObject r;
            r["latency_samples"] =
                json_array(ledger.latencies.samples(), hex_d);
            r["latency_sealed"] = io::Json(ledger.latencies.sealed());
            r["delivered_bytes"] = hex_d(ledger.delivered.total().bytes());
            r["delivered_requests"] = hex_u(ledger.delivered.requests());
            r["offered"] = hex_u(ledger.offered_in_window.count());
            r["drops"] = hex_u(ledger.drops_in_window.count());
            {
                io::JsonObject h;
                h["counts"] = json_array(ledger.latency_hist.counts(), hex_u);
                h["total"] = hex_u(ledger.latency_hist.total());
                h["sum"] = hex_d(ledger.latency_hist.sum());
                r["latency_hist"] = io::Json(std::move(h));
            }
            o["recorders"] = io::Json(std::move(r));
        }
        return io::Json(std::move(o));
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
        const std::string have = snap.at("config").dump(-1);
        if (want != have)
            throw std::runtime_error(
                "NicSimulator::load_state: snapshot configuration "
                "fingerprint mismatch:\n  simulator " + want
                + "\n  snapshot  " + have);

        // Field readers: hex doubles, hex counters and plain numbers, with
        // the key named in any parse error.
        auto d = [](const io::Json& o, const char* key) {
            return io::double_from_hex(o.at(key).as_string(),
                                       std::string("snapshot ") + key);
        };
        auto u = [](const io::Json& o, const char* key) {
            return io::parse_u64(o.at(key).as_string(),
                                 std::string("snapshot ") + key);
        };
        auto n = [](const io::Json& o, const char* key) {
            return o.at(key).as_number();
        };
        auto hexu = [](const io::Json& v, const char* ctx) {
            return io::parse_u64(v.as_string(), ctx);
        };

        ckpt_track = true;
        started = true;

        ledger.rng.restore_state(snap.at("rng").as_string());
        ledger.generated = u(snap, "generated");
        ledger.completed_total = u(snap, "completed_total");
        {
            const io::JsonArray& dc = snap.at("dropped_cause").as_array();
            if (dc.size() != 3)
                throw std::runtime_error(
                    "NicSimulator::load_state: malformed dropped_cause");
            for (int i = 0; i < 3; ++i)
                ledger.dropped_cause[i] = hexu(dc[i], "snapshot dropped_cause");
        }
        ledger.in_transit = u(snap, "in_transit");
        ledger.next_serial = u(snap, "next_serial");
        ledger.fault_events_applied = u(snap, "fault_events_applied");
        ledger.killed.clear();
        for (const io::Json& k : snap.at("killed").as_array())
            ledger.killed.insert(hexu(k, "snapshot killed serial"));
        fault_seqs.clear();
        for (const io::Json& s : snap.at("fault_seqs").as_array())
            fault_seqs.push_back(hexu(s, "snapshot fault seq"));
        if (faults_active && fault_seqs.size() != scheduled_faults.size())
            throw std::runtime_error(
                "NicSimulator::load_state: snapshot fault_seqs count does "
                "not match the resolved fault schedule");
        stale_events.clear();
        for (const io::Json& ev : snap.at("stale").as_array())
            stale_events.push_back(
                {d(ev, "when"), u(ev, "seq"), u(ev, "serial")});
        {
            const io::Json& a = snap.at("arrival");
            arrival_pending = a.at("pending").as_bool();
            arrival_peak = d(a, "peak");
            arrival_when = d(a, "when");
            arrival_seq = u(a, "seq");
        }

        // Packets: acquire slab slots in saved (id) order. Slab slot
        // assignment is invisible to results (nothing keys on pointer
        // values), so the restored run does not need the original slots.
        live_packets.clear();
        for (const io::Json& pj : snap.at("packets").as_array()) {
            Packet* p = packet_slab.acquire();
            p->id = u(pj, "id");
            p->class_index = static_cast<std::size_t>(n(pj, "class"));
            if (p->class_index >= traffic.classes().size())
                throw std::runtime_error(
                    "NicSimulator::load_state: packet class out of range");
            p->app_size = Bytes{d(pj, "size")};
            p->created = d(pj, "created");
            p->enqueued = d(pj, "enqueued");
            p->traced = false;
            p->pending_kind = static_cast<std::uint8_t>(n(pj, "pending_kind"));
            p->pending_stage =
                static_cast<std::uint8_t>(n(pj, "pending_stage"));
            p->pending_edge = static_cast<EdgeId>(n(pj, "pending_edge"));
            p->pending_vertex = static_cast<VertexId>(n(pj, "pending_vertex"));
            p->pending_slot = static_cast<std::size_t>(n(pj, "pending_slot"));
            p->pending_when = d(pj, "pending_when");
            p->pending_seq = u(pj, "pending_seq");
            p->service_start = d(pj, "service_start");
            p->service_time = d(pj, "service_time");
            p->serial = u(pj, "serial");
            if (p->pending_kind == 1 && p->pending_edge >= graph.edge_count())
                throw std::runtime_error(
                    "NicSimulator::load_state: packet edge out of range");
            if (p->pending_kind == 2
                && p->pending_vertex >= graph.vertex_count())
                throw std::runtime_error(
                    "NicSimulator::load_state: packet vertex out of range");
            if (!live_packets.emplace(p->id, p).second)
                throw std::runtime_error(
                    "NicSimulator::load_state: duplicate packet id");
        }
        auto find_packet = [this, &hexu](const io::Json& id) -> Packet* {
            const auto it =
                live_packets.find(hexu(id, "snapshot queued packet id"));
            if (it == live_packets.end())
                throw std::runtime_error(
                    "NicSimulator::load_state: queue references an "
                    "unknown packet id");
            return it->second;
        };

        auto load_link = [&d](LinkServer& l, const io::Json& j) {
            l.free_at = d(j, "free_at");
            l.factor = d(j, "factor");
        };
        load_link(interface_link, snap.at("interface_link"));
        load_link(memory_link, snap.at("memory_link"));
        {
            const io::JsonArray& arr = snap.at("dedicated_links").as_array();
            if (arr.size() != dedicated_links.size())
                throw std::runtime_error(
                    "NicSimulator::load_state: dedicated link count "
                    "mismatch");
            for (std::size_t i = 0; i < arr.size(); ++i)
                load_link(dedicated_links[i], arr[i]);
        }

        {
            const io::JsonArray& arr = snap.at("vertices").as_array();
            if (arr.size() != vertices.size())
                throw std::runtime_error(
                    "NicSimulator::load_state: vertex count mismatch");
            for (std::size_t v = 0; v < arr.size(); ++v) {
                VertexState& st = vertices[v];
                const io::Json& vo = arr[v];
                st.busy = static_cast<std::uint32_t>(n(vo, "busy"));
                st.engines_offline =
                    static_cast<std::uint32_t>(n(vo, "engines_offline"));
                st.slow_factor = d(vo, "slow_factor");
                st.drop_prob = d(vo, "drop_prob");
                st.capacity_override =
                    static_cast<std::uint32_t>(n(vo, "capacity_override"));
                st.rr_cursor = static_cast<std::size_t>(n(vo, "rr_cursor"));
                const io::JsonArray& queues = vo.at("queues").as_array();
                if (queues.size() != st.queues.size())
                    throw std::runtime_error(
                        "NicSimulator::load_state: queue count mismatch");
                for (std::size_t q = 0; q < queues.size(); ++q) {
                    st.queues[q].clear();
                    for (const io::Json& id : queues[q].as_array())
                        st.queues[q].push_back(find_packet(id));
                }
                st.in_service.clear();
                for (const io::Json& eo : vo.at("in_service").as_array())
                    st.in_service.push_back(
                        {u(eo, "serial"), find_packet(eo.at("id")),
                         static_cast<std::size_t>(n(eo, "qi")),
                         static_cast<std::size_t>(n(eo, "slot"))});
                st.area_busy = d(vo, "area_busy");
                st.area_occupancy = d(vo, "area_occupancy");
                st.last_change = d(vo, "last_change");
                st.served = u(vo, "served");
                st.dropped = u(vo, "dropped");
            }
        }

        {
            const io::Json& r = snap.at("recorders");
            std::vector<double> samples;
            for (const io::Json& v : r.at("latency_samples").as_array())
                samples.push_back(io::double_from_hex(
                    v.as_string(), "snapshot latency sample"));
            ledger.latencies.restore(std::move(samples),
                                     r.at("latency_sealed").as_bool());
            ledger.delivered.restore(d(r, "delivered_bytes"),
                                     u(r, "delivered_requests"));
            ledger.offered_in_window.restore(u(r, "offered"));
            ledger.drops_in_window.restore(u(r, "drops"));
            const io::Json& h = r.at("latency_hist");
            std::vector<std::uint64_t> counts;
            for (const io::Json& c : h.at("counts").as_array())
                counts.push_back(hexu(c, "snapshot histogram count"));
            ledger.latency_hist.restore(std::move(counts), u(h, "total"),
                                        d(h, "sum"));
        }

        // Rebuild the calendar: clock first, then one restore_event per
        // pending event with its original (when, seq). Dispatch order
        // depends only on (when, seq), so heap layout differences between
        // the original and restored calendars are unobservable.
        EventQueue& events = ledger.events;
        events.restore_clock(d(snap, "now"), u(snap, "next_seq"),
                             u(snap, "executed"));
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
