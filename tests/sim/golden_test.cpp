/**
 * @file
 * Byte-identity fixture for both DES engines. Every case below renders a
 * run (or a trace, a snapshot, a fault-adjusted model) to bytes and
 * compares them with the file of the same name in tests/sim/golden/, so
 * a refactor of the simulators' shared harness — fault timeline, run
 * ledger, result finalizer — cannot move a single bit of their output
 * unnoticed. See tests/sim/golden/README.md for how the files were made.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "../key_deletion.hpp"
#include "../test_helpers.hpp"
#include "lognic/apps/inline_accel.hpp"
#include "lognic/apps/panic_models.hpp"
#include "lognic/ckpt/journal.hpp"
#include "lognic/devices/panic_proto.hpp"
#include "lognic/fault/degradation.hpp"
#include "lognic/io/serialize.hpp"
#include "lognic/obs/trace.hpp"
#include "lognic/sim/nic_simulator.hpp"
#include "lognic/sim/panic.hpp"
#include "lognic/traffic/profiles.hpp"

namespace lognic::sim {
namespace {

using fault::FaultEvent;
using fault::FaultKind;
using fault::FaultPlan;
using fault::InServicePolicy;

std::string
read_golden(const std::string& name)
{
    std::ifstream in(std::string(LOGNIC_SIM_GOLDEN_DIR) + "/" + name,
                     std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

std::string
render(const SimResult& r)
{
    return ckpt::sim_result_to_json(r).dump(-1);
}

FaultEvent
event(FaultKind kind, double at, const std::string& target,
      double duration = 0.0)
{
    FaultEvent e;
    e.kind = kind;
    e.at = at;
    e.target = target;
    e.duration = duration;
    return e;
}

/**
 * Every fault kind, windowed and permanent, with times as fractions of
 * @p horizon: @p a and @p b are the two fault targets, @p link a shared
 * link name. The last two events reach past the horizon (one start, one
 * window end), so the timeline's horizon cut is pinned too.
 */
FaultPlan
all_kinds_plan(double horizon, const std::string& a, const std::string& b,
               const std::string& link, const std::string& link2,
               InServicePolicy policy)
{
    const double T = horizon;
    FaultPlan p;
    p.in_service_policy = policy;
    auto outage = event(FaultKind::kEngineFail, 0.15 * T, b, 0.3 * T);
    outage.count = 2; // every engine of b: in-service requests are hit
    p.events.push_back(outage);
    p.events.push_back(event(FaultKind::kEngineFail, 0.25 * T, a));
    p.events.push_back(event(FaultKind::kEngineRecover, 0.65 * T, a));
    p.events.push_back(event(FaultKind::kEngineRecover, 0.7 * T, b, 0.1 * T));
    auto slow = event(FaultKind::kSlowdown, 0.3 * T, a, 0.15 * T);
    slow.factor = 2.0;
    p.events.push_back(slow);
    auto slow2 = event(FaultKind::kSlowdown, 0.5 * T, b);
    slow2.factor = 1.5;
    p.events.push_back(slow2);
    auto degrade = event(FaultKind::kLinkDegrade, 0.15 * T, link, 0.3 * T);
    degrade.factor = 0.5;
    p.events.push_back(degrade);
    auto degrade2 = event(FaultKind::kLinkDegrade, 0.55 * T, link2);
    degrade2.factor = 0.7;
    p.events.push_back(degrade2);
    auto burst = event(FaultKind::kDropBurst, 0.4 * T, b, 0.15 * T);
    burst.probability = 0.3;
    p.events.push_back(burst);
    auto burst2 = event(FaultKind::kDropBurst, 0.8 * T, a);
    burst2.probability = 0.05;
    p.events.push_back(burst2);
    auto cap = event(FaultKind::kQueueCapacity, 0.3 * T, a, 0.25 * T);
    cap.capacity = 4;
    p.events.push_back(cap);
    auto cap2 = event(FaultKind::kQueueCapacity, 0.85 * T, b);
    cap2.capacity = 2;
    p.events.push_back(cap2);
    auto late_slow = event(FaultKind::kSlowdown, 0.9 * T, b, T);
    late_slow.factor = 3.0;
    p.events.push_back(late_slow);
    p.events.push_back(event(FaultKind::kEngineFail, 1.5 * T, a));
    return p;
}

// --- NicSimulator scenarios ---------------------------------------------------

/// One self-contained NicSimulator setup (owns what the simulator borrows).
struct NicCase {
    core::HardwareModel hw;
    core::ExecutionGraph graph;
    core::TrafficProfile traffic;
    SimOptions options;
};

/// ingress -(interface)-> cores -(memory)-> accel -> egress: both shared
/// links carry traffic, so link faults on either one show.
core::ExecutionGraph
two_link_graph(const core::HardwareModel& hw)
{
    core::ExecutionGraph g("two-link");
    const auto in = g.add_ingress();
    const auto out = g.add_egress();
    const auto v1 = g.add_ip_vertex("cores", *hw.find_ip("cores"));
    const auto v2 = g.add_ip_vertex("accel", *hw.find_ip("accel"));
    g.add_edge(in, v1, core::EdgeParams{1.0, 1.0, 0.0, {}});
    g.add_edge(v1, v2, core::EdgeParams{1.0, 0.0, 1.0, {}});
    g.add_edge(v2, out);
    return g;
}

NicCase
nic_faulted(double horizon, InServicePolicy policy)
{
    auto hw = test::small_nic();
    auto graph = two_link_graph(hw);
    NicCase c{hw, std::move(graph), test::mtu_traffic(20.0), {}};
    c.options.duration = horizon;
    c.options.seed = 23;
    c.options.faults = all_kinds_plan(horizon, "cores", "accel", "memory",
                                      "interface", policy);
    return c;
}

NicCase
nic_fig10_point()
{
    const auto sc = apps::make_inline_accel(devices::LiquidIoKernel::kCrc, 16);
    NicCase c{sc.hw, sc.graph,
              core::TrafficProfile::fixed(Bytes{1500.0},
                                          Bandwidth::from_gbps(25.0)),
              {}};
    c.options.duration = 0.008;
    c.options.seed = 42;
    return c;
}

NicCase
nic_burst()
{
    auto hw = test::small_nic();
    auto graph = test::single_stage_graph(hw);
    NicCase c{hw, std::move(graph), test::mtu_traffic(12.0), {}};
    c.options.duration = 0.004;
    c.options.seed = 5;
    c.options.burst.enabled = true;
    return c;
}

/// Truncated past a short warmup, so the partial statistics are nonzero.
NicCase
nic_truncated()
{
    NicCase c = nic_fig10_point();
    c.options.warmup_fraction = 0.01;
    c.options.watchdog.max_events = 20000;
    return c;
}

std::string
run_nic(const NicCase& c)
{
    return render(simulate(c.hw, c.graph, c.traffic, c.options));
}

std::string
trace_nic(NicCase c)
{
    obs::ChromeTraceWriter writer;
    c.options.trace.sink = &writer;
    c.options.trace.sample_every = 16;
    (void)simulate(c.hw, c.graph, c.traffic, c.options);
    return writer.dump();
}

/// Events into the faulted requeue run where the snapshot is taken: past
/// the first fault instants, inside several open windows.
constexpr std::uint64_t kSnapshotEvents = 30000;

std::string
nic_snapshot()
{
    const NicCase c = nic_faulted(0.006, InServicePolicy::kRequeue);
    NicSimulator sim(c.hw, c.graph, c.traffic, c.options);
    sim.begin();
    if (sim.advance(kSnapshotEvents))
        return "run finished before the snapshot point";
    return sim.save_state().dump(-1);
}

// --- PanicSim scenarios -------------------------------------------------------

struct PanicCase {
    PanicConfig config;
    core::TrafficProfile traffic;
    SimOptions options;
};

/// sim_core_bench's `panic_chain` workload at a fifth of its horizon (its
/// 16M events would dominate the sanitizer builds' test time).
PanicCase
panic_chain()
{
    PanicCase c{apps::make_panic_pipelined_chain(8),
                traffic::panic_profile(1, Bandwidth::from_gbps(90.0)), {}};
    c.options.duration = 0.004;
    c.options.seed = 17;
    c.options.exponential_service = false;
    return c;
}

PanicCase
panic_faulted(double horizon, InServicePolicy policy)
{
    PanicConfig cfg = devices::panic_defaults();
    cfg.units.push_back(devices::panic_unit(
        "crypto", Seconds::from_nanos(120.0), Bandwidth::from_gbps(100.0), 4,
        8));
    cfg.units.push_back(devices::panic_unit(
        "compress", Seconds::from_nanos(200.0), Bandwidth::from_gbps(80.0),
        2, 8));
    cfg.chains.push_back(PanicChain{{0, 1}, 0.7});
    cfg.chains.push_back(PanicChain{{1}, 0.3});
    PanicCase c{std::move(cfg),
                core::TrafficProfile::fixed(Bytes{512.0},
                                            Bandwidth::from_gbps(25.0)),
                {}};
    c.options.duration = horizon;
    c.options.seed = 29;
    c.options.faults = all_kinds_plan(horizon, "crypto", "compress",
                                      "fabric", "fabric", policy);
    return c;
}

/// Truncated past a short warmup, so the partial statistics are nonzero.
PanicCase
panic_truncated()
{
    PanicCase c = panic_chain();
    c.options.warmup_fraction = 0.01;
    c.options.watchdog.max_events = 100000;
    return c;
}

std::string
run_panic(const PanicCase& c)
{
    return render(simulate_panic(c.config, c.traffic, c.options));
}

std::string
trace_panic(PanicCase c)
{
    obs::ChromeTraceWriter writer;
    c.options.trace.sink = &writer;
    c.options.trace.sample_every = 16;
    (void)simulate_panic(c.config, c.traffic, c.options);
    return writer.dump();
}

// --- degraded-mode model --------------------------------------------------------

/// fault::apply_faults_at before, inside and after the plan's windows.
std::string
faults_at_instants()
{
    const auto hw = test::small_nic();
    const auto graph = two_link_graph(hw);
    const FaultPlan plan = all_kinds_plan(0.01, "cores", "accel", "memory",
                                          "interface",
                                          InServicePolicy::kRequeue);
    io::Json out(io::JsonArray{});
    for (double t : {0.002, 0.0035, 0.0095}) {
        const fault::FaultedScenario s =
            fault::apply_faults_at(plan, t, hw, graph);
        io::Json j;
        j.set("t", t);
        j.set("hw", io::to_json(s.hw));
        j.set("graph", io::to_json(s.graph));
        out.push_back(std::move(j));
    }
    return out.dump(-1);
}

/// Every pinned output: golden file name -> the bytes it must hold.
std::vector<std::pair<std::string, std::function<std::string()>>>
golden_cases()
{
    return {
        {"panic_chain.json", [] { return run_panic(panic_chain()); }},
        {"panic_faults_requeue.json",
         [] {
             return run_panic(
                 panic_faulted(0.004, InServicePolicy::kRequeue));
         }},
        {"panic_faults_drop.json",
         [] {
             return run_panic(panic_faulted(0.004, InServicePolicy::kDrop));
         }},
        {"panic_truncated.json", [] { return run_panic(panic_truncated()); }},
        {"nic_fig10_point.json", [] { return run_nic(nic_fig10_point()); }},
        {"nic_faults_requeue.json",
         [] {
             return run_nic(nic_faulted(0.006, InServicePolicy::kRequeue));
         }},
        {"nic_faults_drop.json",
         [] { return run_nic(nic_faulted(0.006, InServicePolicy::kDrop)); }},
        {"nic_burst.json", [] { return run_nic(nic_burst()); }},
        {"nic_truncated.json", [] { return run_nic(nic_truncated()); }},
        {"panic_trace.json",
         [] {
             return trace_panic(
                 panic_faulted(0.00002, InServicePolicy::kDrop));
         }},
        {"nic_trace.json",
         [] {
             return trace_nic(nic_faulted(0.0001, InServicePolicy::kDrop));
         }},
        {"apply_faults_at.json", faults_at_instants},
        {"nic_snapshot.json", nic_snapshot},
    };
}

TEST(SimGolden, OutputsAreByteIdenticalToThePinnedFiles)
{
    for (const auto& [name, produce] : golden_cases()) {
        const std::string want = read_golden(name);
        ASSERT_FALSE(want.empty()) << "missing golden file " << name;
        EXPECT_TRUE(produce() == want) << name << " differs from its golden";
    }
}

TEST(SimGolden, PinnedSnapshotResumesToThePinnedResult)
{
    const NicCase c = nic_faulted(0.006, InServicePolicy::kRequeue);
    NicSimulator sim(c.hw, c.graph, c.traffic, c.options);
    sim.load_state(io::Json::parse(read_golden("nic_snapshot.json")));
    while (!sim.advance(4096)) {
    }
    EXPECT_TRUE(render(sim.finalize()) == read_golden("nic_faults_requeue.json"));
}

// --- malformed snapshots ------------------------------------------------------

/// Loads @p snapshot into a fresh simulator of the pinned snapshot's run
/// and returns the error it raised ("" when it loaded).
std::string
load_error(const io::Json& snapshot)
{
    const NicCase c = nic_faulted(0.006, InServicePolicy::kRequeue);
    NicSimulator sim(c.hw, c.graph, c.traffic, c.options);
    try {
        sim.load_state(snapshot);
    } catch (const std::runtime_error& e) {
        return e.what();
    }
    return "";
}

/// The pinned snapshot with the first value of @p key set to @p value.
io::Json
pinned_snapshot_with(const std::string& key, const std::string& value)
{
    std::string text = read_golden("nic_snapshot.json");
    const std::string needle = "\"" + key + "\":";
    const std::size_t at = text.find(needle);
    EXPECT_NE(at, std::string::npos) << key;
    const std::size_t begin = at + needle.size();
    const std::size_t end = text.find_first_of(",}", begin);
    return io::Json::parse(text.replace(begin, end - begin, value));
}

TEST(SimGolden, MalformedSnapshotIndicesAreRefusedByName)
{
    ASSERT_EQ(load_error(io::Json::parse(read_golden("nic_snapshot.json"))),
              "");
    const std::pair<const char*, const char*> cases[] = {
        {"qi", "99"},        {"rr_cursor", "1e300"}, {"class", "-1"},
        {"slot", "64"},      {"pending_kind", "7"},  {"pending_edge", "3"},
        {"busy", "2.5"},     {"pending_vertex", "4"}};
    for (const auto& [key, value] : cases) {
        const std::string error = load_error(pinned_snapshot_with(key, value));
        EXPECT_NE(error.find(std::string(".") + key + " must be"),
                  std::string::npos)
            << key << " = " << value << ": '" << error << "'";
    }
    // Fixed layouts: an ingress vertex has no queues, a NIC vertex one,
    // and the latency histogram one count per bucket.
    const std::pair<const char*, const char*> layouts[][2] = {
        {{"\"queues\":[]", "\"queues\":[[]]"}, {"vertices[0].queues", "0"}},
        {{"\"queues\":[[]]", "\"queues\":[[],[]]"},
         {"vertices[2].queues", "1"}},
        {{"\"counts\":[", "\"counts\":[\"0x0000000000000000\","},
         {"latency_hist.counts", "16"}}};
    for (const auto& [edit, want] : layouts) {
        std::string text = read_golden("nic_snapshot.json");
        const std::size_t at = text.find(edit.first);
        ASSERT_NE(at, std::string::npos) << edit.first;
        text.replace(at, std::strlen(edit.first), edit.second);
        const std::string error = load_error(io::Json::parse(text));
        EXPECT_NE(error.find(std::string(want.first) + " must hold "
                             + want.second + " elements"),
                  std::string::npos)
            << edit.second << ": '" << error << "'";
    }
}

TEST(SimGolden, EveryPinnedSnapshotKeyIsRequired)
{
    std::size_t deletions = 0;
    test::each_key_deletion(
        io::Json::parse(read_golden("nic_snapshot.json")), {},
        [&](const io::Json& snapshot, const std::string& key) {
            ++deletions;
            const std::string error = load_error(snapshot);
            // A key of the configuration fingerprint fails the
            // fingerprint check, whose message shows both documents.
            const bool named = test::names_missing_key(error, key)
                || (error.find("fingerprint mismatch") != std::string::npos
                    && error.find('"' + key + '"') != std::string::npos);
            EXPECT_TRUE(named) << "without '" << key << "': '" << error
                               << "'";
        });
    EXPECT_GT(deletions, 80u);
}

TEST(SimGolden, UnknownTargetBeyondTheHorizonStillThrows)
{
    auto expect_named = [](const std::function<void()>& build) {
        try {
            build();
            ADD_FAILURE() << "expected std::invalid_argument";
        } catch (const std::invalid_argument& e) {
            EXPECT_NE(std::string(e.what()).find("warp-core"),
                      std::string::npos)
                << e.what();
        }
    };
    NicCase nic = nic_burst();
    nic.options.faults.events.push_back(
        event(FaultKind::kEngineFail, 10.0 * nic.options.duration,
              "warp-core"));
    expect_named([&] { NicSimulator(nic.hw, nic.graph, nic.traffic,
                                    nic.options); });
    PanicCase panic = panic_faulted(0.001, InServicePolicy::kRequeue);
    panic.options.faults.events.push_back(
        event(FaultKind::kSlowdown, 10.0 * panic.options.duration,
              "warp-core"));
    expect_named(
        [&] { simulate_panic(panic.config, panic.traffic, panic.options); });
}

} // namespace
} // namespace lognic::sim
