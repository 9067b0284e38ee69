#include "lognic/sim/panic.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "lognic/devices/panic_proto.hpp"
#include "lognic/traffic/profiles.hpp"

namespace lognic::sim {
namespace {

PanicConfig
one_unit_chain(std::uint32_t credits)
{
    PanicConfig cfg = devices::panic_defaults();
    cfg.units.push_back(devices::panic_unit(
        "u", Seconds::from_nanos(100.0), Bandwidth::from_gbps(100.0), 1,
        credits));
    cfg.chains.push_back(PanicChain{{0}, 1.0});
    return cfg;
}

SimOptions
quick()
{
    SimOptions o;
    o.duration = 0.01;
    o.seed = 3;
    return o;
}

TEST(PanicSim, NoDropsBelowCapacity)
{
    // Unit capacity ~29 Gbps (141 ns per 512 B packet); at 15 Gbps the
    // bounded scheduler buffer never overflows.
    const auto cfg = one_unit_chain(4);
    const auto res = simulate_panic(
        cfg, core::TrafficProfile::fixed(Bytes{512.0},
                                         Bandwidth::from_gbps(15.0)),
        quick());
    EXPECT_EQ(res.dropped, 0u);
    EXPECT_GT(res.completed, 0u);
}

TEST(PanicSim, ShedsLoadWhenSchedulerBufferFills)
{
    const auto cfg = one_unit_chain(4);
    const auto res = simulate_panic(
        cfg, core::TrafficProfile::fixed(Bytes{512.0},
                                         Bandwidth::from_gbps(60.0)),
        quick());
    EXPECT_GT(res.drop_rate, 0.2);
}

TEST(PanicSim, ThroughputMonotoneInCredits)
{
    // Overloaded unit: more credits -> larger window -> more throughput,
    // saturating at the unit's compute capacity.
    double prev = 0.0;
    for (std::uint32_t credits : {1u, 2u, 4u, 8u}) {
        const auto cfg = one_unit_chain(credits);
        const auto res = simulate_panic(
            cfg, core::TrafficProfile::fixed(Bytes{512.0},
                                             Bandwidth::from_gbps(60.0)),
            quick());
        EXPECT_GE(res.delivered.gbps(), prev - 0.5);
        prev = res.delivered.gbps();
    }
    EXPECT_GT(prev, 20.0);
}

TEST(PanicSim, LatencyGrowsWithCredits)
{
    // Under overload, once credits exceed the window knee they only add
    // buffering (queueing delay) — the Figure 15 takeaway ("fewer credits
    // reduce the latency").
    const auto low = simulate_panic(
        one_unit_chain(2),
        core::TrafficProfile::fixed(Bytes{512.0},
                                    Bandwidth::from_gbps(60.0)),
        quick());
    const auto high = simulate_panic(
        one_unit_chain(8),
        core::TrafficProfile::fixed(Bytes{512.0},
                                    Bandwidth::from_gbps(60.0)),
        quick());
    EXPECT_GT(high.mean_latency.seconds(), low.mean_latency.seconds());
}

TEST(PanicSim, ChainTraversesAllUnits)
{
    PanicConfig cfg = devices::panic_defaults();
    for (int i = 0; i < 3; ++i) {
        cfg.units.push_back(devices::panic_unit(
            "u" + std::to_string(i), Seconds::from_nanos(200.0),
            Bandwidth::from_gbps(100.0), 1, 8));
    }
    cfg.chains.push_back(PanicChain{{0, 1, 2}, 1.0});
    const auto res = simulate_panic(
        cfg, core::TrafficProfile::fixed(Bytes{256.0},
                                         Bandwidth::from_gbps(1.0)),
        quick());
    // Light load: latency ~ rmt + 4 fabric traversals + 3 services.
    const double service_ns = 200.0 + 256.0 * 8.0 / 100.0;
    const double hop_ns =
        cfg.hop_latency.nanos() + 256.0 * 8.0 / 100.0;
    const double expected_ns =
        cfg.rmt_latency.nanos() + 4.0 * hop_ns + 3.0 * service_ns;
    EXPECT_NEAR(res.mean_latency.nanos(), expected_ns, 0.25 * expected_ns);
}

TEST(PanicSim, RejectsBadConfigs)
{
    PanicConfig empty = devices::panic_defaults();
    EXPECT_THROW(simulate_panic(empty, core::TrafficProfile{}, quick()),
                 std::invalid_argument);

    PanicConfig bad_chain = one_unit_chain(4);
    bad_chain.chains[0].units = {5};
    EXPECT_THROW(simulate_panic(bad_chain, core::TrafficProfile{}, quick()),
                 std::invalid_argument);

    PanicConfig no_credit = one_unit_chain(4);
    no_credit.units[0].credits = 0;
    EXPECT_THROW(simulate_panic(no_credit, core::TrafficProfile{}, quick()),
                 std::invalid_argument);

    // Configs the engine cannot run are rejected by field, not turned into
    // NaN utilizations, silent non-delivery or a scheduling-into-the-past
    // abort mid-run.
    const auto traffic = core::TrafficProfile::fixed(
        Bytes{512.0}, Bandwidth::from_gbps(10.0));
    auto expect_rejected = [&](const PanicConfig& cfg,
                               const std::string& field) {
        try {
            simulate_panic(cfg, traffic, quick());
            ADD_FAILURE() << "expected invalid_argument for " << field;
        } catch (const std::invalid_argument& e) {
            EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
                << e.what();
        }
    };
    PanicConfig no_engine = one_unit_chain(4);
    no_engine.units[0].parallelism = 0;
    expect_rejected(no_engine, "parallelism");
    PanicConfig no_fabric = one_unit_chain(4);
    no_fabric.fabric_bw = Bandwidth::from_gbps(0.0);
    expect_rejected(no_fabric, "fabric_bw");
    PanicConfig negative_hop = one_unit_chain(4);
    negative_hop.hop_latency = Seconds::from_nanos(-10.0);
    expect_rejected(negative_hop, "hop_latency");
    PanicConfig nan_rmt = one_unit_chain(4);
    nan_rmt.rmt_latency = Seconds{std::nan("")};
    expect_rejected(nan_rmt, "rmt_latency");
}

TEST(PanicCreditCapacity, WindowFormula)
{
    PanicConfig cfg = devices::panic_defaults();
    const PanicUnit unit = devices::panic_unit(
        "u", Seconds::from_nanos(100.0), Bandwidth::from_gbps(1e6), 1, 2);
    const Bytes request{1000.0};
    // service 100 ns; rtt = 2 * 20 ns + 8000 b / 100 G = 120 ns.
    // window = 2 * 1000 B / 220 ns = 72.7 Gbps; compute = 80 Gbps.
    const Bandwidth cap = panic_credit_capacity(unit, request, cfg);
    EXPECT_NEAR(cap.gbps(), 2.0 * 8000.0 / 220.0, 0.5);
}

TEST(PanicCreditCapacity, ComputeCapsTheWindow)
{
    PanicConfig cfg = devices::panic_defaults();
    const PanicUnit unit = devices::panic_unit(
        "u", Seconds::from_micros(1.0), Bandwidth::from_gbps(1e6), 1, 64);
    const Bandwidth cap = panic_credit_capacity(unit, Bytes{1000.0}, cfg);
    // 64-credit window is huge; 1 us/op compute (8 Gbps) binds.
    EXPECT_NEAR(cap.gbps(), 8.0, 0.01);
}

TEST(PanicCreditCapacity, SimulatorAgreesWithAnalyticWindow)
{
    for (std::uint32_t credits : {1u, 2u, 3u}) {
        PanicConfig cfg = devices::panic_defaults();
        cfg.units.push_back(devices::panic_unit(
            "u", Seconds::from_nanos(300.0), Bandwidth::from_gbps(1e6), 1,
            credits));
        cfg.chains.push_back(PanicChain{{0}, 1.0});
        const Bytes pkt{512.0};
        SimOptions o;
        o.duration = 0.02;
        o.exponential_service = false; // deterministic matches the formula
        o.poisson_arrivals = false;
        const auto res = simulate_panic(
            cfg,
            core::TrafficProfile::fixed(pkt, Bandwidth::from_gbps(50.0)),
            o);
        const Bandwidth analytic =
            panic_credit_capacity(cfg.units[0], pkt, cfg);
        EXPECT_NEAR(res.delivered.gbps(), analytic.gbps(),
                    0.15 * analytic.gbps())
            << "credits=" << credits;
    }
}

} // namespace
} // namespace lognic::sim
