#include "lognic/core/latency_model.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>

#include "../test_helpers.hpp"
#include "lognic/queueing/mm1n.hpp"

namespace lognic::core {
namespace {

using test::mtu_traffic;
using test::single_stage_graph;
using test::small_nic;
using test::two_stage_graph;

TEST(LatencyModel, SingleStageHandComputed)
{
    const HardwareModel hw = small_nic();
    const ExecutionGraph g = single_stage_graph(hw);
    // Very light load: queueing ~ 0, latency ~ service time.
    const auto est = estimate_latency(g, hw, mtu_traffic(0.01));
    const double service_us = 1.0 + 1500.0 / 4000.0; // 1.375 us
    EXPECT_NEAR(est.mean.micros(), service_us, 0.05);
    ASSERT_EQ(est.paths.size(), 1u);
    EXPECT_EQ(est.paths[0].hops.size(), 2u);
}

TEST(LatencyModel, QueueingGrowsWithLoad)
{
    const HardwareModel hw = small_nic();
    const ExecutionGraph g = single_stage_graph(hw);
    double prev = 0.0;
    for (double load : {1.0, 10.0, 20.0, 24.0}) {
        const auto est = estimate_latency(g, hw, mtu_traffic(load));
        EXPECT_GT(est.mean.micros(), prev);
        prev = est.mean.micros();
    }
}

TEST(LatencyModel, QueueingMatchesMm1nClosedForm)
{
    const HardwareModel hw = small_nic();
    VertexParams one;
    one.parallelism = 1;
    one.queue_capacity = 16;
    const ExecutionGraph g = single_stage_graph(hw, one);
    const auto traffic = mtu_traffic(5.0);
    const auto est = estimate_latency(g, hw, traffic);

    const double service = 1.375e-6;
    const double lambda = 5e9 / (1500.0 * 8.0);
    const queueing::Mm1nQueue q(lambda, 1.0 / service, 16);
    const double expected =
        q.paper_closed_form_delay() + service; // Q + C, no O, no transfer
    EXPECT_NEAR(est.mean.seconds(), expected, 1e-9);
}

TEST(LatencyModel, OverheadAddsPerHop)
{
    const HardwareModel hw = small_nic();
    VertexParams with_overhead;
    with_overhead.overhead = Seconds::from_micros(3.0);
    const auto base = estimate_latency(single_stage_graph(hw), hw,
                                       mtu_traffic(0.01));
    const auto plus = estimate_latency(single_stage_graph(hw, with_overhead),
                                       hw, mtu_traffic(0.01));
    EXPECT_NEAR(plus.mean.micros() - base.mean.micros(), 3.0, 1e-6);
}

TEST(LatencyModel, AccelerationShrinksCompute)
{
    const HardwareModel hw = small_nic();
    VertexParams fast;
    fast.acceleration = 2.0;
    const auto base = estimate_latency(single_stage_graph(hw), hw,
                                       mtu_traffic(0.01));
    const auto accel = estimate_latency(single_stage_graph(hw, fast), hw,
                                        mtu_traffic(0.01));
    // Compute time 1.375 us halves (queueing at this load is negligible).
    EXPECT_NEAR(base.mean.micros() - accel.mean.micros(), 1.375 / 2.0, 0.01);
}

TEST(LatencyModel, TransferTimeUsesMediumBandwidths)
{
    const HardwareModel hw = small_nic();
    ExecutionGraph g = single_stage_graph(hw);
    g.edge(0).params.alpha = 1.0; // 1500 B over 100 Gbps = 0.12 us
    g.edge(0).params.beta = 1.0;  // 1500 B over 80 Gbps = 0.15 us
    const auto base = estimate_latency(single_stage_graph(hw), hw,
                                       mtu_traffic(0.01));
    const auto with = estimate_latency(g, hw, mtu_traffic(0.01));
    EXPECT_NEAR(with.mean.micros() - base.mean.micros(), 0.12 + 0.15, 1e-6);
}

TEST(LatencyModel, DedicatedEdgeTransferTime)
{
    const HardwareModel hw = small_nic();
    ExecutionGraph g = single_stage_graph(hw);
    g.edge(1).params.dedicated_bw = Bandwidth::from_gbps(12.0); // 1 us/MTU
    const auto base = estimate_latency(single_stage_graph(hw), hw,
                                       mtu_traffic(0.01));
    const auto with = estimate_latency(g, hw, mtu_traffic(0.01));
    EXPECT_NEAR(with.mean.micros() - base.mean.micros(), 1.0, 1e-6);
}

TEST(LatencyModel, PathWeightsAverageAcrossDiamond)
{
    const HardwareModel hw = small_nic();
    // Fast branch (accel) and slow branch (cores), 50/50.
    ExecutionGraph g("diamond");
    const auto in = g.add_ingress();
    const auto out = g.add_egress();
    const auto slow = g.add_ip_vertex("cores", *hw.find_ip("cores"));
    const auto fast = g.add_ip_vertex("accel", *hw.find_ip("accel"));
    g.add_edge(in, slow, EdgeParams{0.5, 0, 0, {}});
    g.add_edge(in, fast, EdgeParams{0.5, 0, 0, {}});
    g.add_edge(slow, out, EdgeParams{0.5, 0, 0, {}});
    g.add_edge(fast, out, EdgeParams{0.5, 0, 0, {}});
    const auto est = estimate_latency(g, hw, mtu_traffic(0.01));
    ASSERT_EQ(est.paths.size(), 2u);
    const double t0 = est.paths[0].total.seconds();
    const double t1 = est.paths[1].total.seconds();
    EXPECT_NEAR(est.mean.seconds(), 0.5 * (t0 + t1), 1e-12);
}

TEST(LatencyModel, DropProbabilityReportedUnderOverload)
{
    const HardwareModel hw = small_nic(Bandwidth::from_gbps(1000.0));
    VertexParams tiny;
    tiny.parallelism = 1;
    tiny.queue_capacity = 2;
    const ExecutionGraph g = single_stage_graph(hw, tiny);
    const auto est = estimate_latency(g, hw, mtu_traffic(50.0));
    EXPECT_GT(est.max_drop_probability, 0.5); // grossly overloaded
}

TEST(LatencyModel, HopBreakdownSumsToPathTotal)
{
    const HardwareModel hw = small_nic();
    const auto est = estimate_latency(two_stage_graph(hw), hw,
                                      mtu_traffic(5.0));
    for (const auto& path : est.paths) {
        Seconds sum{0.0};
        for (const auto& hop : path.hops)
            sum += hop.total();
        EXPECT_NEAR(sum.seconds(), path.total.seconds(), 1e-15);
    }
}

TEST(LatencyModel, BoundedUnderExtremeOverloadByQueueCapacity)
{
    const HardwareModel hw = small_nic(Bandwidth::from_gbps(1000.0));
    VertexParams p;
    p.parallelism = 1;
    p.queue_capacity = 8;
    const ExecutionGraph g = single_stage_graph(hw, p);
    const auto est = estimate_latency(g, hw, mtu_traffic(500.0));
    // Waiting behind at most N requests of 1.375 us each plus own service.
    EXPECT_LT(est.mean.micros(), (8 + 1) * 1.375 + 0.1);
}

TEST(LatencyModel, BadSojournCurveValueThrowsNamingTheIp)
{
    // NaN or a negative sojourn must not fall back to C/A with zero
    // queueing delay; the error names the IP and the arrival rate.
    for (double bad : {std::numeric_limits<double>::quiet_NaN(), -1e-6}) {
        HardwareModel hw = small_nic();
        hw.ip(*hw.find_ip("cores")).sojourn_curve = [bad](double) {
            return Seconds{bad};
        };
        const ExecutionGraph g = single_stage_graph(hw);
        try {
            (void)estimate_latency(g, hw, mtu_traffic(1.0));
            FAIL() << "no throw for sojourn " << bad;
        } catch (const std::domain_error& e) {
            const std::string what = e.what();
            EXPECT_NE(what.find("'cores'"), std::string::npos) << what;
            EXPECT_NE(what.find("lambda = "), std::string::npos) << what;
        }
    }
}

} // namespace
} // namespace lognic::core
