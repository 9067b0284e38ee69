/**
 * @file
 * One solve path: Model::estimate/throughput/latency and the free
 * estimate_* functions give bit-identical results with a warm caller
 * scratch, a fresh scratch, and none — on the check generator's
 * scenarios (single- and mixed-class), the apps/devices scenarios, and a
 * graph with more paths than the latency walk accepts.
 */
#include "lognic/core/solve_scratch.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "../test_helpers.hpp"
#include "lognic/apps/inline_accel.hpp"
#include "lognic/apps/microservices.hpp"
#include "lognic/apps/nf_chain.hpp"
#include "lognic/apps/panic_models.hpp"
#include "lognic/check/generate.hpp"
#include "lognic/core/model.hpp"
#include "lognic/io/checkpoint.hpp"
#include "lognic/traffic/profiles.hpp"

namespace lognic::core {
namespace {

std::string
bits(double x)
{
    return io::double_to_hex(x) + ' ';
}

std::string
fingerprint(const ThroughputEstimate& e)
{
    std::string out = bits(e.capacity.bits_per_sec())
        + bits(e.achieved.bits_per_sec()) + e.bottleneck.name + '|';
    for (const ThroughputTerm& t : e.terms)
        out += std::string(to_string(t.kind)) + ':' + t.name + '='
            + bits(t.limit.bits_per_sec());
    return out;
}

std::string
fingerprint(const LatencyEstimate& e)
{
    std::string out = bits(e.mean.seconds()) + bits(e.p99.seconds())
        + bits(e.max_drop_probability) + bits(e.goodput.bits_per_sec());
    for (const PathLatency& p : e.paths) {
        out += '[' + bits(p.weight) + bits(p.total.seconds());
        for (const HopLatency& h : p.hops)
            out += h.vertex + ':' + bits(h.queueing.seconds())
                + bits(h.compute.seconds()) + bits(h.overhead.seconds())
                + bits(h.transfer.seconds());
        out += ']';
    }
    return out;
}

std::string
fingerprint(const ThroughputReport& r)
{
    std::string out =
        bits(r.capacity.bits_per_sec()) + bits(r.achieved.bits_per_sec());
    for (const ThroughputEstimate& e : r.per_class)
        out += '{' + fingerprint(e) + '}';
    return out;
}

std::string
fingerprint(const LatencyReport& r)
{
    std::string out = bits(r.mean.seconds()) + bits(r.max_drop_probability);
    for (const LatencyEstimate& e : r.per_class)
        out += '{' + fingerprint(e) + '}';
    return out;
}

std::string
fingerprint(const Report& r)
{
    return "T " + fingerprint(r.throughput) + " L " + fingerprint(r.latency);
}

/// The fingerprint of a solve, or the message it threw.
template <class Solve>
std::string
outcome(Solve solve)
{
    try {
        return fingerprint(solve());
    } catch (const std::exception& e) {
        return std::string("threw: ") + e.what();
    }
}

/**
 * Solve (@p graph, @p traffic) with no scratch, a fresh one, and @p warm
 * (invalidated first, as a caller moving to a new scenario must, then
 * solved cold and again warm): every outcome must match bit for bit.
 */
void
expect_one_solve_path(const HardwareModel& hw, const ExecutionGraph& graph,
                      const TrafficProfile& traffic, SolveScratch& warm,
                      const std::string& what)
{
    SCOPED_TRACE(what);
    const Model model(hw);
    const auto each_scratch = [&](auto solve) {
        const std::string none = outcome([&] { return solve(nullptr); });
        SolveScratch fresh;
        EXPECT_EQ(outcome([&] { return solve(&fresh); }), none);
        warm.invalidate();
        EXPECT_EQ(outcome([&] { return solve(&warm); }), none); // cold
        EXPECT_EQ(outcome([&] { return solve(&warm); }), none); // warm
        return none;
    };
    const std::string tp = each_scratch([&](SolveScratch* s) {
        return model.throughput(graph, traffic, s);
    });
    const std::string lat = each_scratch(
        [&](SolveScratch* s) { return model.latency(graph, traffic, s); });
    const std::string rep = each_scratch(
        [&](SolveScratch* s) { return model.estimate(graph, traffic, s); });
    if (lat.rfind("threw: ", 0) == 0)
        EXPECT_EQ(rep, lat); // the latency pass's error surfaces unchanged
    else
        EXPECT_EQ(rep, "T " + tp + " L " + lat);

    if (traffic.classes().size() != 1)
        return;
    each_scratch([&](SolveScratch* s) {
        return estimate_throughput(graph, hw, traffic, 0, s);
    });
    each_scratch([&](SolveScratch* s) {
        return estimate_latency(graph, hw, traffic, 0, s);
    });
}

TEST(SolveScratch, GeneratedScenariosSolveIdenticallyWithAndWithoutScratch)
{
    SolveScratch warm;
    int mixed = 0;
    for (std::uint64_t seed = 0; seed < 64; ++seed) {
        const io::Scenario sc = check::generate_scenario(seed).scenario;
        mixed += sc.traffic.classes().size() > 1 ? 1 : 0;
        expect_one_solve_path(sc.hw, sc.graph, sc.traffic, warm,
                              "generated seed " + std::to_string(seed));
    }
    EXPECT_GT(mixed, 0); // the draw covers the per-class-copy path
}

TEST(SolveScratch, AppScenariosSolveIdenticallyWithAndWithoutScratch)
{
    const TrafficProfile profiles[] = {
        test::mtu_traffic(10.0),
        traffic::panic_profile(4, Bandwidth::from_gbps(10.0)),
    };
    SolveScratch warm;
    const auto each_profile = [&](const HardwareModel& hw,
                                  const ExecutionGraph& graph,
                                  const std::string& what) {
        for (const TrafficProfile& t : profiles)
            expect_one_solve_path(
                hw, graph, t, warm,
                what + " x" + std::to_string(t.classes().size()));
    };
    for (const apps::NfPlacement& p : apps::all_placements()) {
        const auto sc = apps::make_nf_chain(p);
        each_profile(sc.hw, sc.graph, "nf chain " + p.to_string());
    }
    for (devices::LiquidIoKernel k : devices::liquidio_kernels()) {
        const auto sc = apps::make_inline_accel(k, 16);
        each_profile(sc.hw, sc.graph,
                     std::string("inline accel ") + devices::to_string(k));
    }
    for (apps::E3Workload w : apps::e3_workloads()) {
        const auto pipe =
            apps::make_e3_pipeline(w, apps::equal_partition_alloc(w));
        each_profile(pipe.hw, pipe.graph,
                     std::string("e3 pipeline ") + apps::to_string(w));
        const auto rtc = apps::make_e3_run_to_completion(w);
        each_profile(rtc.hw, rtc.graph,
                     std::string("e3 rtc ") + apps::to_string(w));
    }
    const auto par = apps::make_panic_parallel_chain(56.0);
    each_profile(par.hw, par.graph, "panic parallel chain");
    const auto hyb = apps::make_panic_hybrid(0.5, 6);
    each_profile(hyb.hw, hyb.graph, "panic hybrid");
}

TEST(SolveScratch, ThroughputNeverEnumeratesPaths)
{
    // A chain of 13 diamonds has 2^13 = 8192 ingress->egress paths, over
    // the 4096 the latency walk accepts. Throughput needs no paths, so it
    // solves with and without a scratch alike; latency throws either way.
    const HardwareModel hw = test::small_nic();
    ExecutionGraph g("diamonds");
    const IpId cores = *hw.find_ip("cores");
    VertexId join = g.add_ip_vertex("v0", cores);
    g.add_edge(g.add_ingress(), join);
    for (int k = 0; k < 13; ++k) {
        const std::string n = std::to_string(k);
        const VertexId a = g.add_ip_vertex("a" + n, cores);
        const VertexId b = g.add_ip_vertex("b" + n, cores);
        const VertexId next = g.add_ip_vertex("v" + std::to_string(k + 1),
                                              cores);
        for (VertexId branch : {a, b}) {
            g.add_edge(join, branch, EdgeParams{0.5});
            g.add_edge(branch, next, EdgeParams{0.5});
        }
        join = next;
    }
    g.add_edge(join, g.add_egress());
    const TrafficProfile traffic = test::mtu_traffic(10.0);
    ASSERT_THROW(g.enumerate_paths(), std::invalid_argument);

    SolveScratch warm;
    expect_one_solve_path(hw, g, traffic, warm, "13 diamonds");
    SolveScratch scratch;
    const Model model(hw);
    EXPECT_GT(model.throughput(g, traffic, &scratch).capacity.bits_per_sec(),
              0.0);
    EXPECT_THROW(model.latency(g, traffic, &scratch), std::invalid_argument);
    EXPECT_THROW(model.estimate(g, traffic, &scratch), std::invalid_argument);
}

} // namespace
} // namespace lognic::core
