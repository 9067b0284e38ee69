// DesignSpace: knob declaration by string path (reusing calib's path
// machinery for catalog paths), validation, materialization, canonical
// keys, and the rebuild/base-bound exclusion rule.
#include "lognic/dse/design_space.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "lognic/apps/nf_chain.hpp"
#include "lognic/core/model.hpp"
#include "lognic/dse/spec.hpp"
#include "lognic/io/checkpoint.hpp"

using namespace lognic;
using dse::Config;
using dse::DesignSpace;

namespace {

io::Scenario
nf_base()
{
    auto built = apps::make_nf_chain(apps::arm_only_placement());
    return io::Scenario{std::move(built.hw), std::move(built.graph),
                        core::TrafficProfile::fixed(
                            Bytes{1500.0}, Bandwidth::from_gbps(20.0))};
}

} // namespace

TEST(DesignSpace, CatalogPathKnobMaterializes)
{
    DesignSpace space(nf_base());
    space.add("interface_gbps", {50.0, 100.0, 400.0});
    ASSERT_EQ(space.size(), 1u);
    EXPECT_EQ(space.combinations(), 3u);

    const auto sc = space.materialize({2});
    EXPECT_DOUBLE_EQ(sc.hw.interface_bandwidth().gbps(), 400.0);
    // The base scenario is untouched (bluefield2's interconnect is 200).
    EXPECT_DOUBLE_EQ(space.base().hw.interface_bandwidth().gbps(), 200.0);
}

TEST(DesignSpace, UnknownCatalogPathRejected)
{
    DesignSpace space(nf_base());
    EXPECT_THROW(space.add("ip.no-such-ip.fixed_cost_us", {1.0, 2.0}),
                 std::exception);
}

TEST(DesignSpace, VertexKnobsSetParams)
{
    DesignSpace space(nf_base());
    space.add("vertex.arm.parallelism", {1.0, 2.0, 4.0});
    space.add("vertex.arm.queue_capacity", {32.0, 128.0});
    const auto sc = space.materialize({2, 1});
    const auto id = sc.graph.find_vertex("arm");
    ASSERT_TRUE(id.has_value());
    EXPECT_EQ(sc.graph.vertex(*id).params.parallelism, 4u);
    EXPECT_EQ(sc.graph.vertex(*id).params.queue_capacity, 128u);
}

TEST(DesignSpace, VertexKnobValidation)
{
    DesignSpace space(nf_base());
    EXPECT_THROW(space.add("vertex.nope.parallelism", {1.0, 2.0}),
                 std::invalid_argument);
    EXPECT_THROW(space.add("vertex.arm.bogus_field", {1.0, 2.0}),
                 std::invalid_argument);
    EXPECT_THROW(space.add("vertex.arm.parallelism", {0.5, 2.0}),
                 std::invalid_argument); // non-integer
    EXPECT_THROW(space.add("vertex.arm.parallelism", {0.0, 2.0}),
                 std::invalid_argument); // below minimum
}

TEST(DesignSpace, TrafficRateKnob)
{
    DesignSpace space(nf_base());
    space.add("traffic.rate_gbps", {5.0, 10.0, 40.0});
    const auto sc = space.materialize({1});
    EXPECT_DOUBLE_EQ(sc.traffic.ingress_bandwidth().gbps(), 10.0);
}

TEST(DesignSpace, PlacementKnobDefaultsToAllPlacements)
{
    DesignSpace space(nf_base());
    space.add("placement.nf_chain", {});
    EXPECT_EQ(space.combinations(), apps::all_placements().size());
    // Level 0 is ARM-only; the last level offloads everything.
    const auto arm = space.materialize({0});
    EXPECT_TRUE(arm.graph.find_vertex("arm").has_value());
    const auto last = space.materialize(
        {static_cast<std::uint32_t>(apps::all_placements().size() - 1)});
    // Offloaded chain has accelerator vertices beyond the merged arm stage.
    EXPECT_GT(last.graph.vertex_count(), arm.graph.vertex_count());
}

TEST(DesignSpace, PlacementExcludesBaseBoundKnobs)
{
    // placement.* rebuilds hw+graph, so knobs bound to base-scenario names
    // must be rejected in either declaration order.
    DesignSpace a(nf_base());
    a.add("placement.nf_chain", {});
    EXPECT_THROW(a.add("vertex.arm.parallelism", {1.0, 2.0}),
                 std::invalid_argument);
    EXPECT_THROW(a.add("ip.arm.fixed_cost_us", {1.0, 2.0}),
                 std::invalid_argument);

    DesignSpace b(nf_base());
    b.add("vertex.arm.parallelism", {1.0, 2.0});
    EXPECT_THROW(b.add("placement.nf_chain", {}), std::invalid_argument);

    // Scenario-independent knobs compose with placement fine.
    DesignSpace c(nf_base());
    c.add("placement.nf_chain", {});
    EXPECT_NO_THROW(c.add("traffic.rate_gbps", {10.0, 20.0}));
}

TEST(DesignSpace, LevelAndConfigValidation)
{
    DesignSpace space(nf_base());
    EXPECT_THROW(space.add("interface_gbps", {}), std::invalid_argument);
    EXPECT_THROW(space.add("interface_gbps", {2.0, 1.0}),
                 std::invalid_argument); // not increasing
    EXPECT_THROW(space.add("interface_gbps", {1.0, 1.0}),
                 std::invalid_argument); // not strict
    space.add("interface_gbps", {50.0, 100.0});
    EXPECT_THROW(space.add("interface_gbps", {25.0, 75.0}),
                 std::invalid_argument); // duplicate
    EXPECT_THROW(space.validate({0, 0}), std::invalid_argument); // size
    EXPECT_THROW(space.validate({2}), std::invalid_argument); // level range
    EXPECT_NO_THROW(space.validate({1}));
}

TEST(DesignSpace, BandwidthKnobsRefuseNonPositiveLevels)
{
    const io::Scenario base = nf_base();
    std::vector<std::string> paths{"interface_gbps", "memory_gbps",
                                   "line_rate_gbps", "traffic.rate_gbps"};
    for (std::size_t i = 0; i < base.hw.ip_count(); ++i) {
        const core::IpSpec& ip = base.hw.ip(i);
        paths.push_back("ip." + ip.name + ".byte_rate_gbps");
        for (const auto& c : ip.roofline.ceilings())
            paths.push_back("ip." + ip.name + ".ceiling." + c.name + ".gbps");
    }
    ASSERT_GT(paths.size(), 5u);
    for (const std::string& path : paths) {
        for (const double level : {0.0, -1.0}) {
            DesignSpace space(base);
            try {
                space.add(path, {level, 3.0, 24.0});
                ADD_FAILURE() << path << " accepted level " << level;
            } catch (const std::invalid_argument& e) {
                EXPECT_NE(std::string(e.what()).find("'" + path + "'"),
                          std::string::npos)
                    << e.what();
            }
        }
        DesignSpace space(base);
        EXPECT_NO_THROW(space.add(path, {0.75, 3.0})) << path;
    }
}

TEST(DesignSpace, ZeroInterfaceLevelInTheEvictionSpecIsRefused)
{
    // tests/dse/golden/exhaustive_evict_spec.json with a zero level: the
    // pruner would call the zero-bandwidth configs infeasible while the
    // model refuses them, so --prune=on and --prune=off would disagree.
    const io::Json doc = io::Json::parse(R"({"dse": {
        "base": "nf_chain",
        "traffic": {"rate_gbps": 50, "packet_bytes": 1500},
        "knobs": ["placement.nf_chain",
                  {"path": "line_rate_gbps", "values": [10, 25, 40, 100]},
                  {"path": "interface_gbps", "values": [0, 3, 24, 96, 384],
                   "cost_weight": 0.01},
                  {"path": "traffic.rate_gbps",
                   "values": [2.5, 5, 10, 20, 40, 80]}],
        "objectives": ["throughput_gbps", "p99_latency_us", "cost"],
        "constraints": [{"metric": "throughput_gbps", "lower": 4},
                        {"metric": "p99_latency_us", "upper": 150}],
        "strategy": "exhaustive", "prune": "on", "seed": 11,
        "des": {"enabled": false}}})");
    try {
        (void)dse::explore_spec_from_json(doc);
        ADD_FAILURE() << "a zero interface_gbps level was accepted";
    } catch (const std::exception& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("interface_gbps"), std::string::npos) << what;
        EXPECT_NE(what.find("> 0"), std::string::npos) << what;
    }
}

TEST(DesignSpace, CanonicalKeyAndFingerprint)
{
    DesignSpace space(nf_base());
    space.add("interface_gbps", {50.0, 100.0});
    space.add("traffic.rate_gbps", {5.0, 10.0});
    const Config a{0, 1};
    const Config b{1, 0};
    EXPECT_NE(space.canonical_key(a), space.canonical_key(b));
    EXPECT_NE(space.fingerprint(a), space.fingerprint(b));
    EXPECT_EQ(space.canonical_key(a), space.canonical_key(Config{0, 1}));
    // Key names the knob and the level *value*, not the index.
    EXPECT_NE(space.canonical_key(a).find("interface_gbps="),
              std::string::npos);
}

TEST(DesignSpace, FingerprintFoldsTheCanonicalKey)
{
    DesignSpace space(nf_base());
    space.add("interface_gbps", {50.0, 100.0, 400.0});
    space.add("traffic.rate_gbps", {5.0, 10.0});
    for (std::uint32_t i = 0; i < 3; ++i)
        for (std::uint32_t r = 0; r < 2; ++r) {
            const Config c{i, r};
            EXPECT_EQ(space.fingerprint(c),
                      io::fnv1a64(space.canonical_key(c)));
        }
    EXPECT_THROW(space.fingerprint({3, 0}), std::invalid_argument);
}

TEST(DesignSpace, LevelIndexIsMixedRadixLastKnobFastest)
{
    DesignSpace space(nf_base());
    space.add("interface_gbps", {50.0, 100.0, 400.0});
    space.add("traffic.rate_gbps", {5.0, 10.0});
    EXPECT_EQ(space.index({0, 0}).word, 0u);
    EXPECT_EQ(space.index({0, 1}).word, 1u);
    EXPECT_EQ(space.index({2, 1}).word, 5u);
    EXPECT_TRUE(space.index({2, 1}).levels.empty());
    EXPECT_EQ(space.config(space.index({1, 1})), (Config{1, 1}));
    EXPECT_THROW(space.index({0, 2}), std::invalid_argument);
}

TEST(DesignSpace, LevelIndexOfSpacesBeyondU64IsTheLevelVector)
{
    // 20 knobs of 10 levels: 1e20 combinations, more than a u64 holds.
    DesignSpace space(nf_base());
    for (int k = 0; k < 20; ++k) {
        dse::Knob knob;
        knob.name = "custom." + std::to_string(k);
        for (int l = 0; l < 10; ++l)
            knob.values.push_back(l);
        knob.apply = [](io::Scenario&, double) {};
        space.add_custom(std::move(knob));
    }
    EXPECT_EQ(space.combinations(), std::numeric_limits<std::uint64_t>::max());
    Config a(20, 9);
    Config b = a;
    b[0] = 8; // differs only in the slowest knob
    const dse::ConfigIndex ia = space.index(a);
    const dse::ConfigIndex ib = space.index(b);
    EXPECT_EQ(ia.levels, a);
    EXPECT_FALSE(ia == ib);
    EXPECT_NE(dse::ConfigIndexHash{}(ia), dse::ConfigIndexHash{}(ib));
    EXPECT_EQ(space.config(ia), a);
    EXPECT_EQ(space.config(ib), b);
}

TEST(DesignSpace, CostIsWeightedLevelSum)
{
    DesignSpace space(nf_base());
    space.add("interface_gbps", {50.0, 100.0}, /*cost_weight=*/2.0);
    space.add("traffic.rate_gbps", {5.0, 10.0}); // weight 0
    EXPECT_DOUBLE_EQ(space.cost({0, 1}), 100.0);
    EXPECT_DOUBLE_EQ(space.cost({1, 1}), 200.0);
}

TEST(DesignSpace, ConfigJsonNamesKnobs)
{
    DesignSpace space(nf_base());
    space.add("interface_gbps", {50.0, 100.0});
    const io::Json j = space.config_json({1});
    EXPECT_DOUBLE_EQ(j.at("interface_gbps").as_number(), 100.0);
}

TEST(DesignSpace, MaterializedScenarioIsModelable)
{
    DesignSpace space(nf_base());
    space.add("placement.nf_chain", {});
    space.add("traffic.rate_gbps", {5.0, 20.0});
    for (std::uint32_t p = 0; p < 16; ++p) {
        const auto sc = space.materialize({p, 1});
        const auto rep = core::Model(sc.hw).estimate(sc.graph, sc.traffic);
        EXPECT_GT(rep.throughput.capacity.gbps(), 0.0);
    }
}
