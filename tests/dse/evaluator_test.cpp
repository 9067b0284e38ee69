/**
 * @file
 * BatchEvaluator accounting: within-batch duplicates cost exactly one
 * model solve (with identical counters at any thread count), the
 * level-index-keyed memo counts exactly as a string-keyed MemoCache, and
 * constraint-violation messages carry the round-trip double formatter's
 * rendering of the violating value, not a truncated std::to_string.
 */
#include "lognic/dse/explorer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "lognic/apps/nf_chain.hpp"
#include "lognic/io/checkpoint.hpp"
#include "lognic/io/serialize.hpp"

using namespace lognic;
using dse::Config;
using dse::Constraint;
using dse::DesignSpace;
using dse::ExploreOptions;

namespace {

io::Scenario
nf_base(double rate_gbps = 50.0)
{
    auto built = apps::make_nf_chain(apps::arm_only_placement());
    return io::Scenario{
        std::move(built.hw), std::move(built.graph),
        core::TrafficProfile::fixed(Bytes{1500.0},
                                    Bandwidth::from_gbps(rate_gbps))};
}

std::vector<dse::ObjectiveSpec>
tput_p99()
{
    return {dse::objective_from_name("throughput_gbps"),
            dse::objective_from_name("p99_latency_us")};
}

} // namespace

TEST(BatchEvaluator, WithinBatchDuplicatesCostOneSolve)
{
    DesignSpace space(nf_base());
    space.add("placement.nf_chain", {});
    // BatchEvaluator holds references: objectives and constraints must
    // outlive it.
    const auto objectives = tput_p99();
    const std::vector<Constraint> constraints;

    // Two distinct configs, each submitted multiple times in one batch.
    const std::vector<Config> batch{{3}, {3}, {7}, {3}, {7}};

    for (std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
        ExploreOptions opts;
        opts.des.enabled = false;
        opts.threads = threads;
        std::atomic<std::uint64_t> journaled{0};
        opts.on_eval = [&](const std::string&, const dse::Evaluation&) {
            ++journaled;
        };
        dse::BatchEvaluator ev(space, objectives, constraints, opts);
        const auto scored = ev.run_batch(batch);
        ASSERT_EQ(scored.size(), batch.size());

        // 5 requests, 2 unique configs, 2 solves, 2 journal records —
        // identical at 1 and 8 threads. Within-batch duplicates are
        // recorded as cache misses (the insert happens after the batch);
        // the dedup map still collapses them onto one solve.
        EXPECT_EQ(ev.requests(), 5u) << "threads " << threads;
        EXPECT_EQ(ev.solves(), 2u) << "threads " << threads;
        EXPECT_EQ(ev.archive_size(), 2u) << "threads " << threads;
        EXPECT_EQ(journaled.load(), 2u) << "threads " << threads;
        const auto stats = ev.cache_stats();
        EXPECT_EQ(stats.misses, 5u) << "threads " << threads;
        EXPECT_EQ(stats.hits, 0u) << "threads " << threads;

        // Duplicates resolve to bitwise-identical scores.
        for (std::size_t o = 0; o < scored[0].objectives.size(); ++o) {
            EXPECT_EQ(scored[0].objectives[o], scored[1].objectives[o]);
            EXPECT_EQ(scored[0].objectives[o], scored[3].objectives[o]);
            EXPECT_EQ(scored[2].objectives[o], scored[4].objectives[o]);
        }
        EXPECT_EQ(scored[0].key, scored[1].key);
        EXPECT_EQ(scored[2].key, scored[4].key);
    }
}

TEST(BatchEvaluator, DuplicatesAcrossBatchesHitTheCache)
{
    DesignSpace space(nf_base());
    space.add("placement.nf_chain", {});
    const auto objectives = tput_p99();
    const std::vector<Constraint> constraints;
    ExploreOptions opts;
    opts.des.enabled = false;
    dse::BatchEvaluator ev(space, objectives, constraints, opts);

    (void)ev.run_batch({{5}});
    (void)ev.run_batch({{5}, {6}});
    EXPECT_EQ(ev.requests(), 3u);
    EXPECT_EQ(ev.solves(), 2u);
    EXPECT_EQ(ev.cache_stats().hits, 1u);
}

TEST(BatchEvaluator, LevelIndexMemoMatchesStringKeyedMemoCache)
{
    DesignSpace space(nf_base());
    space.add("placement.nf_chain", {});
    space.add("interface_gbps", {50.0, 100.0});
    // Negative levels: canonical keys hold IEEE-754 bit patterns, so this
    // knob's key order (5 < -10 < -20) is the reverse of its level order
    // and the archive's key order differs from its level-index order.
    dse::Knob rate;
    rate.name = "custom.rate_gbps";
    rate.values = {-20.0, -10.0, 5.0};
    rate.apply = [](io::Scenario& sc, double v) {
        sc.traffic.set_ingress_bandwidth(Bandwidth::from_gbps(std::fabs(v)));
    };
    space.add_custom(std::move(rate));
    const auto objectives = tput_p99();
    const std::vector<Constraint> constraints;

    // One stream with repeats within and across batches: 4 placements x 2
    // x 3 = 24 distinct configs over 6 batches of 16 requests.
    std::vector<std::vector<Config>> batches(6);
    std::uint64_t x = 12345;
    for (auto& batch : batches)
        for (int i = 0; i < 16; ++i) {
            x = x * 6364136223846793005ull + 1442695040888963407ull;
            batch.push_back({static_cast<std::uint32_t>((x >> 33) % 4),
                             static_cast<std::uint32_t>((x >> 40) % 2),
                             static_cast<std::uint32_t>((x >> 50) % 3)});
        }
    std::map<std::string, dse::Evaluation> archive;
    for (const auto& batch : batches)
        for (const Config& c : batch)
            if (!archive.count(space.canonical_key(c)))
                archive.emplace(space.canonical_key(c),
                                dse::evaluate_config(space, c, objectives,
                                                     constraints));

    for (std::size_t capacity : {std::size_t{1}, std::size_t{7},
                                 std::size_t{1} << 16}) {
        for (std::size_t shards : {1, 3, 8}) {
            ExploreOptions opts;
            opts.des.enabled = false;
            opts.threads = 3;
            opts.cache_capacity = capacity;
            opts.cache_shards = shards;
            dse::BatchEvaluator ev(space, objectives, constraints, opts);
            dse::MemoCache ref(capacity, shards);
            for (const auto& batch : batches) {
                (void)ev.run_batch(batch);
                // The coordinator's protocol: every request looks up, then
                // the batch's first miss of each config is inserted, in
                // batch order.
                std::vector<std::string> missed;
                for (const Config& c : batch) {
                    const std::string key = space.canonical_key(c);
                    if (!ref.lookup(key)
                        && std::find(missed.begin(), missed.end(), key)
                               == missed.end())
                        missed.push_back(key);
                }
                for (const std::string& key : missed)
                    ref.insert(key, archive.at(key));
            }
            const std::string where = "capacity " + std::to_string(capacity)
                                      + " shards " + std::to_string(shards);
            const auto got = ev.cache_stats();
            const auto want = ref.stats();
            EXPECT_EQ(got.hits, want.hits) << where;
            EXPECT_EQ(got.misses, want.misses) << where;
            EXPECT_EQ(got.evictions, want.evictions) << where;
            if (capacity < archive.size()) {
                EXPECT_GT(got.evictions, 0u) << where;
            }

            // Same contents, in canonical key order.
            const auto scored = ev.archive_vector();
            ASSERT_EQ(scored.size(), archive.size()) << where;
            auto it = archive.begin();
            for (const dse::ScoredConfig& s : scored) {
                EXPECT_EQ(s.key, it->first) << where;
                EXPECT_EQ(s.id, io::fnv1a64(s.key)) << where;
                EXPECT_EQ(space.canonical_key(s.config), s.key) << where;
                ASSERT_EQ(s.objectives.size(), it->second.objectives.size());
                for (std::size_t o = 0; o < s.objectives.size(); ++o)
                    EXPECT_EQ(std::bit_cast<std::uint64_t>(s.objectives[o]),
                              std::bit_cast<std::uint64_t>(
                                  it->second.objectives[o]))
                        << where;
                EXPECT_EQ(s.feasible, it->second.feasible) << where;
                EXPECT_EQ(s.finite, it->second.finite) << where;
                EXPECT_EQ(s.why, it->second.why) << where;
                ++it;
            }
            // The ordering check above is not vacuous: level-index order
            // differs from key order in this space.
            EXPECT_FALSE(std::is_sorted(
                scored.begin(), scored.end(),
                [&](const dse::ScoredConfig& a, const dse::ScoredConfig& b) {
                    return space.index(a.config).word
                           < space.index(b.config).word;
                }));
        }
    }
}

TEST(EvaluateConfig, ViolationMessageUsesRoundTripDoubleFormat)
{
    // A near-boundary violation: offered 10.1 Gb/s against a 10.2 floor.
    // The violating value is not exactly representable, so the message
    // must round-trip the full double — "%.17g", not std::to_string's
    // fixed six decimals.
    DesignSpace space(nf_base());
    space.add("traffic.rate_gbps", {10.1});
    Constraint floor;
    floor.metric = "throughput_gbps";
    floor.lower = 10.2;

    const auto eval =
        dse::evaluate_config(space, {0}, tput_p99(), {floor});
    ASSERT_FALSE(eval.feasible);
    const double v = eval.objectives[0];
    EXPECT_EQ(eval.why, "constraint violated: throughput_gbps = "
                            + io::format_double(v));

    // The rendered value parses back to the exact violating double.
    const std::string rendered = io::format_double(v);
    EXPECT_EQ(std::strtod(rendered.c_str(), nullptr), v);
    // And it is not the six-decimal truncation.
    EXPECT_NE(eval.why, "constraint violated: throughput_gbps = "
                            + std::to_string(v));
}
