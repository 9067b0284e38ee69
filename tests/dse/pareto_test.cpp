// Pareto machinery edge cases: dominance with mixed senses, ties on one
// objective, NaN/inf quarantine, single-objective degeneration, and
// frontier stability under input permutation.
#include "lognic/dse/pareto.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

using namespace lognic::dse;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

ScoredConfig
make(std::uint64_t id, std::vector<double> objectives, bool feasible = true)
{
    ScoredConfig s;
    s.id = id;
    s.key = "cfg-" + std::to_string(id);
    s.objectives = std::move(objectives);
    s.feasible = feasible;
    s.finite = all_finite(s.objectives);
    return s;
}

const std::vector<Sense> kMaxMin{Sense::kMaximize, Sense::kMinimize};

} // namespace

TEST(ParetoDominance, MixedSenses)
{
    const auto a = make(1, {10.0, 5.0}); // higher tput, lower latency
    const auto b = make(2, {8.0, 7.0});
    EXPECT_TRUE(dominates(a, b, kMaxMin));
    EXPECT_FALSE(dominates(b, a, kMaxMin));
}

TEST(ParetoDominance, EqualOnAllObjectivesDominatesNeither)
{
    const auto a = make(1, {10.0, 5.0});
    const auto b = make(2, {10.0, 5.0});
    EXPECT_FALSE(dominates(a, b, kMaxMin));
    EXPECT_FALSE(dominates(b, a, kMaxMin));
}

TEST(ParetoDominance, TieOnOneObjective)
{
    // Same throughput, strictly better latency: still dominates (weak
    // dominance with at least one strict improvement).
    const auto a = make(1, {10.0, 5.0});
    const auto b = make(2, {10.0, 6.0});
    EXPECT_TRUE(dominates(a, b, kMaxMin));
    EXPECT_FALSE(dominates(b, a, kMaxMin));
}

TEST(ParetoDominance, SizeMismatchThrows)
{
    const auto a = make(1, {10.0});
    const auto b = make(2, {10.0, 5.0});
    EXPECT_THROW(static_cast<void>(dominates(a, b, kMaxMin)),
                 std::invalid_argument);
}

TEST(ParetoDominance, IneligibleNeverDominatesOrIsDominated)
{
    const auto good = make(1, {10.0, 5.0});
    const auto nan = make(2, {kNan, 1.0});
    const auto inf = make(3, {kInf, 0.0}); // "infinitely good" — quarantined
    const auto infeasible = make(4, {100.0, 0.1}, /*feasible=*/false);
    for (const auto& bad : {nan, inf, infeasible}) {
        EXPECT_FALSE(dominates(bad, good, kMaxMin));
        EXPECT_FALSE(dominates(good, bad, kMaxMin));
    }
}

TEST(ParetoFrontier, QuarantinedNeverEnterFrontier)
{
    const std::vector<ScoredConfig> all{
        make(1, {10.0, 5.0}),
        make(2, {kNan, kNan}),
        make(3, {kInf, 0.0}),
        make(4, {100.0, 0.0}, /*feasible=*/false),
    };
    const auto frontier = pareto_frontier(all, kMaxMin);
    ASSERT_EQ(frontier.size(), 1u);
    EXPECT_EQ(all[frontier[0]].id, 1u);
}

TEST(ParetoFrontier, SingleObjectiveDegeneratesToArgmin)
{
    const std::vector<Sense> min{Sense::kMinimize};
    const std::vector<ScoredConfig> all{
        make(1, {3.0}), make(2, {1.0}), make(3, {2.0}), make(4, {1.0})};
    const auto frontier = pareto_frontier(all, min);
    // Both argmin ties survive (neither strictly dominates the other).
    ASSERT_EQ(frontier.size(), 2u);
    EXPECT_EQ(all[frontier[0]].id, 2u);
    EXPECT_EQ(all[frontier[1]].id, 4u);
}

TEST(ParetoFrontier, StableUnderPermutation)
{
    std::vector<ScoredConfig> all{
        make(5, {10.0, 9.0}), make(1, {9.0, 2.0}),  make(9, {7.0, 1.0}),
        make(3, {8.0, 1.5}),  make(7, {10.0, 9.5}), make(2, {1.0, 50.0}),
    };
    const auto ids_of = [&](const std::vector<ScoredConfig>& v) {
        std::vector<std::uint64_t> ids;
        for (std::size_t idx : pareto_frontier(v, kMaxMin))
            ids.push_back(v[idx].id);
        return ids;
    };
    const auto baseline = ids_of(all);
    ASSERT_FALSE(baseline.empty());
    std::vector<ScoredConfig> permuted = all;
    std::sort(permuted.begin(), permuted.end(),
              [](const ScoredConfig& a, const ScoredConfig& b) {
                  return a.id > b.id;
              });
    EXPECT_EQ(ids_of(permuted), baseline);
    std::reverse(permuted.begin(), permuted.end());
    EXPECT_EQ(ids_of(permuted), baseline);
}

TEST(ParetoFrontier, DominatedCountMatchesDefinition)
{
    const std::vector<ScoredConfig> all{
        make(1, {10.0, 1.0}), // dominates 2 and 3
        make(2, {9.0, 2.0}),
        make(3, {8.0, 3.0}),
        make(4, {11.0, 9.0}), // frontier too, dominates nobody
    };
    EXPECT_EQ(dominated_count(all[0], all, kMaxMin), 2u);
    EXPECT_EQ(dominated_count(all[3], all, kMaxMin), 0u);
}

TEST(DominanceSummary, MatchesBruteForceFrontierAndCounts)
{
    // The summary must equal the brute-force composition it replaced:
    // pareto_frontier() plus dominated_count() per frontier member.
    // Deterministic pseudo-random population, quarantine and
    // infeasibility mixed in.
    std::vector<ScoredConfig> all;
    std::uint64_t state = 0x9e3779b97f4a7c15ull;
    const auto next = [&] {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        return state;
    };
    for (std::uint64_t i = 0; i < 64; ++i) {
        const double tput = static_cast<double>(next() % 32);
        const double lat = static_cast<double>(next() % 32);
        auto s = make(i + 1, {tput, lat}, /*feasible=*/next() % 8 != 0);
        if (next() % 16 == 0)
            s.objectives[0] = kNan;
        s.finite = all_finite(s.objectives);
        all.push_back(std::move(s));
    }

    const DominanceSummary summary = dominance_summary(all, kMaxMin);
    EXPECT_EQ(summary.frontier, pareto_frontier(all, kMaxMin));
    ASSERT_EQ(summary.dominated.size(), all.size());
    // Counts are kept for frontier members only; every other entry is 0.
    for (std::size_t i = 0; i < all.size(); ++i) {
        const bool on_frontier =
            std::find(summary.frontier.begin(), summary.frontier.end(), i)
            != summary.frontier.end();
        EXPECT_EQ(summary.dominated[i],
                  on_frontier ? dominated_count(all[i], all, kMaxMin) : 0u)
            << "candidate " << i;
    }
}

TEST(DominanceSummary, EmptyAndAllIneligible)
{
    EXPECT_TRUE(dominance_summary({}, kMaxMin).frontier.empty());
    const std::vector<ScoredConfig> all{
        make(1, {kNan, 1.0}),
        make(2, {5.0, 2.0}, /*feasible=*/false),
    };
    const auto summary = dominance_summary(all, kMaxMin);
    EXPECT_TRUE(summary.frontier.empty());
    EXPECT_EQ(summary.dominated, (std::vector<std::uint64_t>{0, 0}));
}

TEST(NonDominatedSort, LayersAndQuarantine)
{
    const std::vector<ScoredConfig> all{
        make(1, {10.0, 1.0}), // front 0
        make(2, {9.0, 2.0}),  // front 1
        make(3, {8.0, 3.0}),  // front 2
        make(4, {kNan, 1.0}), // in no front
    };
    const auto fronts = non_dominated_sort(all, kMaxMin);
    ASSERT_EQ(fronts.size(), 3u);
    EXPECT_EQ(fronts[0], (std::vector<std::size_t>{0}));
    EXPECT_EQ(fronts[1], (std::vector<std::size_t>{1}));
    EXPECT_EQ(fronts[2], (std::vector<std::size_t>{2}));
}

TEST(ParetoFrontier, SizeMismatchOfAnEligibleMemberThrows)
{
    const std::vector<ScoredConfig> bad{make(1, {10.0, 5.0}), make(2, {9.0})};
    EXPECT_THROW(static_cast<void>(pareto_frontier(bad, kMaxMin)),
                 std::invalid_argument);
    EXPECT_THROW(static_cast<void>(dominance_summary(bad, kMaxMin)),
                 std::invalid_argument);
    EXPECT_THROW(static_cast<void>(non_dominated_sort(bad, kMaxMin)),
                 std::invalid_argument);
    // An ineligible member is never compared, so its size is not checked.
    const std::vector<ScoredConfig> ok{make(1, {10.0, 5.0}),
                                       make(2, {9.0}, /*feasible=*/false)};
    EXPECT_EQ(pareto_frontier(ok, kMaxMin), (std::vector<std::size_t>{0}));
}

namespace {

std::uint64_t
xorshift(std::uint64_t& state)
{
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
}

/**
 * A seeded population of @p n members over three mixed-sense objectives,
 * drawn from a few levels so ties on single objectives are common, with
 * exact duplicates, +0.0 / -0.0, NaN and +/-inf (quarantined) and
 * infeasible members mixed in.
 */
std::vector<ScoredConfig>
random_population(std::uint64_t seed, std::size_t n)
{
    std::uint64_t state = seed * 0x9e3779b97f4a7c15ull + 1;
    const auto next = [&] { return xorshift(state); };
    std::vector<ScoredConfig> all;
    for (std::size_t i = 0; i < n; ++i) {
        std::vector<double> obj;
        if (!all.empty() && next() % 8 == 0) {
            obj = all[next() % all.size()].objectives; // exact duplicate
        } else {
            for (int k = 0; k < 3; ++k) {
                double v = static_cast<double>(next() % 12) - 4.0;
                if (v == 0.0 && next() % 2 == 0)
                    v = -0.0;
                obj.push_back(v);
            }
        }
        switch (next() % 32) {
        case 0: obj[next() % 3] = kNan; break;
        case 1: obj[next() % 3] = kInf; break;
        case 2: obj[next() % 3] = -kInf; break;
        default: break;
        }
        all.push_back(make(next(), std::move(obj),
                           /*feasible=*/next() % 10 != 0));
    }
    return all;
}

const std::vector<Sense> kMixed3{Sense::kMaximize, Sense::kMinimize,
                                 Sense::kMinimize};

/// Brute-force frontier straight from the definition, canonical order.
std::vector<std::size_t>
reference_frontier(const std::vector<ScoredConfig>& all,
                   const std::vector<Sense>& senses)
{
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < all.size(); ++i) {
        if (!eligible(all[i]))
            continue;
        bool dominated = false;
        for (const ScoredConfig& other : all)
            dominated = dominated || dominates(other, all[i], senses);
        if (!dominated)
            out.push_back(i);
    }
    std::sort(out.begin(), out.end(), [&](std::size_t a, std::size_t b) {
        return all[a].id != all[b].id ? all[a].id < all[b].id
                                      : all[a].key < all[b].key;
    });
    return out;
}

/// Brute-force non-dominated sort: peel the frontier of what is left.
std::vector<std::vector<std::size_t>>
reference_fronts(const std::vector<ScoredConfig>& all,
                 const std::vector<Sense>& senses)
{
    std::vector<std::size_t> left;
    for (std::size_t i = 0; i < all.size(); ++i)
        if (eligible(all[i]))
            left.push_back(i);
    std::vector<std::vector<std::size_t>> fronts;
    while (!left.empty()) {
        std::vector<std::size_t> front;
        std::vector<std::size_t> rest;
        for (std::size_t i : left) {
            bool dominated = false;
            for (std::size_t j : left)
                dominated = dominated || dominates(all[j], all[i], senses);
            (dominated ? rest : front).push_back(i);
        }
        fronts.push_back(std::move(front));
        left = std::move(rest);
    }
    return fronts;
}

} // namespace

TEST(DominanceKernel, MatchesBruteForceOnRandomPopulations)
{
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        const auto all = random_population(seed, 300);
        const auto frontier = reference_frontier(all, kMixed3);
        ASSERT_FALSE(frontier.empty()) << "seed " << seed;

        EXPECT_EQ(pareto_frontier(all, kMixed3), frontier) << "seed " << seed;
        const DominanceSummary summary = dominance_summary(all, kMixed3);
        EXPECT_EQ(summary.frontier, frontier) << "seed " << seed;
        ASSERT_EQ(summary.dominated.size(), all.size());
        std::vector<std::uint64_t> expected(all.size(), 0);
        for (std::size_t i : frontier)
            expected[i] = dominated_count(all[i], all, kMixed3);
        EXPECT_EQ(summary.dominated, expected) << "seed " << seed;

        EXPECT_EQ(non_dominated_sort(all, kMixed3),
                  reference_fronts(all, kMixed3))
            << "seed " << seed;
    }
}

TEST(DominanceKernel, SignedZerosAndDuplicatesAreEqual)
{
    // +0.0 and -0.0 compare equal, so these are duplicates: neither
    // dominates, both are on the frontier, and each dominates the third.
    const std::vector<ScoredConfig> all{
        make(1, {0.0, -0.0}), make(2, {-0.0, 0.0}), make(3, {-1.0, 0.0})};
    const DominanceSummary summary = dominance_summary(all, kMaxMin);
    EXPECT_EQ(summary.frontier, (std::vector<std::size_t>{0, 1}));
    EXPECT_EQ(summary.dominated, (std::vector<std::uint64_t>{1, 1, 0}));
    const auto fronts = non_dominated_sort(all, kMaxMin);
    ASSERT_EQ(fronts.size(), 2u);
    EXPECT_EQ(fronts[0], (std::vector<std::size_t>{0, 1}));
    EXPECT_EQ(fronts[1], (std::vector<std::size_t>{2}));
}

TEST(DominanceKernel, IdenticalUnderInputPermutation)
{
    const auto all = random_population(42, 300);
    // Everything compared by candidate id, which travels with the member.
    const auto ids = [](const std::vector<ScoredConfig>& v,
                        const std::vector<std::size_t>& idx) {
        std::vector<std::uint64_t> out;
        for (std::size_t i : idx)
            out.push_back(v[i].id);
        return out;
    };
    const auto counts = [](const std::vector<ScoredConfig>& v,
                           const DominanceSummary& s) {
        std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
        for (std::size_t i : s.frontier)
            out.emplace_back(v[i].id, s.dominated[i]);
        return out;
    };
    const auto front_ids = [&](const std::vector<ScoredConfig>& v) {
        std::vector<std::vector<std::uint64_t>> out;
        for (const auto& front : non_dominated_sort(v, kMixed3)) {
            out.push_back(ids(v, front));
            std::sort(out.back().begin(), out.back().end());
        }
        return out;
    };
    const auto frontier = ids(all, pareto_frontier(all, kMixed3));
    const auto summary = counts(all, dominance_summary(all, kMixed3));
    const auto fronts = front_ids(all);

    std::vector<ScoredConfig> shuffled = all;
    std::uint64_t state = 7;
    for (std::size_t round = 0; round < 4; ++round) {
        for (std::size_t i = shuffled.size(); i > 1; --i)
            std::swap(shuffled[i - 1], shuffled[xorshift(state) % i]);
        EXPECT_EQ(ids(shuffled, pareto_frontier(shuffled, kMixed3)),
                  frontier);
        EXPECT_EQ(counts(shuffled, dominance_summary(shuffled, kMixed3)),
                  summary);
        EXPECT_EQ(front_ids(shuffled), fronts);
    }
}

TEST(CrowdingDistance, BoundariesInfiniteMiddleFinite)
{
    const std::vector<ScoredConfig> all{
        make(1, {1.0, 9.0}),
        make(2, {5.0, 5.0}),
        make(3, {9.0, 1.0}),
    };
    const std::vector<std::size_t> front{0, 1, 2};
    const auto dist = crowding_distance(front, all, kMaxMin);
    ASSERT_EQ(dist.size(), 3u);
    EXPECT_EQ(dist[0], kInf);
    EXPECT_EQ(dist[2], kInf);
    EXPECT_TRUE(std::isfinite(dist[1]));
    EXPECT_GT(dist[1], 0.0);
}

