#include "lognic/runner/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

namespace lognic::runner {
namespace {

TEST(ParallelFor, CoversEveryIndexExactlyOnce)
{
    for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        std::vector<std::atomic<int>> hits(257);
        parallel_for(hits.size(), threads,
                     [&](std::size_t i) { ++hits[i]; });
        for (const auto& h : hits)
            EXPECT_EQ(h.load(), 1);
    }
}

TEST(ParallelFor, SerialPathRunsInOrderOnCaller)
{
    std::vector<std::size_t> order;
    const auto caller = std::this_thread::get_id();
    bool same_thread = true;
    parallel_for(8, 1, [&](std::size_t i) {
        order.push_back(i);
        same_thread = same_thread && std::this_thread::get_id() == caller;
    });
    std::vector<std::size_t> expected(8);
    std::iota(expected.begin(), expected.end(), std::size_t{0});
    EXPECT_EQ(order, expected);
    EXPECT_TRUE(same_thread);
}

TEST(ParallelFor, ZeroIterationsIsNoop)
{
    parallel_for(0, 4, [](std::size_t) { FAIL() << "body ran"; });
}

TEST(ParallelFor, RethrowsFirstException)
{
    for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        EXPECT_THROW(
            parallel_for(64, threads,
                         [](std::size_t i) {
                             if (i == 5)
                                 throw std::runtime_error("boom");
                         }),
            std::runtime_error);
    }
}

TEST(ParallelFor, MoreThreadsThanWorkIsFine)
{
    std::vector<std::atomic<int>> hits(3);
    parallel_for(hits.size(), 16, [&](std::size_t i) { ++hits[i]; });
    for (const auto& h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, WorkerCountIsCapped)
{
    // An absurd thread request must not start one thread per index: the
    // caller plus its helpers never exceed kMaxWorkers.
    std::mutex mu;
    std::set<std::thread::id> ids;
    std::vector<std::atomic<int>> hits(128);
    parallel_for(hits.size(), SIZE_MAX, [&](std::size_t i) {
        ++hits[i];
        std::lock_guard<std::mutex> lock(mu);
        ids.insert(std::this_thread::get_id());
    });
    for (const auto& h : hits)
        EXPECT_EQ(h.load(), 1);
    EXPECT_LE(ids.size(), kMaxWorkers);
    EXPECT_EQ(kMaxWorkers, 64u);
}

} // namespace
} // namespace lognic::runner
