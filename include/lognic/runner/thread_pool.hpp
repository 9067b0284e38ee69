/**
 * @file
 * The runner's one worker loop: a deterministic parallel-for.
 *
 * There is no pool and no task queue. Each call starts its helper threads,
 * the caller drains the same shared index alongside them, and every helper
 * is joined before the call returns. Simulation replications and dse
 * chunks are coarse (milliseconds each), so per-call thread start-up is
 * negligible and the scheduling reasoning — and therefore the determinism
 * argument — stays trivial: a body's *result* may only depend on its
 * index, never on which thread ran it or in what order.
 */
#ifndef LOGNIC_RUNNER_THREAD_POOL_HPP_
#define LOGNIC_RUNNER_THREAD_POOL_HPP_

#include <cstddef>
#include <functional>

namespace lognic::runner {

/// Upper bound on the threads one parallel_for uses, the caller included.
/// Results never depend on the thread count, so the cap only bounds
/// wall-clock parallelism (and keeps `--threads 100000` from starting
/// 100000 threads).
inline constexpr std::size_t kMaxWorkers = 64;

/**
 * Run body(0), ..., body(n-1) on min(threads, n, kMaxWorkers) threads:
 * the caller plus that many minus one helpers; threads <= 1 runs serially
 * and in order on the caller. Indices are claimed dynamically from a
 * shared counter, so *which* thread runs an index is nondeterministic —
 * bodies must write results keyed by their index and depend only on it.
 * The first exception thrown by any body is rethrown on the caller once
 * every helper has joined (remaining indices are skipped). A helper that
 * fails to start surfaces as std::system_error, also after the join.
 */
void parallel_for(std::size_t n, std::size_t threads,
                  const std::function<void(std::size_t)>& body);

} // namespace lognic::runner

#endif // LOGNIC_RUNNER_THREAD_POOL_HPP_
