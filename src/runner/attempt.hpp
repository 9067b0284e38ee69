/**
 * @file
 * The runner's one guarded task body (internal to lognic_runner). Every
 * replication of Replicator::run / run_guarded and every (point,
 * replication) task of Sweep::run / run_guarded goes through attempt(),
 * so retry seeding and failure capture have exactly one definition.
 */
#ifndef LOGNIC_RUNNER_ATTEMPT_HPP_
#define LOGNIC_RUNNER_ATTEMPT_HPP_

#include <exception>

#include "lognic/runner/replicator.hpp"
#include "lognic/runner/seed.hpp"

namespace lognic::runner::detail {

/// A task's resolved outcome plus, when it failed, the live exception of
/// its last attempt (null on success and for outcomes replayed from a
/// journal) — what the fail-fast entry points rethrow.
struct Attempted {
    CompletedTask task;
    std::exception_ptr error;
};

/**
 * Call fn(seed) up to 1 + max_retries times, stopping at the first
 * success. Attempt 0 uses @p seed0 (so an empty retry budget reproduces
 * historical results bit-for-bit); attempt k > 0 uses
 * derive_seed(seed0, k), so a retry chain is a pure function of seed0.
 */
inline Attempted
attempt(const Replicator::SimFn& fn, std::uint64_t seed0,
        std::size_t max_retries)
{
    Attempted out;
    for (std::size_t k = 0; k <= max_retries; ++k) {
        out.task.seed = k == 0 ? seed0 : derive_seed(seed0, k);
        out.task.attempts = k + 1;
        try {
            out.task.result = fn(out.task.seed);
            out.task.ok = true;
            out.error = nullptr;
            return out;
        } catch (const std::exception& e) {
            out.task.error = e.what();
            out.error = std::current_exception();
        } catch (...) {
            out.task.error = "unknown exception";
            out.error = std::current_exception();
        }
    }
    return out;
}

} // namespace lognic::runner::detail

#endif // LOGNIC_RUNNER_ATTEMPT_HPP_
