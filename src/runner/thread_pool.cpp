#include "lognic/runner/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace lognic::runner {

void
parallel_for(std::size_t n, std::size_t threads,
             const std::function<void(std::size_t)>& body)
{
    std::atomic<std::size_t> next{0};
    std::exception_ptr first_error;
    std::mutex error_mu;
    const auto fail = [&](std::exception_ptr error) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (!first_error)
            first_error = std::move(error);
        next.store(n); // abandon remaining indices
    };
    const auto drain = [&] {
        for (std::size_t i; (i = next.fetch_add(1)) < n;) {
            try {
                body(i);
            } catch (...) {
                fail(std::current_exception());
                return;
            }
        }
    };

    {
        const std::size_t workers = std::min({threads, n, kMaxWorkers});
        std::vector<std::jthread> helpers;
        try {
            for (std::size_t w = 1; w < workers; ++w)
                helpers.emplace_back(drain);
        } catch (...) {
            fail(std::current_exception()); // e.g. std::system_error
        }
        drain();
    } // the jthreads join here, before any rethrow
    if (first_error)
        std::rethrow_exception(first_error);
}

} // namespace lognic::runner
