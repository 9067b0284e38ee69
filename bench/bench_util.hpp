/**
 * @file
 * Shared helpers for the bench binaries: each figure driver regenerates one
 * figure (or figure pair) of the paper's evaluation and prints its series
 * as aligned rows, `Measured` meaning the packet-level simulator and
 * `LogNIC` the analytical model. The argv readers are strict: a flag with
 * no value or a malformed number (`--repeat 3x`, `--churn-events -1`)
 * exits 2 naming the flag before any work starts.
 */
#ifndef LOGNIC_BENCH_BENCH_UTIL_HPP_
#define LOGNIC_BENCH_BENCH_UTIL_HPP_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "lognic/io/checkpoint.hpp"

namespace lognic::bench {

/// The value after flag argv[i]; exits 2 naming the flag when it has none.
inline const char*
value_arg(int argc, char** argv, int i)
{
    if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", argv[i]);
        std::exit(2);
    }
    return argv[i + 1];
}

/// The unsigned integer after flag argv[i], parsed with io::parse_u64;
/// exits 2 naming the flag when the value is missing or malformed.
inline std::uint64_t
u64_arg(int argc, char** argv, int i)
{
    const char* value = value_arg(argc, argv, i);
    try {
        return io::parse_u64(value, argv[i]);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "%s\n", e.what());
        std::exit(2);
    }
}

/**
 * Parse `--threads N` from a figure driver's argv (default 1 = serial;
 * `--threads 0` means hardware concurrency). Results are bit-identical for
 * any thread count — the runner derives seeds from point indices alone —
 * so the flag only changes wall-clock time (and runner::parallel_for caps
 * the threads it starts at runner::kMaxWorkers).
 */
inline std::size_t
threads_arg(int argc, char** argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--threads") != 0)
            continue;
        const std::uint64_t n = u64_arg(argc, argv, i);
        if (n == 0) {
            const unsigned hw = std::thread::hardware_concurrency();
            return hw > 0 ? hw : 1;
        }
        return static_cast<std::size_t>(n);
    }
    return 1;
}

/// Print the figure banner.
inline void
banner(const std::string& figure, const std::string& caption)
{
    std::printf("=== %s ===\n", figure.c_str());
    std::printf("%s\n\n", caption.c_str());
}

/// Print a header row followed by a separator.
inline void
header(const std::vector<std::string>& columns)
{
    for (const auto& c : columns)
        std::printf("%14s", c.c_str());
    std::printf("\n");
    for (std::size_t i = 0; i < columns.size(); ++i)
        std::printf("%14s", "------------");
    std::printf("\n");
}

/// Print one row of mixed string/number cells.
inline void
row(const std::string& label, const std::vector<double>& values,
    const char* fmt = "%14.3f")
{
    std::printf("%14s", label.c_str());
    for (double v : values)
        std::printf(fmt, v);
    std::printf("\n");
}

inline void
footnote(const std::string& text)
{
    std::printf("\n%s\n\n", text.c_str());
}

} // namespace lognic::bench

#endif // LOGNIC_BENCH_BENCH_UTIL_HPP_
