/**
 * @file
 * The repo benchmark program.
 *
 *   perfbench --workload W --seed N --seconds S --trace 0|1
 *             [--size full|small] [--out DIR]
 *
 * W is explore_grid, explore_nsga, check or des_long (see README.md).
 * Every generated input derives from --seed, except check's fixed
 * campaign (see check.hpp). setup_s is the median over
 * fresh processes, kProbesPerPass before each untraced pass, of the time
 * from spawning the process to the end of the workload's set-up, that is
 * to the first call into the entry point (each probe is this program run
 * with --setup-probe T, T being the parent's steady clock just before the
 * spawn). In this process the set-up runs repeatedly (at least
 * kMinSetupRepeats times and kSetupSeconds) for the median of its
 * layers. Then:
 *
 *  --trace 0  passes of the workload's fixed work through its public
 *             entry point (T = 2 threads where it takes a count) until S
 *             seconds have gone; prints the end-to-end metrics.
 *  --trace 1  pairs of one untraced serial pass and one traced replay
 *             until S seconds have gone; prints the per-layer metrics and
 *             writes them, with the trace of the last replay, under DIR.
 *
 * Every pass checks its outputs, and the counts and report digests in
 * Pass::exact must repeat exactly across all passes of a run (and between
 * the replay and the untraced pass). The last stdout line is one JSON
 * object: {"correct", "attempted", "failed", "metrics"}. Exit code 0 when
 * the benchmark ran (correct or not), 1 on an error.
 */
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

extern char** environ;

#include "check.hpp"
#include "common.hpp"
#include "des.hpp"
#include "explore.hpp"
#include "trace.hpp"

using namespace perfbench;

namespace {

constexpr std::size_t kMinSetupRepeats = 31;
constexpr double kSetupSeconds = 0.25;
constexpr std::size_t kProbesPerPass = 16;

struct Args {
    std::string workload;
    std::uint64_t seed{1};
    double seconds{10.0};
    bool trace{false};
    bool small{false};
    std::string out_dir{".bench_build/out"};
    /// Set when this process is a set-up probe: the parent's steady
    /// clock, in seconds, just before it spawned this process.
    double spawned_at{-1.0};
};

struct Metric {
    std::string name;
    std::string unit;
    double value;
};

[[noreturn]] void
usage(const std::string& why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "explore_grid|explore_nsga|check|des_long --seed N "
                 "--seconds S --trace 0|1 [--size full|small] [--out DIR]\n",
                 why.c_str());
    std::exit(2);
}

Args
parse_args(int argc, char** argv)
{
    Args a;
    for (int i = 1; i < argc; i += 2) {
        if (i + 1 >= argc)
            usage(std::string("missing value for ") + argv[i]);
        const std::string k = argv[i];
        const std::string v = argv[i + 1];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = lognic::io::parse_u64(v, "--seed");
        else if (k == "--seconds")
            a.seconds = std::stod(v);
        else if (k == "--trace" && (v == "0" || v == "1"))
            a.trace = v == "1";
        else if (k == "--size" && (v == "full" || v == "small"))
            a.small = v == "small";
        else if (k == "--out")
            a.out_dir = v;
        else if (k == "--setup-probe")
            a.spawned_at = std::stod(v);
        else
            usage("bad argument " + k + " " + v);
    }
    if (a.workload.empty())
        usage("--workload is required");
    if (!(a.seconds > 0.0))
        usage("--seconds must be > 0");
    return a;
}

std::unique_ptr<Workload>
make_workload(const Args& a)
{
    if (a.workload == "explore_grid")
        return std::make_unique<ExploreWorkload>(false, a.seed, a.small);
    if (a.workload == "explore_nsga")
        return std::make_unique<ExploreWorkload>(true, a.seed, a.small);
    if (a.workload == "check")
        return std::make_unique<CheckWorkload>(a.small, "tests/check/corpus",
                                               a.out_dir);
    if (a.workload == "des_long")
        return std::make_unique<DesWorkload>(a.seed, a.small);
    usage("unknown workload " + a.workload);
}

double
peak_rss_mb()
{
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

/// Every key of @p want must read the same in @p got.
void
require_same(Pass& got, const std::map<std::string, std::uint64_t>& want,
             const std::string& what)
{
    for (const auto& [key, value] : want) {
        const auto it = got.exact.find(key);
        if (it == got.exact.end() || it->second != value)
            got.errors.push_back(
                what + ": " + key + " = "
                + (it == got.exact.end() ? "missing"
                                         : std::to_string(it->second))
                + ", expected " + std::to_string(value));
    }
}

std::string
format_value(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/// Spawn this program as a set-up probe and return the seconds it
/// reports: process start to the end of its single set-up.
double
probe_setup_s(const Args& a)
{
    int fd[2];
    if (::pipe(fd) != 0)
        throw std::runtime_error("setup probe: pipe failed");
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fd[1], 1);
    posix_spawn_file_actions_addclose(&actions, fd[0]);
    posix_spawn_file_actions_addclose(&actions, fd[1]);
    const double t0 = now_s();
    std::vector<std::string> words = {
        "perfbench", "--workload", a.workload, "--seed",
        std::to_string(a.seed), "--seconds", "1", "--trace", "0", "--size",
        a.small ? "small" : "full", "--out", a.out_dir, "--setup-probe",
        format_value(t0)};
    std::vector<char*> argv;
    for (std::string& w : words)
        argv.push_back(w.data());
    argv.push_back(nullptr);
    pid_t pid = 0;
    const int rc = posix_spawn(&pid, "/proc/self/exe", &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(fd[1]);
    std::string out;
    char buf[256];
    for (ssize_t n; rc == 0 && (n = ::read(fd[0], buf, sizeof buf)) > 0;)
        out.append(buf, static_cast<std::size_t>(n));
    ::close(fd[0]);
    int status = 0;
    if (rc != 0 || ::waitpid(pid, &status, 0) != pid || !WIFEXITED(status)
        || WEXITSTATUS(status) != 0 || out.empty())
        throw std::runtime_error("setup probe failed");
    return std::stod(out);
}

void
print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
             const std::vector<Metric>& metrics)
{
    std::string out = std::string("{\"correct\": ")
                      + (correct ? "true" : "false")
                      + ", \"attempted\": " + std::to_string(attempted)
                      + ", \"failed\": " + std::to_string(failed)
                      + ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric& m = metrics[i];
        out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": "
               + format_value(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
}

/// Median of one per-pass quantity.
template <typename F>
double
median_of(const std::vector<Pass>& passes, F&& f)
{
    std::vector<double> v;
    for (const Pass& p : passes)
        v.push_back(f(p));
    return median(v);
}

double
count_of(const Pass& p, const std::string& key)
{
    const auto it = p.counts.find(key);
    return it == p.counts.end() ? 0.0 : it->second;
}

int
run_benchmark(const Args& args)
{
    std::unique_ptr<Workload> w = make_workload(args);
    if (args.spawned_at >= 0.0) {
        w->setup(nullptr);
        std::printf("%s\n", format_value(now_s() - args.spawned_at).c_str());
        return 0;
    }
    std::filesystem::create_directories(args.out_dir);

    // Set-up in this process, repeated for the median of the layer the
    // set-up calls (io.parse): one takes 40 us on explore_grid and the
    // first few run cold, so it repeats for a fixed time, enough for the
    // median to settle.
    std::vector<double> parse_s;
    const double setup_start = now_s();
    while (parse_s.size() < kMinSetupRepeats
           || now_s() - setup_start < kSetupSeconds) {
        Tracer t(now_s());
        w->setup(&t);
        parse_s.push_back(t.self_s(kIoParse));
    }

    std::vector<double> setup_s;  // set-up probes, --trace 0 only
    std::vector<Pass> passes;     // untraced
    std::vector<Pass> traced;     // --trace 1 only
    std::vector<std::vector<double>> self; // per traced pass, per layer
    std::unique_ptr<Tracer> last_tracer;
    const double start = now_s();
    do {
        if (!args.trace) {
            // Spread over the run, the probes see the machine states the
            // passes see, not only those of its first moment.
            for (std::size_t i = 0; i < kProbesPerPass; ++i)
                setup_s.push_back(probe_setup_s(args));
            passes.push_back(w->run(kThreads));
            std::fprintf(stderr, "perfbench: pass %zu wall %.4f s\n",
                         passes.size(), passes.back().wall_s);
            continue;
        }
        // The untraced reference is serial, like the replay, so the
        // difference between the two is the tracing overhead.
        passes.push_back(w->run(1));
        auto t = std::make_unique<Tracer>(now_s());
        t->begin(kRoot);
        Pass p = w->replay(*t);
        t->end(kRoot);
        if (t->open_spans() != 0)
            p.errors.push_back("traced replay left spans open");
        require_same(p, passes.back().exact, "replay vs untraced pass");
        std::vector<double> s(kLayerCount);
        for (std::size_t l = 0; l < kLayerCount; ++l)
            s[l] = t->self_s(l);
        self.push_back(std::move(s));
        traced.push_back(std::move(p));
        last_tracer = std::move(t);
    } while (now_s() - start < args.seconds);

    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    const auto collect = [&](std::vector<Pass>& ps, const char* what) {
        for (Pass& p : ps) {
            require_same(p, passes.front().exact,
                         std::string(what) + " vs first pass");
            attempted += p.attempted;
            failed += p.failed;
            for (const std::string& e : p.errors) {
                std::fprintf(stderr, "perfbench: %s\n", e.c_str());
                correct = false;
            }
        }
    };
    collect(passes, "pass");
    collect(traced, "traced pass");

    std::vector<Metric> metrics;
    if (!args.trace) {
        const double wall = median_of(passes, [](const Pass& p) {
            return p.wall_s;
        });
        const double work = passes.front().work;
        metrics = {
            {"wall_s", "s", wall},
            {"setup_s", "s", median(setup_s)},
            {"peak_rss_mb", "MB", peak_rss_mb()},
            {"work_per_s", "1/s", work / wall},
        };
    } else {
        const double wall = median_of(traced, [](const Pass& p) {
            return p.wall_s;
        });
        const auto layer = [&](std::size_t l) {
            std::vector<double> v;
            for (const auto& s : self)
                v.push_back(s[l]);
            return median(v);
        };
        const Pass& p = traced.back();
        const double requests = count_of(p, "dse.requests");
        const double solves = count_of(p, "dse.solves");
        const double nic_run = layer(kSimNic);
        const double panic_run = layer(kSimPanic);
        const double nic_events = count_of(p, "sim.nic.events");
        const double panic_events = count_of(p, "sim.panic.events");
        const double sims_run = count_of(p, "check.sims_run");
        const auto ratio = [](double a, double b) {
            return b > 0.0 ? a / b : 0.0;
        };
        // Accuracy is deterministic per seed; any pass gives it.
        const Pass& u = passes.front();
        metrics = {
            {"dse.key_s", "s", layer(kDseKey)},
            {"dse.memo_s", "s", layer(kDseMemo)},
            {"dse.coordinator_s", "s", layer(kDseCoordinator)},
            {"dse.prune_s", "s", layer(kDsePrune)},
            {"dse.pareto_s", "s", layer(kDsePareto)},
            {"dse.des_validate_s", "s", layer(kDseDesValidate)},
            {"dse.materialize_s", "s", layer(kDseMaterialize)},
            {"dse.requests", "count", requests},
            {"dse.solves", "count", solves},
            {"dse.pruned", "count", count_of(p, "dse.pruned")},
            {"dse.memo_hits", "count", count_of(p, "dse.memo_hits")},
            {"dse.solve_ratio", "frac", ratio(solves, requests)},
            {"dse.memo_hit_ratio", "frac",
             ratio(count_of(p, "dse.memo_hits"), requests)},
            {"core.validate_s", "s", layer(kCoreValidate)},
            {"core.throughput_s", "s", layer(kCoreThroughput)},
            {"core.latency_s", "s", layer(kCoreLatency)},
            {"core.throughput_us_p50", "us", quantile(p.throughput_us, 0.5)},
            {"core.latency_us_p50", "us", quantile(p.latency_us, 0.5)},
            {"core.latency_us_p99", "us", quantile(p.latency_us, 0.99)},
            {"sim.nic.events", "count", nic_events},
            {"sim.nic.run_s", "s", nic_run},
            {"sim.nic.ns_per_event", "ns", 1e9 * ratio(nic_run, nic_events)},
            {"sim.panic.events", "count", panic_events},
            {"sim.panic.run_s", "s", panic_run},
            {"sim.panic.ns_per_event", "ns",
             1e9 * ratio(panic_run, panic_events)},
            {"check.generate_s", "s", layer(kCheckGenerate)},
            // Every run the harness simulates: main runs plus ladders.
            {"check.simulate_s", "s",
             args.workload == "check" ? nic_run + layer(kCheckLadder) : 0.0},
            {"check.ladder_s", "s", layer(kCheckLadder)},
            {"check.oracle_s", "s", layer(kCheckOracle)},
            {"check.shrink_s", "s", layer(kCheckShrink)},
            {"check.sims_run", "count", sims_run},
            {"check.violations", "count", count_of(p, "check.violations")},
            {"ckpt.publish_s", "s", layer(kCkptPublish)},
            {"ckpt.publishes", "count", count_of(p, "ckpt.publishes")},
            {"io.parse_s", "s", median(parse_s)},
            {"io.dump_s", "s", layer(kIoDump)},
            {"acc.pairs", "count", static_cast<double>(u.tput_err.size())},
            {"acc.tput_err_p50", "frac", quantile(u.tput_err, 0.5)},
            {"acc.tput_err_max", "frac", quantile(u.tput_err, 1.0)},
            {"acc.p99_err_p50", "frac", quantile(u.p99_err, 0.5)},
            {"trace_overhead_frac", "frac",
             wall / median_of(passes, [](const Pass& q) { return q.wall_s; })
                 - 1.0},
            {"unattributed_frac", "frac", layer(kRoot) / wall},
        };
        const std::string stem = args.out_dir + "/" + args.workload + "-seed"
                                 + std::to_string(args.seed);
        last_tracer->write(stem + ".trace.json");
        lognic::io::Json table;
        for (const Metric& m : metrics) {
            lognic::io::Json j;
            j.set("value", lognic::io::Json(m.value));
            j.set("unit", lognic::io::Json(m.unit));
            table.set(m.name, std::move(j));
        }
        std::ofstream out(stem + ".layers.json");
        out << table.dump(2) << "\n";
        if (!out)
            throw std::runtime_error("cannot write " + stem + ".layers.json");
    }
    print_result(correct, attempted, failed, metrics);
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    try {
        return run_benchmark(parse_args(argc, argv));
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
