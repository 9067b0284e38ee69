#include "lognic/runner/sweep.hpp"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <utility>

#include "attempt.hpp"
#include "lognic/io/checkpoint.hpp"
#include "lognic/runner/seed.hpp"
#include "lognic/runner/thread_pool.hpp"

namespace lognic::runner {

namespace {

std::string
format_gbps(double gbps)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "rate=%gGbps", gbps);
    return buf;
}

std::string
format_size(double bytes)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "size=%gB", bytes);
    return buf;
}

io::Json
to_json(const Summary& s)
{
    io::JsonObject o;
    o.emplace("n", io::Json(static_cast<double>(s.n)));
    o.emplace("mean", io::Json(s.mean));
    o.emplace("stddev", io::Json(s.stddev));
    o.emplace("ci95", io::Json(s.ci_half));
    return io::Json(std::move(o));
}

struct GuardedOutcome {
    SweepReport report;
    /// Live exception of the lowest failing (point, replication) task;
    /// null when that failure was replayed from a journal.
    std::exception_ptr first_error;
};

GuardedOutcome
run_guarded_impl(const std::vector<SweepPoint>& points,
                 const SweepOptions& options)
{
    const std::size_t reps = std::max<std::size_t>(options.replications, 1);
    std::vector<detail::Attempted> raw(points.size() * reps);

    // One task per (point, replication): replications of a slow point can
    // run alongside other points, and every outcome — including the retry
    // chain — is a pure function of the flattened index, never of the
    // executing thread or of other points' fates.
    parallel_for(raw.size(), options.threads, [&](std::size_t task) {
        // A journaled outcome (success or exhausted-retries failure) is
        // replayed verbatim: no simulation, no completion hook.
        if (options.resume_lookup
            && options.resume_lookup(task, raw[task].task))
            return;
        const std::size_t p = task / reps;
        const SweepPoint& pt = points[p];
        const auto fn = [&pt](std::uint64_t seed) {
            sim::SimOptions so = pt.options;
            so.seed = seed;
            return sim::simulate(pt.hw, pt.graph, pt.traffic, so);
        };
        const std::uint64_t seed0 =
            derive_seed(derive_seed(options.root_seed, p), task % reps);
        raw[task] = detail::attempt(fn, seed0, options.max_retries);
        if (options.on_task_complete)
            options.on_task_complete(task, raw[task].task);
    });

    GuardedOutcome out;
    for (std::size_t p = 0; p < points.size(); ++p) {
        std::size_t r = 0;
        while (r < reps && raw[p * reps + r].task.ok)
            ++r;
        if (r < reps) {
            const detail::Attempted& fail = raw[p * reps + r];
            FailedPoint f;
            f.index = p;
            f.label = points[p].label;
            f.replication = r;
            f.seed = fail.task.seed;
            f.attempts = fail.task.attempts;
            f.error = fail.task.error;
            if (out.report.failed.empty())
                out.first_error = fail.error;
            out.report.failed.push_back(std::move(f));
            continue;
        }
        std::vector<std::uint64_t> seeds;
        std::vector<sim::SimResult> results;
        seeds.reserve(reps);
        results.reserve(reps);
        for (r = 0; r < reps; ++r) {
            CompletedTask& t = raw[p * reps + r].task;
            if (t.result.truncated) {
                TruncationRecord tr;
                tr.index = p;
                tr.label = points[p].label;
                tr.replication = r;
                tr.seed = t.seed;
                tr.reason = t.result.truncation_reason;
                tr.sim_time_reached = t.result.sim_time_reached;
                out.report.truncated.push_back(std::move(tr));
            }
            seeds.push_back(t.seed);
            results.push_back(std::move(t.result));
        }
        PointResult pr;
        pr.index = p;
        pr.label = points[p].label;
        pr.stats = Replicator::aggregate(seeds, results);
        out.report.results.push_back(std::move(pr));
    }
    return out;
}

} // namespace

std::size_t
Sweep::add(SweepPoint point)
{
    points_.push_back(std::move(point));
    return points_.size() - 1;
}

std::vector<PointResult>
Sweep::run(const SweepOptions& options) const
{
    GuardedOutcome out = run_guarded_impl(points_, options);
    if (out.first_error)
        std::rethrow_exception(out.first_error);
    // A failure replayed from a checkpoint journal carries no live
    // exception; fail-fast still owes the caller a throw.
    if (!out.report.failed.empty())
        throw std::runtime_error(out.report.failed.front().error);
    return std::move(out.report.results);
}

SweepReport
Sweep::run_guarded(const SweepOptions& options) const
{
    return run_guarded_impl(points_, options).report;
}

SweepSpec
sweep_spec_from_json(const io::Json& doc)
{
    if (!doc.is_object() || !doc.contains("scenario")
        || !doc.contains("sweep"))
        throw std::runtime_error(
            "sweep spec: expected {\"scenario\": ..., \"sweep\": ...}");
    SweepSpec spec{io::scenario_from_json(doc.at("scenario")),
                   {}, {}, {}, {}};

    const io::Json& sw = doc.at("sweep");
    if (!sw.is_object())
        throw std::runtime_error("sweep spec: \"sweep\" must be an object");
    if (sw.contains("rates_gbps")) {
        for (const auto& v : sw.at("rates_gbps").as_array())
            spec.rates_gbps.push_back(v.as_number());
    }
    if (sw.contains("packet_sizes")) {
        for (const auto& v : sw.at("packet_sizes").as_array())
            spec.packet_sizes_bytes.push_back(v.as_number());
    }
    const std::string ctx = "sweep spec";
    spec.options.replications = io::size_field(sw, "replications", 1, ctx);
    spec.options.threads = io::size_field(sw, "threads", 1, ctx);
    spec.options.root_seed = io::u64_field(sw, "root_seed", 42, ctx);
    spec.options.max_retries = io::size_field(sw, "max_retries", 0, ctx);
    spec.sim.watchdog.max_events = io::u64_field(sw, "max_sim_events", 0, ctx);
    spec.sim.duration = sw.number_or("duration", spec.sim.duration);
    spec.sim.warmup_fraction =
        sw.number_or("warmup_fraction", spec.sim.warmup_fraction);
    const double deadline = sw.number_or("deadline_seconds", 0.0);
    if (deadline < 0.0)
        throw std::runtime_error("sweep spec: deadline_seconds must be >= 0");
    spec.sim.watchdog.wall_clock_seconds = deadline;
    if (sw.contains("faults"))
        spec.sim.faults = fault::fault_plan_from_json(sw.at("faults"));
    if (spec.options.replications == 0)
        throw std::runtime_error("sweep spec: replications must be >= 1");
    if (spec.sim.duration <= 0.0)
        throw std::runtime_error("sweep spec: duration must be > 0");
    return spec;
}

Sweep
build_sweep(const SweepSpec& spec)
{
    // An absent axis contributes a single "keep the base" element.
    std::vector<double> rates = spec.rates_gbps;
    if (rates.empty())
        rates.push_back(spec.base.traffic.ingress_bandwidth().gbps());
    std::vector<double> sizes = spec.packet_sizes_bytes;
    const bool size_axis = !sizes.empty();
    if (!size_axis)
        sizes.push_back(0.0); // placeholder: keep the base packet mix

    Sweep sweep;
    for (double size : sizes) {
        for (double rate : rates) {
            std::string label;
            core::TrafficProfile traffic = spec.base.traffic;
            if (size_axis) {
                traffic = core::TrafficProfile::fixed(
                    Bytes{size}, Bandwidth::from_gbps(rate));
                label = format_size(size) + "," + format_gbps(rate);
            } else {
                traffic.set_ingress_bandwidth(Bandwidth::from_gbps(rate));
                label = format_gbps(rate);
            }
            sweep.add(SweepPoint{std::move(label), spec.base.hw,
                                 spec.base.graph, std::move(traffic),
                                 spec.sim});
        }
    }
    return sweep;
}

io::Json
to_json(const PointResult& result)
{
    io::JsonObject o;
    o.emplace("index", io::Json(static_cast<double>(result.index)));
    o.emplace("label", io::Json(result.label));
    o.emplace("replications",
              io::Json(static_cast<double>(result.stats.replications)));
    o.emplace("degenerate",
              io::Json(static_cast<double>(result.stats.degenerate)));
    io::JsonArray seeds;
    for (std::uint64_t s : result.stats.seeds)
        seeds.emplace_back(io::u64_to_hex(s));
    o.emplace("seeds", io::Json(std::move(seeds)));
    o.emplace("delivered_gbps", to_json(result.stats.delivered_gbps));
    o.emplace("delivered_mops", to_json(result.stats.delivered_mops));
    o.emplace("mean_latency_us", to_json(result.stats.mean_latency_us));
    o.emplace("p50_latency_us", to_json(result.stats.p50_latency_us));
    o.emplace("p99_latency_us", to_json(result.stats.p99_latency_us));
    o.emplace("drop_rate", to_json(result.stats.drop_rate));
    // Aggregated structured snapshot (counters summed, gauges averaged
    // across replications); omitted when nothing was published.
    if (!result.stats.metrics.empty())
        o.emplace("metrics", result.stats.metrics.to_json());
    return io::Json(std::move(o));
}

io::Json
sweep_results_json(const std::vector<PointResult>& results)
{
    io::JsonArray points;
    for (const auto& r : results)
        points.push_back(to_json(r));
    io::JsonObject o;
    o.emplace("points", io::Json(std::move(points)));
    return io::Json(std::move(o));
}

io::Json
to_json(const FailedPoint& failure)
{
    io::JsonObject o;
    o.emplace("index", io::Json(static_cast<double>(failure.index)));
    o.emplace("label", io::Json(failure.label));
    o.emplace("replication",
              io::Json(static_cast<double>(failure.replication)));
    o.emplace("seed", io::Json(io::u64_to_hex(failure.seed)));
    o.emplace("attempts", io::Json(static_cast<double>(failure.attempts)));
    o.emplace("error", io::Json(failure.error));
    return io::Json(std::move(o));
}

io::Json
to_json(const TruncationRecord& record)
{
    io::JsonObject o;
    o.emplace("index", io::Json(static_cast<double>(record.index)));
    o.emplace("label", io::Json(record.label));
    o.emplace("replication",
              io::Json(static_cast<double>(record.replication)));
    o.emplace("seed", io::Json(io::u64_to_hex(record.seed)));
    o.emplace("reason", io::Json(record.reason));
    o.emplace("sim_time_reached", io::Json(record.sim_time_reached));
    return io::Json(std::move(o));
}

io::Json
to_json(const SweepReport& report)
{
    io::JsonObject o = sweep_results_json(report.results).as_object();
    io::JsonArray failed;
    for (const auto& f : report.failed)
        failed.push_back(to_json(f));
    io::JsonArray truncated;
    for (const auto& t : report.truncated)
        truncated.push_back(to_json(t));
    o.emplace("failed", io::Json(std::move(failed)));
    o.emplace("truncated", io::Json(std::move(truncated)));
    o.emplace("complete", io::Json(report.complete()));
    return io::Json(std::move(o));
}

std::string
sample_sweep_spec(const io::Scenario& base)
{
    io::JsonObject sw;
    sw.emplace("rates_gbps", io::Json(io::JsonArray{
                                 io::Json(5.0), io::Json(12.0)}));
    sw.emplace("replications", io::Json(2.0));
    sw.emplace("threads", io::Json(2.0));
    sw.emplace("root_seed", io::Json(42.0));
    sw.emplace("duration", io::Json(0.002));
    io::JsonObject doc;
    doc.emplace("scenario", io::to_json(base));
    doc.emplace("sweep", io::Json(std::move(sw)));
    return io::Json(std::move(doc)).dump();
}

} // namespace lognic::runner
