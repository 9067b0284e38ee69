/**
 * @file
 * Completed-work journals: the field lists of the result types the
 * journal codecs carry, each walked by io::write_record to save and by
 * io::read_record to load. The journal itself is the Journal<Codec>
 * template in journal.hpp, which also states the format contract.
 */
#include "lognic/ckpt/journal.hpp"

#include "lognic/io/record.hpp"

namespace lognic::ckpt {

namespace {

constexpr const char* kContext = "journal";

constexpr auto histogram_fields = [](auto& io, auto& h) {
    io.field("bounds", h.bounds);
    io.field("counts", h.counts);
    io.field("total", h.total);
    io.field("sum", h.sum);
};

constexpr auto metrics_fields = [](auto& io, auto& m) {
    io.field("counters", m.counters);
    io.field("gauges", m.gauges);
    io.records("histograms", m.histograms, histogram_fields);
};

constexpr auto vertex_stats_fields = [](auto& io, auto& vs) {
    io.field("name", vs.name);
    io.field("utilization", vs.utilization);
    io.field("mean_occupancy", vs.mean_occupancy);
    io.field("served", vs.served);
    io.field("dropped", vs.dropped);
};

constexpr auto sim_result_fields = [](auto& io, auto& r) {
    io.field("delivered", r.delivered);
    io.field("delivered_ops", r.delivered_ops);
    io.field("mean_latency", r.mean_latency);
    io.field("p50_latency", r.p50_latency);
    io.field("p99_latency", r.p99_latency);
    io.field("generated", r.generated);
    io.field("completed", r.completed);
    io.field("dropped", r.dropped);
    io.field("drop_rate", r.drop_rate);
    io.field("completed_total", r.completed_total);
    io.field("dropped_total", r.dropped_total);
    io.field("in_flight", r.in_flight);
    io.field("truncated", r.truncated);
    io.field("truncation_reason", r.truncation_reason);
    io.field("sim_time_reached", r.sim_time_reached);
    io.field("events_executed", r.events_executed);
    io.records("vertex_stats", r.vertex_stats, vertex_stats_fields);
    io.record("metrics", r.metrics, metrics_fields);
};

constexpr auto completed_task_fields = [](auto& io, auto& t) {
    io.field("ok", t.ok);
    io.field("seed", t.seed);
    io.field("attempts", t.attempts);
    io.field("error", t.error);
    if (t.ok)
        io.record("result", t.result, sim_result_fields);
};

constexpr auto violation_fields = [](auto& io, auto& v) {
    check::violation_fields(io, v);
    // What a load restores: the readable numbers are not exact.
    io.field("measured_bits", v.measured);
    io.field("expected_bits", v.expected);
    io.field("tolerance_bits", v.tolerance);
};

constexpr auto trial_failure_fields = [](auto& io, auto& f) {
    io.field("name", f.name);
    io.field("generator_seed", f.generator_seed);
    io.field("single_queue", f.single_queue);
    io.records("violations", f.violations, violation_fields);
    // The minimal spec is a scenario document built from parsed JSON; the
    // io layer's %.17g round-trips every finite double it contains.
    io.field("minimal_spec", f.minimal_spec);
};

constexpr auto trial_outcome_fields = [](auto& io, auto& t) {
    io.field("single_queue", t.single_queue);
    io.field("sims_run", t.sims_run);
    io.field("violations", t.violations);
    io.field("failed", t.failed);
    if (t.failed)
        io.record("failure", t.failure, trial_failure_fields);
};

constexpr auto start_outcome_fields = [](auto& io, auto& o) {
    io.field("index", o.index);
    io.field("seed", o.seed);
    io.field("initial_loss", o.initial_loss);
    io.field("final_loss", o.final_loss);
    io.field("converged", o.converged);
    io.field("failed", o.failed);
    io.field("message", o.message);
    io.field("iterations", o.iterations);
    io.field("model_solves", o.model_solves);
    io.field("cache_hits", o.cache_hits);
    io.field("cache_misses", o.cache_misses);
};

constexpr auto start_record_fields = [](auto& io, auto& r) {
    io.record("outcome", r.outcome, start_outcome_fields);
    io.field("x", r.x);
    io.field("residuals", r.residuals);
    io.field("convergence", r.convergence);
};

} // namespace

io::Json
sim_result_to_json(const sim::SimResult& r)
{
    return io::write_record(r, sim_result_fields);
}

sim::SimResult
sim_result_from_json(const io::Json& j)
{
    return io::read_record<sim::SimResult>(j, sim_result_fields, kContext);
}

io::Json
completed_task_to_json(const runner::CompletedTask& t)
{
    return io::write_record(t, completed_task_fields);
}

runner::CompletedTask
completed_task_from_json(const io::Json& j)
{
    return io::read_record<runner::CompletedTask>(j, completed_task_fields,
                                                  kContext);
}

io::Json
trial_outcome_to_json(const check::TrialOutcome& t)
{
    return io::write_record(t, trial_outcome_fields);
}

check::TrialOutcome
trial_outcome_from_json(const io::Json& j)
{
    return io::read_record<check::TrialOutcome>(j, trial_outcome_fields,
                                                kContext);
}

io::Json
start_record_to_json(const calib::StartRecord& r)
{
    return io::write_record(r, start_record_fields);
}

calib::StartRecord
start_record_from_json(const io::Json& j)
{
    return io::read_record<calib::StartRecord>(j, start_record_fields,
                                               kContext);
}

} // namespace lognic::ckpt
