/**
 * @file
 * Exploration supervision: the campaign fingerprint, the journal entry
 * codecs, and explore() run through the ckpt supervision core.
 */
#include "lognic/dse/supervise.hpp"

#include <stdexcept>
#include <utility>

#include "lognic/io/checkpoint.hpp"
#include "lognic/io/serialize.hpp"

namespace lognic::dse {
namespace {

/**
 * Everything that shapes the result stream, hashed or listed verbatim:
 * base scenario, knob grid, objectives, constraints, strategy, seed, and
 * search/DES options. Thread count is excluded on purpose — it may never
 * influence results, so checkpoints are portable across --threads. The
 * prune mode is excluded for the same reason: pruning may never change
 * the result stream, so a journal written under --prune=on resumes
 * cleanly under --prune=off and vice versa.
 */
io::Json
campaign_fingerprint(const DesignSpace& space,
                     const std::vector<ObjectiveSpec>& objectives,
                     const std::vector<Constraint>& constraints,
                     const ExploreOptions& opts)
{
    io::Json fp;
    fp.set("workload", io::Json("explore"));
    fp.set("scenario", io::Json(io::u64_to_hex(io::fnv1a64(
                           io::to_json(space.base()).dump(-1)))));
    std::string knobs;
    for (std::size_t i = 0; i < space.size(); ++i) {
        const Knob& k = space.knob(i);
        knobs += k.name;
        knobs += '=';
        for (double v : k.values)
            knobs += io::double_to_hex(v) + ",";
        knobs += '@' + io::double_to_hex(k.cost_weight) + ';';
    }
    fp.set("knobs", io::Json(io::u64_to_hex(io::fnv1a64(knobs))));
    std::string objs;
    for (const ObjectiveSpec& o : objectives)
        objs += o.name + (o.sense == Sense::kMaximize ? ":max;" : ":min;");
    fp.set("objectives", io::Json(objs));
    std::string cons;
    for (const Constraint& c : constraints)
        cons += c.metric + ":" + io::double_to_hex(c.lower) + ":"
                + io::double_to_hex(c.upper) + ";";
    fp.set("constraints", io::Json(cons));
    fp.set("strategy", io::Json(strategy_name(opts.strategy)));
    fp.set("seed", io::Json(io::u64_to_hex(opts.seed)));
    fp.set("budget", io::Json(static_cast<double>(opts.budget)));
    fp.set("population", io::Json(static_cast<double>(opts.population)));
    fp.set("generations", io::Json(static_cast<double>(opts.generations)));
    io::Json des;
    des.set("enabled", io::Json(opts.des.enabled));
    des.set("replications",
            io::Json(static_cast<double>(opts.des.replications)));
    des.set("duration", io::Json(io::double_to_hex(opts.des.duration)));
    des.set("warmup_fraction",
            io::Json(io::double_to_hex(opts.des.warmup_fraction)));
    fp.set("des", std::move(des));
    return fp;
}

/// DesValidation's double fields by journal name, hex-encoded bit-exactly.
constexpr std::pair<const char*, double DesValidation::*> kDesDoubles[] = {
    {"delivered_gbps", &DesValidation::delivered_gbps},
    {"mean_latency_us", &DesValidation::mean_latency_us},
    {"p99_latency_us", &DesValidation::p99_latency_us},
    {"drop_rate", &DesValidation::drop_rate},
    {"throughput_disagreement", &DesValidation::throughput_disagreement},
    {"p99_disagreement", &DesValidation::p99_disagreement}};

} // namespace

// --- journal entry serialization ----------------------------------------------

io::Json
evaluation_to_json(const Evaluation& e)
{
    io::Json j;
    io::Json objectives{io::JsonArray{}};
    for (double v : e.objectives)
        objectives.push_back(io::Json(io::double_to_hex(v)));
    j.set("objectives", std::move(objectives));
    j.set("feasible", io::Json(e.feasible));
    j.set("finite", io::Json(e.finite));
    j.set("pruned", io::Json(e.pruned));
    j.set("why", io::Json(e.why));
    return j;
}

Evaluation
evaluation_from_json(const io::Json& j)
{
    Evaluation e;
    for (const io::Json& v : j.at("objectives").as_array())
        e.objectives.push_back(
            io::double_from_hex(v.as_string(), "evaluation objective"));
    e.feasible = j.at("feasible").as_bool();
    e.finite = j.at("finite").as_bool();
    // Absent in journals written before pruning existed; those entries
    // were all real solves.
    e.pruned = j.contains("pruned") && j.at("pruned").as_bool();
    e.why = j.at("why").as_string();
    return e;
}

io::Json
des_validation_to_json(const DesValidation& v)
{
    io::Json j;
    j.set("ok", io::Json(v.ok));
    j.set("error", io::Json(v.error));
    j.set("seed", io::Json(io::u64_to_hex(v.seed)));
    j.set("replications", io::Json(io::u64_to_hex(v.replications)));
    for (const auto& [name, field] : kDesDoubles)
        j.set(name, io::Json(io::double_to_hex(v.*field)));
    return j;
}

DesValidation
des_validation_from_json(const io::Json& j)
{
    DesValidation v;
    v.ok = j.at("ok").as_bool();
    v.error = j.at("error").as_string();
    v.seed = io::parse_u64(j.at("seed").as_string(), "des validation seed");
    v.replications = io::parse_u64(j.at("replications").as_string(),
                                   "des validation replications");
    for (const auto& [name, field] : kDesDoubles)
        v.*field = io::double_from_hex(j.at(name).as_string(),
                                       std::string("des validation ") + name);
    return v;
}

// --- ExploreJournal -----------------------------------------------------------

io::Json
ExploreJournal::to_json() const
{
    io::Json j;
    evals.write_to(j);
    des.write_to(j);
    return j;
}

void
ExploreJournal::load_json(const io::Json& j)
{
    evals.load_json(j);
    des.load_json(j);
}

std::size_t
ExploreJournal::size() const
{
    return evals.size() + des.size();
}

// --- supervise_exploration ----------------------------------------------------

SupervisedExploration
supervise_exploration(const DesignSpace& space,
                      const std::vector<ObjectiveSpec>& objectives,
                      const std::vector<Constraint>& constraints,
                      ExploreOptions opts, const ckpt::SupervisorOptions& sup,
                      obs::MetricsRegistry* metrics)
{
    if (opts.resume_eval || opts.on_eval || opts.resume_des || opts.on_des)
        throw std::invalid_argument(
            "supervise_exploration: opts.resume_eval/on_eval/resume_des/"
            "on_des are owned by the supervisor and must be unset");

    ExploreJournal journal;
    SupervisedExploration result;
    ckpt::supervise(
        sup, kExploreCheckpointKind,
        campaign_fingerprint(space, objectives, constraints, opts), journal,
        result, [&](const auto& tick) {
            opts.resume_eval = journal.evals.lookup_fn();
            opts.on_eval = journal.evals.record_fn(tick);
            opts.resume_des = journal.des.lookup_fn();
            opts.on_des = journal.des.record_fn(tick);
            result.report =
                explore(space, objectives, constraints, opts, metrics);
        });
    if (sup.log)
        sup.log("checkpoint: exploration finished; "
                + std::to_string(result.checkpoints)
                + " generation(s) published to '" + sup.dir + "'");
    return result;
}

} // namespace lognic::dse
