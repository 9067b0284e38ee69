#include "lognic/check/harness.hpp"

#include <utility>

#include "lognic/io/checkpoint.hpp"

namespace lognic::check {

namespace {

io::Json
options_to_json(const sim::SimOptions& opts, bool monotonicity)
{
    io::Json j;
    j.set("duration", opts.duration);
    j.set("warmup_fraction", opts.warmup_fraction);
    j.set("seed", io::u64_json(opts.seed));
    j.set("exponential_service", opts.exponential_service);
    j.set("poisson_arrivals", opts.poisson_arrivals);
    j.set("monotonicity", monotonicity);
    return j;
}

sim::SimOptions
options_from_json(const io::Json& j)
{
    sim::SimOptions opts;
    opts.duration = j.number_or("duration", opts.duration);
    opts.warmup_fraction =
        j.number_or("warmup_fraction", opts.warmup_fraction);
    opts.seed = io::u64_field(j, "seed", 42, "check spec options");
    if (j.contains("exponential_service"))
        opts.exponential_service = j.at("exponential_service").as_bool();
    if (j.contains("poisson_arrivals"))
        opts.poisson_arrivals = j.at("poisson_arrivals").as_bool();
    return opts;
}

io::Json
spec_json(const std::string& name, const io::Scenario& sc,
          const sim::SimOptions& opts, bool monotonicity)
{
    io::Json j;
    j.set("name", name);
    j.set("options", options_to_json(opts, monotonicity));
    j.set("scenario", io::to_json(sc));
    return j;
}

/**
 * Shrink a failing spec: try cheaper variants in order (shorter horizon
 * twice, then a single-class restriction, then dropping the monotonicity
 * ladder) and keep each reduction that still fails *some* oracle. The
 * result is the smallest variant this greedy pass found — a handful of
 * extra runs, not a full delta-debugging loop, which is the right cost
 * for a default-on feature.
 */
io::Json
minimize_spec(const std::string& name, io::Scenario sc,
              sim::SimOptions opts, bool monotonicity,
              const CheckOptions& copts, std::uint64_t* sims_run)
{
    const auto still_fails = [&](const io::Scenario& s,
                                 const sim::SimOptions& o, bool mono) {
        return !check_scenario(s, o, copts, mono, sims_run).empty();
    };
    for (int halvings = 0; halvings < 2; ++halvings) {
        sim::SimOptions shorter = opts;
        shorter.duration = opts.duration / 2.0;
        if (still_fails(sc, shorter, monotonicity))
            opts = shorter;
        else
            break;
    }
    if (sc.traffic.classes().size() > 1) {
        io::Scenario narrowed = sc;
        narrowed.traffic = sc.traffic.class_profile(0);
        if (still_fails(narrowed, opts, monotonicity))
            sc = std::move(narrowed);
    }
    if (monotonicity && still_fails(sc, opts, false))
        monotonicity = false;
    return spec_json(name, sc, opts, monotonicity);
}

/// Run one trial/corpus unit to a self-contained outcome (the unit of
/// checkpoint journaling).
TrialOutcome
run_one_outcome(const CheckOptions& copts, const std::string& name,
                std::uint64_t generator_seed, bool single_queue,
                const io::Scenario& sc, const sim::SimOptions& opts,
                bool monotonicity)
{
    TrialOutcome out;
    out.single_queue = single_queue;
    std::vector<Violation> violations =
        check_scenario(sc, opts, copts, monotonicity, &out.sims_run);
    if (violations.empty())
        return out;
    out.violations = violations.size();
    out.failed = true;
    out.failure.name = name;
    out.failure.generator_seed = generator_seed;
    out.failure.single_queue = single_queue;
    out.failure.minimal_spec = copts.minimize
        ? minimize_spec(name, sc, opts, monotonicity, copts,
                        &out.sims_run)
        : spec_json(name, sc, opts, monotonicity);
    out.failure.violations = std::move(violations);
    return out;
}

/// Fold a unit's outcome — fresh or replayed — into the report.
void
apply_outcome(CheckReport& report, const TrialOutcome& out)
{
    report.sims_run += out.sims_run;
    report.violations += out.violations;
    if (out.failed)
        report.failures.push_back(out.failure);
}

void
run_one(CheckReport& report, const CheckOptions& copts,
        const std::string& key, const std::string& name,
        std::uint64_t generator_seed, bool single_queue,
        const io::Scenario& sc, const sim::SimOptions& opts,
        bool monotonicity)
{
    TrialOutcome out = run_one_outcome(copts, name, generator_seed,
                                       single_queue, sc, opts,
                                       monotonicity);
    apply_outcome(report, out);
    if (copts.on_trial_complete)
        copts.on_trial_complete(key, out);
}

} // namespace

io::Json
to_json(const CorpusEntry& entry)
{
    return spec_json(entry.name, entry.scenario, entry.options,
                     entry.monotonicity);
}

CorpusEntry
corpus_entry_from_json(const io::Json& j)
{
    CorpusEntry entry{j.at("name").as_string(),
                      io::scenario_from_json(j.at("scenario"))};
    if (j.contains("options")) {
        entry.options = options_from_json(j.at("options"));
        if (j.at("options").contains("monotonicity"))
            entry.monotonicity =
                j.at("options").at("monotonicity").as_bool();
    }
    return entry;
}

io::Json
to_json(const CheckReport& report)
{
    io::Json j;
    j.set("trials", static_cast<double>(report.trials));
    j.set("corpus_entries", static_cast<double>(report.corpus_entries));
    j.set("single_queue_trials",
          static_cast<double>(report.single_queue_trials));
    j.set("sims_run", static_cast<double>(report.sims_run));
    j.set("violations", static_cast<double>(report.violations));
    io::Json failures;
    for (const auto& f : report.failures) {
        io::Json fj;
        fj.set("name", f.name);
        fj.set("generator_seed", io::u64_json(f.generator_seed));
        fj.set("single_queue", f.single_queue);
        io::Json vs;
        for (const auto& v : f.violations)
            vs.push_back(to_json(v));
        fj.set("violations", vs);
        fj.set("minimal_spec", f.minimal_spec);
        failures.push_back(fj);
    }
    if (report.failures.empty())
        failures = io::Json{io::JsonArray{}};
    j.set("failures", failures);
    return j;
}

CheckReport
merge(CheckReport a, const CheckReport& b)
{
    a.trials += b.trials;
    a.corpus_entries += b.corpus_entries;
    a.single_queue_trials += b.single_queue_trials;
    a.sims_run += b.sims_run;
    a.violations += b.violations;
    a.failures.insert(a.failures.end(), b.failures.begin(),
                      b.failures.end());
    return a;
}

std::vector<Violation>
check_scenario(const io::Scenario& sc, const sim::SimOptions& opts,
               const CheckOptions& copts, bool run_monotonicity,
               std::uint64_t* sims_run)
{
    const sim::SimResult res =
        sim::simulate(sc.hw, sc.graph, sc.traffic, opts);
    if (sims_run)
        ++*sims_run;
    std::vector<Violation> out =
        check_invariants(sc, opts, res, copts.invariants);
    for (auto& v : check_model_vs_sim(sc, res, copts.conformance))
        out.push_back(std::move(v));
    for (auto& v :
         check_closed_forms(sc, opts, res, copts.conformance))
        out.push_back(std::move(v));
    if (run_monotonicity && copts.monotonicity)
        for (auto& v : check_latency_monotonicity(
                 sc, opts, copts.conformance, sims_run))
            out.push_back(std::move(v));
    return out;
}

CheckReport
run_trials(const CheckOptions& copts)
{
    CheckReport report;
    for (std::uint64_t i = 0; i < copts.trials; ++i) {
        const std::string key = "trial:" + std::to_string(i);
        if (copts.resume_lookup) {
            TrialOutcome done;
            if (copts.resume_lookup(key, done)) {
                // Journaled outcome: replay without even regenerating
                // the scenario — the outcome carries everything the
                // report needs.
                ++report.trials;
                if (done.single_queue)
                    ++report.single_queue_trials;
                apply_outcome(report, done);
                continue;
            }
        }
        const std::uint64_t trial_seed =
            runner::derive_seed(copts.seed, i);
        const GeneratedScenario gen =
            generate_scenario(trial_seed, copts.generator);
        ++report.trials;
        if (gen.single_queue)
            ++report.single_queue_trials;
        sim::SimOptions opts;
        opts.duration = copts.duration;
        opts.warmup_fraction = copts.warmup_fraction;
        // The simulation seed derives from the trial seed on a separate
        // index so scenario shape and sample path are independent draws.
        opts.seed = runner::derive_seed(trial_seed, 1);
        run_one(report, copts, key, "trial-" + std::to_string(i),
                trial_seed, gen.single_queue, gen.scenario, opts,
                copts.monotonicity);
    }
    return report;
}

CheckReport
replay_corpus(const std::vector<CorpusEntry>& entries,
              const CheckOptions& copts)
{
    CheckReport report;
    for (const auto& entry : entries) {
        ++report.corpus_entries;
        const std::string key = "corpus:" + entry.name;
        if (copts.resume_lookup) {
            TrialOutcome done;
            if (copts.resume_lookup(key, done)) {
                apply_outcome(report, done);
                continue;
            }
        }
        run_one(report, copts, key, entry.name, 0, false, entry.scenario,
                entry.options, entry.monotonicity);
    }
    return report;
}

} // namespace lognic::check
