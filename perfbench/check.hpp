/**
 * @file
 * The `check` workload: a supervised conformance campaign, the slowest
 * user command. ckpt::supervise_check replays the golden corpus under
 * tests/check/corpus and then runs 32 random trials, each with the
 * monotonicity ladder, and publishes a checkpoint every 8 units into a
 * scratch directory: `lognic check --trials 32 --seed 7 --corpus
 * tests/check/corpus` with checkpoints. Many short NicSimulator runs
 * dominate; dse and the model are almost absent.
 *
 * The campaign does not depend on --seed. Its trials are the first 32 of
 * the CI gate's `lognic check --trials 200 --seed 7`, scenario shapes and
 * sample paths both, so every unit is one the repository already requires
 * to pass. Sample paths drawn from --seed made the closed-form M/M/1/N
 * oracle fire on trial 12 (rho ~ 0.94, where a 40 ms window's occupancy
 * mean has a ~10% standard deviation against a 20% band) at about 7% of
 * seeds, although the simulator matches the closed form on average; and
 * shapes drawn from --seed varied a pass's work by ~15% from seed to seed.
 *
 * replay() runs the same units through the public calls the supervisor
 * composes: generate_scenario for the trials, sim::simulate, the check_*
 * oracles, and a CheckJournal + CheckpointStore publication every 8 units.
 * Shrinking a failing spec is not public, so a failing unit is re-run
 * through replay_corpus (which shrinks it) inside the check.shrink span.
 */
#ifndef LOGNIC_PERFBENCH_CHECK_HPP_
#define LOGNIC_PERFBENCH_CHECK_HPP_

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <unistd.h>

#include "common.hpp"
#include "lognic/check/harness.hpp"
#include "lognic/ckpt/journal.hpp"
#include "lognic/ckpt/store.hpp"
#include "lognic/ckpt/supervisor.hpp"
#include "lognic/io/checkpoint.hpp"
#include "lognic/runner/seed.hpp"

namespace perfbench {

namespace check = lognic::check;
namespace ckpt = lognic::ckpt;

class CheckWorkload : public Workload {
  public:
    static constexpr std::uint64_t kEvery = 8;
    /// Root seed of the trials: the CI gate's campaign.
    static constexpr std::uint64_t kCampaignSeed = 7;

    CheckWorkload(bool small, std::string corpus_dir,
                  std::string scratch_dir)
        : small_(small), corpus_dir_(std::move(corpus_dir)),
          scratch_dir_(std::move(scratch_dir))
    {
    }

    void setup(Tracer* t) override
    {
        std::vector<std::filesystem::path> files;
        for (const auto& e :
             std::filesystem::directory_iterator(corpus_dir_))
            if (e.path().extension() == ".json")
                files.push_back(e.path());
        std::sort(files.begin(), files.end());
        if (files.empty())
            throw std::runtime_error("no corpus entries in " + corpus_dir_);
        std::vector<std::string> texts;
        for (const auto& f : files) {
            std::ifstream in(f);
            std::stringstream ss;
            ss << in.rdbuf();
            if (!in)
                throw std::runtime_error("cannot read " + f.string());
            texts.push_back(ss.str());
        }

        copts_ = check::CheckOptions{};
        copts_.trials = small_ ? 4 : 32;
        copts_.seed = kCampaignSeed;

        Span ps(t, kIoParse);
        corpus_.clear();
        for (const auto& text : texts)
            corpus_.push_back(
                check::corpus_entry_from_json(lognic::io::Json::parse(text)));
    }

    Pass run(std::size_t) override
    {
        const std::string dir = fresh_dir();
        ckpt::SupervisorOptions sup;
        sup.dir = dir;
        sup.resume = false;
        sup.checkpoint_every = kEvery;
        Pass pass;
        const double t0 = now_s();
        const ckpt::SupervisedCheck out =
            ckpt::supervise_check(copts_, corpus_, sup);
        const std::string json = check::to_json(out.report).dump(2);
        pass.wall_s = now_s() - t0;
        std::filesystem::remove_all(dir);
        finish(pass, out.report, json, out.checkpoints);
        return pass;
    }

    Pass replay(Tracer& t) override
    {
        const std::string dir = fresh_dir();
        Pass pass;
        const double t0 = now_s();
        Span ps(&t, kCkptPublish);
        ckpt::CheckpointStore store(dir, "check");
        ps.close();
        ckpt::CheckJournal journal;
        const lognic::io::Json fp = fingerprint();
        std::uint64_t pending = 0;
        std::uint64_t publishes = 0;
        const auto publish = [&] {
            Span s(&t, kCkptPublish);
            lognic::io::Json doc;
            doc.set("fingerprint", fp);
            doc.set("journal", journal.to_json());
            store.save(doc.dump(-1));
            ++publishes;
            pending = 0;
        };

        check::CheckReport report;
        std::uint64_t events = 0;
        // One unit as the harness runs it: the main simulation, the
        // oracles, the ladder, and a shrink when anything fired.
        const auto unit = [&](const std::string& key, const std::string& name,
                              std::uint64_t generator_seed, bool single_queue,
                              const lognic::io::Scenario& sc,
                              const lognic::sim::SimOptions& opts,
                              bool monotonicity) {
            check::TrialOutcome out;
            out.single_queue = single_queue;
            Span ss(&t, kSimNic);
            const lognic::sim::SimResult res =
                lognic::sim::simulate(sc.hw, sc.graph, sc.traffic, opts);
            ss.close();
            ++out.sims_run;
            events += res.events_executed;
            pass.require(conserves_packets(res),
                         "check: packet conservation violated in " + name);

            Span os(&t, kCheckOracle);
            std::vector<check::Violation> v =
                check::check_invariants(sc, opts, res, copts_.invariants);
            for (auto& x : check::check_model_vs_sim(sc, res,
                                                     copts_.conformance))
                v.push_back(std::move(x));
            for (auto& x : check::check_closed_forms(sc, opts, res,
                                                     copts_.conformance))
                v.push_back(std::move(x));
            os.close();
            if (monotonicity) {
                Span ls(&t, kCheckLadder);
                for (auto& x : check::check_latency_monotonicity(
                         sc, opts, copts_.conformance, &out.sims_run))
                    v.push_back(std::move(x));
            }
            if (!v.empty()) {
                Span sh(&t, kCheckShrink);
                const check::CheckReport redo = check::replay_corpus(
                    {check::CorpusEntry{name, sc, opts, monotonicity}},
                    copts_);
                out.sims_run = redo.sims_run;
                out.violations = redo.violations;
                out.failed = !redo.failures.empty();
                if (out.failed) {
                    out.failure = redo.failures.front();
                    out.failure.generator_seed = generator_seed;
                    out.failure.single_queue = single_queue;
                }
            }
            report.sims_run += out.sims_run;
            report.violations += out.violations;
            if (out.failed)
                report.failures.push_back(out.failure);
            journal.record(key, out);
            if (++pending >= kEvery)
                publish();
        };

        for (const check::CorpusEntry& e : corpus_) {
            ++report.corpus_entries;
            unit("corpus:" + e.name, e.name, 0, false, e.scenario, e.options,
                 e.monotonicity && copts_.monotonicity);
        }
        for (std::uint64_t i = 0; i < copts_.trials; ++i) {
            // As check::run_trials draws trial i.
            const std::uint64_t trial_seed =
                lognic::runner::derive_seed(copts_.seed, i);
            Span gs(&t, kCheckGenerate);
            const check::GeneratedScenario gen =
                check::generate_scenario(trial_seed, copts_.generator);
            gs.close();
            ++report.trials;
            if (gen.single_queue)
                ++report.single_queue_trials;
            lognic::sim::SimOptions opts;
            opts.duration = copts_.duration;
            opts.warmup_fraction = copts_.warmup_fraction;
            opts.seed = lognic::runner::derive_seed(trial_seed, 1);
            unit("trial:" + std::to_string(i), "trial-" + std::to_string(i),
                 trial_seed, gen.single_queue, gen.scenario, opts,
                 copts_.monotonicity);
        }
        publish();

        Span ds(&t, kIoDump);
        const std::string json = check::to_json(report).dump(2);
        ds.close();
        pass.wall_s = now_s() - t0;
        std::filesystem::remove_all(dir);
        finish(pass, report, json, publishes);
        pass.counts["sim.nic.events"] = static_cast<double>(events);
        pass.counts["check.sims_run"] = static_cast<double>(report.sims_run);
        pass.counts["check.violations"] =
            static_cast<double>(report.violations);
        pass.counts["ckpt.publishes"] = static_cast<double>(publishes);
        return pass;
    }

  private:
    /// The campaign identity supervise_check publishes with.
    lognic::io::Json fingerprint() const
    {
        namespace io = lognic::io;
        io::Json fp;
        fp.set("workload", "check");
        fp.set("trials", io::u64_to_hex(copts_.trials));
        fp.set("seed", io::u64_to_hex(copts_.seed));
        fp.set("duration", io::double_to_hex(copts_.duration));
        fp.set("warmup_fraction", io::double_to_hex(copts_.warmup_fraction));
        fp.set("monotonicity", copts_.monotonicity);
        fp.set("minimize", copts_.minimize);
        io::Json names(io::JsonArray{});
        for (const auto& e : corpus_)
            names.push_back(e.name);
        fp.set("corpus", std::move(names));
        return fp;
    }

    std::string fresh_dir()
    {
        const std::string dir = scratch_dir_ + "/ckpt-"
                                + std::to_string(::getpid()) + "-"
                                + std::to_string(dirs_++);
        std::filesystem::remove_all(dir);
        return dir;
    }

    void finish(Pass& pass, const check::CheckReport& r,
                const std::string& json, std::uint64_t publishes) const
    {
        const std::uint64_t units = r.corpus_entries + r.trials;
        pass.work = static_cast<double>(units);
        pass.attempted = units;
        pass.failed = r.failures.size();
        pass.exact["check.units"] = units;
        pass.exact["check.single_queue_trials"] = r.single_queue_trials;
        pass.exact["check.sims_run"] = r.sims_run;
        pass.exact["check.violations"] = r.violations;
        pass.exact["ckpt.publishes"] = publishes;
        pass.exact["report.digest"] = lognic::io::fnv1a64(json);

        // The campaign passes in CI: a violation is a conformance
        // regression, not a benchmark number.
        pass.require(r.violations == 0 && r.failures.empty(),
                     "check: " + std::to_string(r.violations)
                         + " violations in "
                         + std::to_string(r.failures.size())
                         + " failing entries");
        // One main run per unit, plus three ladder runs where the ladder
        // applies.
        const std::uint64_t per_trial = copts_.monotonicity ? 4 : 1;
        std::uint64_t expected = copts_.trials * per_trial;
        for (const auto& e : corpus_)
            expected += e.monotonicity && copts_.monotonicity ? 4 : 1;
        pass.require(r.sims_run == expected,
                     "check: sims_run " + std::to_string(r.sims_run)
                         + " != expected " + std::to_string(expected));
        pass.require(r.trials == copts_.trials
                         && r.corpus_entries == corpus_.size(),
                     "check: unit count mismatch");
        // A periodic publication every kEvery units, plus the final one.
        pass.require(publishes == units / kEvery + 1,
                     "check: checkpoint count mismatch");
    }

    bool small_;
    std::string corpus_dir_;
    std::string scratch_dir_;
    std::vector<check::CorpusEntry> corpus_;
    check::CheckOptions copts_;
    std::uint64_t dirs_{0};
};

} // namespace perfbench

#endif // LOGNIC_PERFBENCH_CHECK_HPP_
