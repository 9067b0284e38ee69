/**
 * @file
 * Kill-tolerant run supervision: the one supervision core (store wiring,
 * fingerprint-verified resume, periodic publication) and the workloads
 * built on it. See supervisor.hpp for the loop contract.
 */
#include "lognic/ckpt/supervisor.hpp"

#include <chrono>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "lognic/io/checkpoint.hpp"

namespace lognic::ckpt {

namespace {

void
log_to(const SupervisorOptions& sup, const std::string& message)
{
    if (sup.log)
        sup.log(message);
}

void
do_sleep(const SupervisorOptions& sup, double seconds)
{
    if (seconds <= 0.0)
        return;
    if (sup.sleep_fn) {
        sup.sleep_fn(seconds);
        return;
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

void
validate_options(const SupervisorOptions& sup)
{
    if (sup.dir.empty())
        throw std::invalid_argument(
            "supervisor: checkpoint directory must be non-empty");
    if (sup.checkpoint_every == 0)
        throw std::invalid_argument(
            "supervisor: checkpoint_every must be >= 1");
    if (sup.retention == 0)
        throw std::invalid_argument("supervisor: retention must be >= 1");
}

std::string
make_payload(const io::Json& fingerprint, const io::Json& journal)
{
    io::Json doc;
    doc.set("fingerprint", fingerprint);
    doc.set("journal", journal);
    return doc.dump(-1);
}

/// Load the newest valid generation, recording and logging every
/// rejected (torn, corrupt, version-skewed) one on the way.
std::optional<Loaded>
load_newest(const CheckpointStore& store, const SupervisorOptions& sup,
            ResumeInfo& info)
{
    auto loaded = store.load_latest(&info.rejected);
    for (const auto& r : info.rejected)
        log_to(sup, "checkpoint: skipping " + r.path + ": " + r.reason);
    if (loaded) {
        info.resumed = true;
        info.generation = loaded->generation;
    }
    return loaded;
}

/**
 * Load the newest valid generation, verify its fingerprint, and hand the
 * journal document to @p journal. A fingerprint mismatch throws (the
 * directory holds a journal for a different campaign — resuming it would
 * mix incompatible work).
 */
ResumeInfo
resume_into(const CheckpointStore& store, const io::Json& fingerprint,
            const SupervisorOptions& sup, JournalDocument& journal)
{
    ResumeInfo info;
    if (!sup.resume)
        return info;
    const auto loaded = load_newest(store, sup, info);
    if (!loaded)
        return info;
    const io::Json doc = io::Json::parse(loaded->payload);
    const std::string want = fingerprint.dump(-1);
    const std::string have = doc.at("fingerprint").dump(-1);
    if (want != have)
        throw std::runtime_error(
            "checkpoint: fingerprint mismatch in '" + store.dir()
            + "': the stored journal belongs to a different campaign "
              "(stored "
            + have + ", running " + want
            + "); point --checkpoint at a fresh directory or rerun the "
              "original spec");
    journal.load_json(doc.at("journal"));
    info.completed = journal.size();
    log_to(sup, "checkpoint: resumed from generation "
                    + std::to_string(loaded->generation) + " in '"
                    + store.dir() + "'");
    return info;
}

/**
 * Periodic publisher: counts completions (from worker threads) and saves
 * a generation every `checkpoint_every` of them. One mutex serializes the
 * count and the store; journal serialization happens inside it too, which
 * briefly pauses workers — acceptable at checkpoint granularity. Lock
 * order is publisher mutex -> journal mutex, never the reverse.
 */
class Publisher {
public:
    Publisher(CheckpointStore& store, const SupervisorOptions& sup,
              const io::Json& fingerprint, const JournalDocument& journal)
        : store_(store), sup_(sup), fingerprint_(fingerprint),
          journal_(journal)
    {
    }

    /// Completion hook body: maybe publish a periodic generation.
    void tick()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (++pending_ < sup_.checkpoint_every)
            return;
        pending_ = 0;
        publish_locked();
    }

    /// Unconditional publication (the final checkpoint).
    void flush()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        pending_ = 0;
        publish_locked();
    }

    std::uint64_t checkpoints() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return checkpoints_;
    }

private:
    void publish_locked()
    {
        store_.save(make_payload(fingerprint_, journal_.to_json()));
        ++checkpoints_;
    }

    CheckpointStore& store_;
    const SupervisorOptions& sup_;
    const io::Json& fingerprint_;
    const JournalDocument& journal_;
    mutable std::mutex mutex_;
    std::uint64_t pending_{0};
    std::uint64_t checkpoints_{0};
};

} // namespace

// --- the supervision core -----------------------------------------------------

void
supervise(const SupervisorOptions& sup, const std::string& kind,
          const io::Json& fingerprint, JournalDocument& journal,
          SupervisedRun& out,
          const std::function<void(const std::function<void()>& tick)>& body)
{
    validate_options(sup);
    CheckpointStore store(sup.dir, kind, StoreOptions{sup.retention});
    out.resume = resume_into(store, fingerprint, sup, journal);
    Publisher publisher(store, sup, fingerprint, journal);
    body([&publisher] { publisher.tick(); });
    publisher.flush();
    out.checkpoints = publisher.checkpoints();
}

// --- sweeps -------------------------------------------------------------------

SupervisedSweep
supervise_sweep(const runner::Sweep& sweep, runner::SweepOptions options,
                const SupervisorOptions& sup)
{
    if (options.resume_lookup || options.on_task_complete)
        throw std::invalid_argument(
            "supervise_sweep: options.resume_lookup/on_task_complete are "
            "owned by the supervisor and must be unset");

    io::Json fp;
    fp.set("workload", "sweep");
    fp.set("points", io::u64_to_hex(sweep.size()));
    fp.set("replications", io::u64_to_hex(options.replications));
    fp.set("root_seed", io::u64_to_hex(options.root_seed));
    fp.set("max_retries", io::u64_to_hex(options.max_retries));
    // threads intentionally absent: results are thread-count independent,
    // so resuming on a different machine width is legitimate.

    TaskJournal journal;
    SupervisedSweep out;
    supervise(sup, "sweep", fp, journal, out, [&](const auto& tick) {
        options.resume_lookup = journal.lookup_fn();
        options.on_task_complete = journal.record_fn(tick);
        out.report = sweep.run_guarded(options);

        double backoff = sup.backoff_initial_seconds;
        while (out.retry_rounds_used < sup.retry_rounds
               && !out.report.failed.empty()) {
            ++out.retry_rounds_used;
            log_to(sup, "supervisor: retry round "
                            + std::to_string(out.retry_rounds_used) + ": "
                            + std::to_string(out.report.failed.size())
                            + " failed point(s), backing off "
                            + std::to_string(backoff) + "s");
            do_sleep(sup, backoff);
            backoff *= sup.backoff_multiplier;
            journal.erase_if([](const runner::CompletedTask& t) {
                return !t.ok;
            });
            out.report = sweep.run_guarded(options);
        }
    });
    return out;
}

// --- conformance checks -------------------------------------------------------

SupervisedCheck
supervise_check(check::CheckOptions copts,
                const std::vector<check::CorpusEntry>& corpus,
                const SupervisorOptions& sup)
{
    if (copts.resume_lookup || copts.on_trial_complete)
        throw std::invalid_argument(
            "supervise_check: copts.resume_lookup/on_trial_complete are "
            "owned by the supervisor and must be unset");

    io::Json fp;
    fp.set("workload", "check");
    fp.set("trials", io::u64_to_hex(copts.trials));
    fp.set("seed", io::u64_to_hex(copts.seed));
    fp.set("duration", io::double_to_hex(copts.duration));
    fp.set("warmup_fraction", io::double_to_hex(copts.warmup_fraction));
    fp.set("monotonicity", copts.monotonicity);
    fp.set("minimize", copts.minimize);
    io::Json names(io::JsonArray{});
    for (const auto& e : corpus)
        names.push_back(e.name);
    fp.set("corpus", std::move(names));

    CheckJournal journal;
    SupervisedCheck out;
    supervise(sup, "check", fp, journal, out, [&](const auto& tick) {
        copts.resume_lookup = journal.lookup_fn();
        copts.on_trial_complete = journal.record_fn(tick);
        // Same composition as `lognic check`: corpus replay first, random
        // trials merged on top — so a supervised report is byte-identical
        // to an unsupervised one.
        if (!corpus.empty())
            out.report = check::replay_corpus(corpus, copts);
        if (copts.trials > 0)
            out.report = check::merge(std::move(out.report),
                                      check::run_trials(copts));
    });
    return out;
}

// --- calibrations -------------------------------------------------------------

SupervisedCalibration
supervise_calibration(calib::ParameterSpace space, calib::Dataset data,
                      calib::CalibratorOptions opts,
                      const SupervisorOptions& sup)
{
    if (opts.fit.resume_lookup || opts.fit.on_start_complete)
        throw std::invalid_argument(
            "supervise_calibration: fit.resume_lookup/on_start_complete "
            "are owned by the supervisor and must be unset");

    io::Json fp;
    fp.set("workload", "calib");
    fp.set("starts", io::u64_to_hex(opts.fit.starts));
    fp.set("seed", io::u64_to_hex(opts.fit.seed));
    fp.set("backend", calib::to_string(opts.fit.backend));
    fp.set("max_iterations", io::u64_to_hex(opts.fit.max_iterations));
    fp.set("holdout_fraction", io::double_to_hex(opts.holdout_fraction));
    fp.set("k_folds", io::u64_to_hex(opts.k_folds));

    FitJournal journal;
    SupervisedCalibration out;
    supervise(sup, "calib", fp, journal, out, [&](const auto& tick) {
        opts.fit.resume_lookup = journal.lookup_fn();
        opts.fit.on_start_complete = journal.record_fn(tick);
        const calib::Calibrator calibrator(std::move(space), std::move(data),
                                           std::move(opts));
        out.report = calibrator.fit();
    });
    return out;
}

// --- single long simulations --------------------------------------------------

SupervisedSimulation
supervise_simulation(sim::NicSimulator& sim,
                     std::uint64_t events_per_segment,
                     const SupervisorOptions& sup)
{
    validate_options(sup);
    if (events_per_segment == 0)
        throw std::invalid_argument(
            "supervise_simulation: events_per_segment must be > 0");

    CheckpointStore store(sup.dir, "sim", StoreOptions{sup.retention});
    SupervisedSimulation out;
    const auto loaded = sup.resume ? load_newest(store, sup, out.resume)
                                   : std::nullopt;
    if (loaded) {
        // load_state() validates the snapshot's config fingerprint
        // against the live simulator and throws on mismatch.
        sim.load_state(io::Json::parse(loaded->payload));
        log_to(sup, "checkpoint: resumed simulation from generation "
                        + std::to_string(loaded->generation));
    } else {
        sim.begin();
    }

    std::uint64_t since = 0;
    for (;;) {
        const bool done = sim.advance(events_per_segment);
        ++out.segments;
        if (done)
            break;
        if (++since >= sup.checkpoint_every) {
            since = 0;
            store.save(sim.save_state().dump(-1));
            ++out.checkpoints;
        }
    }
    // Publish the end-of-run snapshot too: a resume after a crash between
    // "run finished" and "results consumed" replays instantly instead of
    // re-simulating the last stretch.
    store.save(sim.save_state().dump(-1));
    ++out.checkpoints;
    out.result = sim.finalize();
    return out;
}

} // namespace lognic::ckpt
