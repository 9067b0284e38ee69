/**
 * @file
 * Kill-tolerant run supervision (lognic::ckpt): wrap a sweep, a `lognic
 * check` run, a calibration, an exploration (dse/supervise.hpp), or a
 * single long simulation in a checkpoint/resume loop.
 *
 * Every journaled workload runs through one supervision core, supervise():
 *
 *  1. validate the SupervisorOptions and open the workload's
 *     CheckpointStore (one generation directory, one frame kind);
 *  2. resume: load the newest *valid* generation (torn/corrupt/skewed
 *     files are recorded in ResumeInfo::rejected, logged, and skipped —
 *     never silently loaded), verify its config fingerprint against the
 *     live run, and preload the journal;
 *  3. run the workload's body with a `tick` it hangs on the journal's
 *     record hooks: completed units are recorded as they finish, and every
 *     `checkpoint_every` ticks a new generation is published via the
 *     atomic-rename protocol;
 *  4. final checkpoint: the finished journal is always published, so a
 *     later invocation resumes straight to the report.
 *
 * supervise_sweep/check/calibration and dse::supervise_exploration supply
 * only a fingerprint, a journal and a body. The sweep body adds retry
 * rounds: failed points are erased from the journal and re-run, up to
 * `retry_rounds` extra passes with exponential backoff between them —
 * transient failures (wall-clock truncation on a loaded host, resource
 * exhaustion) heal, deterministic ones fail identically and are reported
 * as data. supervise_simulation snapshots a whole simulator instead of a
 * journal and shares only the core's load-newest-valid-generation step.
 *
 * Resuming a finished or partial run is byte-identical to running it
 * uninterrupted, at any thread count: journaled outcomes replay verbatim,
 * and every unit's seed is a pure function of its index.
 *
 * A fingerprint mismatch (the checkpoint directory holds a journal for a
 * *different* campaign — other spec, other seed, other trial count)
 * throws rather than mixing incompatible work.
 */
#ifndef LOGNIC_CKPT_SUPERVISOR_HPP_
#define LOGNIC_CKPT_SUPERVISOR_HPP_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "lognic/calib/calibrator.hpp"
#include "lognic/calib/spec.hpp"
#include "lognic/check/harness.hpp"
#include "lognic/ckpt/journal.hpp"
#include "lognic/ckpt/store.hpp"
#include "lognic/runner/sweep.hpp"
#include "lognic/sim/nic_simulator.hpp"

namespace lognic::ckpt {

struct SupervisorOptions {
    /// Checkpoint directory (created when missing). Must be non-empty.
    std::string dir;
    /// Load the newest valid generation before running; false starts
    /// fresh (existing generations are kept and eventually pruned).
    bool resume{true};
    /// Completed units between periodic checkpoint publications (>= 1).
    /// For supervise_simulation this counts advance() segments instead.
    std::uint64_t checkpoint_every{8};
    /// Generations kept on disk.
    std::size_t retention{3};
    /// Extra passes over failed sweep points (0 = report failures as-is).
    std::size_t retry_rounds{0};
    /// Backoff before retry round r: initial * multiplier^(r-1) seconds.
    double backoff_initial_seconds{0.5};
    double backoff_multiplier{2.0};
    /// Test seam: called instead of a real sleep when set.
    std::function<void(double seconds)> sleep_fn{};
    /// Diagnostics sink (resume decisions, rejected generations, retry
    /// rounds). Unset = silent.
    std::function<void(const std::string&)> log{};
};

/// What resume found in the checkpoint directory.
struct ResumeInfo {
    bool resumed{false};          ///< a valid generation was loaded
    std::uint64_t generation{0};  ///< its number (when resumed)
    std::size_t completed{0};     ///< journal entries replayed
    /// Generations that could not be used (torn write, checksum mismatch,
    /// version skew) and why. Never silently loaded.
    std::vector<Rejected> rejected;
};

/// What every supervised run reports besides its result.
struct SupervisedRun {
    ResumeInfo resume;
    std::uint64_t checkpoints{0}; ///< generations published this run
};

/**
 * The supervision core (steps 1-4 above): resume @p journal from the
 * newest valid @p kind generation in sup.dir, run @p body with the tick
 * to fire once per completed unit, then publish the final generation.
 * Fills @p out's resume info and checkpoint count. Checking that the
 * workload's own seams are unset is the caller's job.
 * @throws std::invalid_argument on bad @p sup; std::runtime_error when
 *         the stored fingerprint differs from @p fingerprint.
 */
void supervise(const SupervisorOptions& sup, const std::string& kind,
               const io::Json& fingerprint, JournalDocument& journal,
               SupervisedRun& out,
               const std::function<void(const std::function<void()>& tick)>&
                   body);

struct SupervisedSweep : SupervisedRun {
    runner::SweepReport report;
    std::size_t retry_rounds_used{0};
};

/**
 * Run (or resume) a guarded sweep under checkpoint supervision.
 * @p options.resume_lookup / on_task_complete must be unset (the
 * supervisor owns those seams); throws std::invalid_argument otherwise.
 */
SupervisedSweep supervise_sweep(const runner::Sweep& sweep,
                                runner::SweepOptions options,
                                const SupervisorOptions& sup);

struct SupervisedCheck : SupervisedRun {
    check::CheckReport report;
};

/**
 * Run (or resume) a conformance-check campaign (corpus replay + random
 * trials, merged corpus-first exactly like `lognic check`).
 * @p copts.resume_lookup / on_trial_complete must be unset.
 */
SupervisedCheck supervise_check(check::CheckOptions copts,
                                const std::vector<check::CorpusEntry>& corpus,
                                const SupervisorOptions& sup);

struct SupervisedCalibration : SupervisedRun {
    calib::CalibrationReport report;
};

/**
 * Run (or resume) a calibration: completed top-level starts replay from
 * the journal (fold fits re-run — they are cheap relative to starts and
 * never journal). @p opts.fit.resume_lookup / on_start_complete must be
 * unset.
 */
SupervisedCalibration supervise_calibration(calib::ParameterSpace space,
                                            calib::Dataset data,
                                            calib::CalibratorOptions opts,
                                            const SupervisorOptions& sup);

struct SupervisedSimulation : SupervisedRun {
    sim::SimResult result;
    std::uint64_t segments{0};    ///< advance() calls this invocation
};

/**
 * Run (or resume) one long DES run in event-budget segments with a full
 * state snapshot published every `checkpoint_every` segments. @p sim must
 * be freshly constructed (no begin()/run() yet); resume feeds the newest
 * valid snapshot to load_state(), which validates the config fingerprint.
 * @p events_per_segment must be > 0.
 */
SupervisedSimulation supervise_simulation(sim::NicSimulator& sim,
                                          std::uint64_t events_per_segment,
                                          const SupervisorOptions& sup);

} // namespace lognic::ckpt

#endif // LOGNIC_CKPT_SUPERVISOR_HPP_
