/**
 * @file
 * Checkpoint payloads written by an earlier build still load and resume.
 *
 * tests/ckpt/golden/ holds one partially completed checkpoint payload
 * ({"fingerprint", "journal"}) per journaled workload: sweep, check,
 * calibration and exploration (see its README for how they were made).
 * Each payload must
 *
 *  1. load through today's journal and re-serialize to the committed
 *     bytes exactly, and
 *  2. when published into a fresh checkpoint directory, resume its
 *     campaign to a report byte-identical to an unsupervised run.
 *
 * Together these pin the on-disk journal format across refactors of the
 * journal and supervisor code.
 */
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unistd.h>

#include "../key_deletion.hpp"
#include "lognic/calib/spec.hpp"
#include "lognic/check/harness.hpp"
#include "lognic/ckpt/journal.hpp"
#include "lognic/ckpt/supervisor.hpp"
#include "lognic/dse/report.hpp"
#include "lognic/dse/spec.hpp"
#include "lognic/dse/supervise.hpp"
#include "lognic/runner/sweep.hpp"

namespace lognic::ckpt {
namespace {

namespace fs = std::filesystem;

class TempDir {
  public:
    explicit TempDir(const std::string& tag)
        : path_((fs::temp_directory_path()
                 / ("lognic_golden_" + tag + "_"
                    + std::to_string(::getpid())))
                    .string())
    {
        fs::remove_all(path_);
        fs::create_directories(path_);
    }
    ~TempDir() { fs::remove_all(path_); }
    const std::string& path() const { return path_; }

  private:
    std::string path_;
};

std::string
read_file(const fs::path& path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

std::string
golden(const std::string& name)
{
    return read_file(fs::path(LOGNIC_CKPT_GOLDEN_DIR) / name);
}

/// Load @p payload's journal and rebuild the payload from it: every byte
/// must come back, or a checkpoint written earlier would not round-trip.
template <class Journal>
void
expect_reserializes(const std::string& payload)
{
    const io::Json doc = io::Json::parse(payload);
    Journal journal;
    journal.load_json(doc.at("journal"));
    io::Json again;
    again.set("fingerprint", doc.at("fingerprint"));
    again.set("journal", journal.to_json());
    EXPECT_EQ(again.dump(-1), payload);
}

/// Publish @p payload as the only generation of a fresh @p kind store.
SupervisorOptions
seeded(const TempDir& dir, const std::string& kind,
       const std::string& payload)
{
    CheckpointStore(dir.path(), kind).save(payload);
    SupervisorOptions sup;
    sup.dir = dir.path();
    return sup;
}

TEST(GoldenPayload, SweepJournalLoadsAndResumes)
{
    const std::string payload = golden("sweep_payload.json");
    expect_reserializes<TaskJournal>(payload);

    const auto spec = runner::sweep_spec_from_json(
        io::Json::parse(golden("sweep_spec.json")));
    const runner::Sweep sweep = runner::build_sweep(spec);
    TempDir dir("sweep");
    const SupervisedSweep resumed =
        supervise_sweep(sweep, spec.options, seeded(dir, "sweep", payload));
    EXPECT_TRUE(resumed.resume.resumed);
    EXPECT_EQ(resumed.resume.completed, 2u);
    EXPECT_EQ(runner::to_json(resumed.report).dump(),
              runner::to_json(sweep.run_guarded(spec.options)).dump());
}

TEST(GoldenPayload, CheckJournalLoadsAndResumes)
{
    const std::string payload = golden("check_payload.json");
    expect_reserializes<CheckJournal>(payload);

    // `lognic check --trials 3 --seed 7 --duration 0.002
    //  --no-monotonicity` over a corpus of mm1n_rho09.json alone.
    check::CheckOptions copts;
    copts.trials = 3;
    copts.seed = 7;
    copts.duration = 0.002;
    copts.monotonicity = false;
    const std::vector<check::CorpusEntry> corpus{
        check::corpus_entry_from_json(io::Json::parse(read_file(
            fs::path(LOGNIC_CHECK_CORPUS_DIR) / "mm1n_rho09.json")))};
    TempDir dir("check");
    const SupervisedCheck resumed =
        supervise_check(copts, corpus, seeded(dir, "check", payload));
    EXPECT_TRUE(resumed.resume.resumed);
    EXPECT_EQ(resumed.resume.completed, 2u);
    const check::CheckReport plain = check::merge(
        check::replay_corpus(corpus, copts), check::run_trials(copts));
    EXPECT_EQ(check::to_json(resumed.report).dump(2),
              check::to_json(plain).dump(2));
}

TEST(GoldenPayload, CalibrationJournalLoadsAndResumes)
{
    const std::string payload = golden("calib_payload.json");
    expect_reserializes<FitJournal>(payload);

    const io::Json doc = io::Json::parse(golden("calib_spec.json"));
    calib::CalibSpec spec = calib::calib_spec_from_json(doc);
    const calib::CalibrationReport plain =
        calib::Calibrator(spec.space, spec.data, spec.options).fit();
    TempDir dir("calib");
    const SupervisedCalibration resumed = supervise_calibration(
        std::move(spec.space), std::move(spec.data), spec.options,
        seeded(dir, "calib", payload));
    EXPECT_TRUE(resumed.resume.resumed);
    EXPECT_EQ(resumed.resume.completed, 2u);
    EXPECT_EQ(calib::to_json(resumed.report).dump(),
              calib::to_json(plain).dump());
}

TEST(GoldenPayload, ExplorationJournalLoadsAndResumes)
{
    const std::string payload = golden("explore_payload.json");
    expect_reserializes<dse::ExploreJournal>(payload);

    const dse::ExploreSpec spec = dse::explore_spec_from_json(
        io::Json::parse(golden("explore_spec.json")));
    TempDir dir("explore");
    const dse::SupervisedExploration resumed = dse::supervise_exploration(
        spec.space, spec.objectives, spec.constraints, spec.options,
        seeded(dir, dse::kExploreCheckpointKind, payload));
    EXPECT_TRUE(resumed.resume.resumed);
    EXPECT_EQ(resumed.resume.completed, 49u); // 48 evals + 1 DES
    const dse::FrontierReport plain = dse::explore(
        spec.space, spec.objectives, spec.constraints, spec.options);
    EXPECT_EQ(dse::frontier_report_to_json(resumed.report).dump(),
              dse::frontier_report_to_json(plain).dump());
}

/**
 * Loading @p payload's journal with any one key removed fails naming that
 * key. Evaluation's "pruned" is optional by contract (journals written
 * before pruning lack it) and loads; metric names are map entries, not
 * fields.
 */
template <class Journal>
void
expect_every_key_required(const std::string& payload)
{
    std::size_t deletions = 0;
    test::each_key_deletion(
        io::Json::parse(payload).at("journal"),
        {"counters", "gauges", "histograms"},
        [&](const io::Json& doc, const std::string& key) {
            ++deletions;
            std::string error;
            try {
                Journal journal;
                journal.load_json(doc);
            } catch (const std::runtime_error& e) {
                error = e.what();
            }
            if (key == "pruned")
                EXPECT_EQ(error, "");
            else
                EXPECT_TRUE(test::names_missing_key(error, key))
                    << "without '" << key << "': '" << error << "'";
        });
    EXPECT_GT(deletions, 4u);
}

TEST(GoldenPayload, EveryJournalEntryKeyIsRequired)
{
    expect_every_key_required<TaskJournal>(golden("sweep_payload.json"));
    expect_every_key_required<CheckJournal>(golden("check_payload.json"));
    expect_every_key_required<FitJournal>(golden("calib_payload.json"));
    expect_every_key_required<dse::ExploreJournal>(
        golden("explore_payload.json"));
}

} // namespace
} // namespace lognic::ckpt
