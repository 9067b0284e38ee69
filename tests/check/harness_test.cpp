/**
 * @file
 * The randomized-trial harness: deterministic reports, clean runs on
 * honest code, minimal reproducing specs on failure, and a golden corpus
 * that loads, replays, and round-trips.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "check_test_helpers.hpp"
#include "lognic/check/harness.hpp"
#include "lognic/io/checkpoint.hpp"
#include "lognic/runner/seed.hpp"

namespace lognic::check {
namespace {

std::vector<std::filesystem::path>
corpus_files()
{
    std::vector<std::filesystem::path> files;
    for (const auto& entry :
         std::filesystem::directory_iterator(LOGNIC_CHECK_CORPUS_DIR))
        if (entry.path().extension() == ".json")
            files.push_back(entry.path());
    std::sort(files.begin(), files.end());
    return files;
}

CorpusEntry
load_entry(const std::filesystem::path& path)
{
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    return corpus_entry_from_json(io::Json::parse(buf.str()));
}

TEST(RunTrials, SmallBatchIsCleanAndAccountedFor)
{
    CheckOptions copts;
    copts.trials = 5;
    copts.seed = 7;
    copts.duration = 0.02;
    const CheckReport report = run_trials(copts);
    EXPECT_EQ(report.trials, 5u);
    EXPECT_EQ(report.violations, 0u);
    EXPECT_TRUE(report.failures.empty());
    // Each trial runs at least the base simulation, plus the
    // monotonicity ladder's three rungs when enabled.
    EXPECT_GE(report.sims_run, 5u * 4u);
}

TEST(RunTrials, SameSeedSameReportJson)
{
    CheckOptions copts;
    copts.trials = 3;
    copts.seed = 123;
    copts.duration = 0.02;
    EXPECT_EQ(to_json(run_trials(copts)).dump(2),
              to_json(run_trials(copts)).dump(2));
}

TEST(RunTrials, FailureCarriesMinimalReproducingSpec)
{
    // Impossible tolerance: every trial must fail, and the harness must
    // attach a spec that still reproduces some violation.
    CheckOptions copts;
    copts.trials = 1;
    copts.seed = 7;
    copts.duration = 0.02;
    copts.conformance.monotonic_slack_rel = -10.0;
    copts.conformance.monotonic_slack_abs_us = 0.0;
    const CheckReport report = run_trials(copts);
    ASSERT_EQ(report.failures.size(), 1u);
    const TrialFailure& f = report.failures[0];
    EXPECT_FALSE(f.violations.empty());
    ASSERT_TRUE(f.minimal_spec.contains("scenario"));
    ASSERT_TRUE(f.minimal_spec.contains("options"));
    // The spec is self-contained: it parses back into a runnable entry
    // that still fails under the same tolerances.
    const CorpusEntry entry = corpus_entry_from_json(f.minimal_spec);
    EXPECT_FALSE(check_scenario(entry.scenario, entry.options, copts,
                                entry.monotonicity)
                     .empty());
}

TEST(RunTrials, FailureSeedsSurviveTheJsonRoundTrip)
{
    // Trial 0 of seed 7 simulates with a seed above 2^53; a double would
    // round it, and the "minimal reproducing spec" would replay another
    // sample path.
    CheckOptions copts;
    copts.trials = 1;
    copts.seed = 7;
    copts.duration = 0.02;
    copts.conformance.monotonic_slack_rel = -10.0;
    copts.conformance.monotonic_slack_abs_us = 0.0;
    const std::uint64_t trial_seed = runner::derive_seed(7, 0);
    const std::uint64_t sim_seed = runner::derive_seed(trial_seed, 1);
    ASSERT_EQ(sim_seed, 11984929618412882174ull);
    const io::Json report =
        io::Json::parse(to_json(run_trials(copts)).dump(2));
    ASSERT_EQ(report.at("failures").as_array().size(), 1u);
    const io::Json& failure = report.at("failures").as_array()[0];
    EXPECT_EQ(io::u64_field(failure, "generator_seed", 0, "report"),
              trial_seed);
    EXPECT_EQ(corpus_entry_from_json(failure.at("minimal_spec")).options.seed,
              sim_seed);
}

TEST(Corpus, EntriesLoadAndRoundTrip)
{
    const auto files = corpus_files();
    ASSERT_GE(files.size(), 3u);
    for (const auto& path : files) {
        const CorpusEntry entry = load_entry(path);
        EXPECT_FALSE(entry.name.empty()) << path;
        // to_json(corpus_entry_from_json(x)) is the identity on dumps.
        std::ifstream in(path);
        std::stringstream buf;
        buf << in.rdbuf();
        EXPECT_EQ(to_json(entry).dump(2) + "\n", buf.str()) << path;
    }
}

TEST(Corpus, NegativeSeedIsRejectedNamingTheField)
{
    io::Json doc = to_json(load_entry(corpus_files().front()));
    io::Json options = doc.at("options");
    options.set("seed", io::Json(-3.0));
    doc.set("options", std::move(options));
    try {
        corpus_entry_from_json(doc);
        FAIL() << "seed = -3 was accepted";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("'seed'"), std::string::npos)
            << e.what();
    }
}

TEST(Corpus, GoldenEntriesReplayClean)
{
    std::vector<CorpusEntry> entries;
    for (const auto& path : corpus_files())
        entries.push_back(load_entry(path));
    const CheckReport report = replay_corpus(entries, {});
    EXPECT_EQ(report.corpus_entries, entries.size());
    EXPECT_EQ(report.violations, 0u)
        << to_json(report).dump(2);
}

TEST(Report, MergeAddsCountsAndConcatenatesFailures)
{
    CheckReport a;
    a.trials = 2;
    a.violations = 1;
    a.failures.push_back(TrialFailure{"x", 1, false, {}, io::Json{}});
    CheckReport b;
    b.corpus_entries = 3;
    b.sims_run = 9;
    const CheckReport m = merge(a, b);
    EXPECT_EQ(m.trials, 2u);
    EXPECT_EQ(m.corpus_entries, 3u);
    EXPECT_EQ(m.sims_run, 9u);
    EXPECT_EQ(m.violations, 1u);
    EXPECT_EQ(m.failures.size(), 1u);
}

TEST(Report, EmptyFailuresSerializeAsArray)
{
    const CheckReport report;
    const io::Json j = to_json(report);
    ASSERT_TRUE(j.contains("failures"));
    EXPECT_TRUE(j.at("failures").is_array()); // not null / not an object
}

} // namespace
} // namespace lognic::check
