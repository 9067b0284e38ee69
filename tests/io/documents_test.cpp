// Every JSON document the repository ships or writes still parses under
// the nesting bound: the `lognic example` specs, the check corpus, the
// dse golden fixtures and a journal round trip.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "../test_helpers.hpp"
#include "lognic/calib/spec.hpp"
#include "lognic/ckpt/journal.hpp"
#include "lognic/dse/spec.hpp"
#include "lognic/dse/supervise.hpp"
#include "lognic/fault/fault_plan.hpp"
#include "lognic/io/json.hpp"
#include "lognic/io/serialize.hpp"
#include "lognic/runner/sweep.hpp"

namespace lognic::io {
namespace {

namespace fs = std::filesystem;

std::string
read(const fs::path& path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/// Parses, and parses its own dump back to the same document.
void
expect_loads(const std::string& text, const std::string& what)
{
    SCOPED_TRACE(what);
    Json doc;
    ASSERT_NO_THROW(doc = Json::parse(text));
    EXPECT_EQ(Json::parse(doc.dump(2)).dump(-1), doc.dump(-1));
}

TEST(JsonDocuments, ExamplesLoad)
{
    const Scenario sc{test::small_nic(),
                      test::two_stage_graph(test::small_nic()),
                      test::mtu_traffic(8.0)};
    expect_loads(save_scenario(sc), "scenario");
    expect_loads(runner::sample_sweep_spec(sc), "sweep spec");
    expect_loads(calib::sample_calib_spec(sc), "calib spec");
    expect_loads(fault::sample_fault_plan(), "fault plan");
    expect_loads(dse::sample_explore_spec(), "explore spec");
}

TEST(JsonDocuments, CheckedInFilesLoad)
{
    std::size_t files = 0;
    for (const char* dir : {"tests/check/corpus", "tests/dse/golden"}) {
        for (const auto& entry :
             fs::directory_iterator(fs::path(LOGNIC_SOURCE_DIR) / dir)) {
            if (entry.path().extension() != ".json")
                continue;
            expect_loads(read(entry.path()), entry.path().string());
            ++files;
        }
    }
    EXPECT_GE(files, 7u);
}

TEST(JsonDocuments, JournalsRoundTrip)
{
    dse::ExploreJournal explore;
    dse::Evaluation eval;
    eval.objectives = {12.5, 40.0, 3.0};
    explore.record_eval("cfg-a", eval);
    dse::DesValidation des;
    des.ok = true;
    des.replications = 2;
    explore.record_des("cfg-a", des);
    dse::ExploreJournal explore_back;
    explore_back.load_json(Json::parse(explore.to_json().dump(2)));
    EXPECT_EQ(explore_back.eval_count(), 1u);
    EXPECT_EQ(explore_back.des_count(), 1u);

    ckpt::TaskJournal tasks;
    runner::CompletedTask failed;
    failed.error = "boom";
    tasks.record(3, failed);
    ckpt::TaskJournal tasks_back;
    tasks_back.load_json(Json::parse(tasks.to_json().dump(2)));
    EXPECT_EQ(tasks_back.size(), 1u);
    EXPECT_EQ(tasks_back.failed_count(), 1u);
}

} // namespace
} // namespace lognic::io
