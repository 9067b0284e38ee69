/**
 * @file
 * Completed-work journals (lognic::ckpt): the payloads a checkpoint
 * generation carries.
 *
 * A journal is a keyed map of finished units of work that round-trips
 * through JSON *bit-exactly*: every double travels as the hex of its
 * IEEE-754 bit pattern and every u64 as a hex string, through the one
 * record codec in io/record.hpp (which says why JSON numbers cannot carry
 * them). That bit-exactness is what lets a resumed run replay journaled
 * outcomes verbatim and still produce a report byte-identical to an
 * uninterrupted run.
 *
 * One class template, Journal<Codec>, serves every workload. Its codec
 * names the document section, the key type and the key's JSON field, and
 * the record type with its JSON round-trip:
 *
 *     journal        section   key field   key
 *     TaskJournal    tasks     task        task index (hex u64)
 *     CheckJournal   units     key         "trial:<i>" / "corpus:<name>"
 *     FitJournal     starts    start       start index (hex u64)
 *     dse::ExploreJournal  evals + des, key = canonical config string
 *
 * A document is {"<section>": [{"<key field>": <key>, ...record...}]};
 * documents with a repeated key are refused by name.
 *
 * Journals are internally locked: the lookup_fn()/record_fn() adapters
 * plug straight into the runner/check/calib/dse hook seams, whose hooks
 * fire from worker threads. record_fn() takes an optional `after`
 * callback fired outside the journal lock (the supervisor hangs its
 * periodic checkpoint there; calling to_json() from inside the lock would
 * deadlock).
 */
#ifndef LOGNIC_CKPT_JOURNAL_HPP_
#define LOGNIC_CKPT_JOURNAL_HPP_

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>

#include "lognic/calib/calibrator.hpp"
#include "lognic/check/harness.hpp"
#include "lognic/io/json.hpp"
#include "lognic/io/record.hpp"
#include "lognic/runner/replicator.hpp"
#include "lognic/sim/nic_simulator.hpp"

namespace lognic::ckpt {

// --- bit-exact serialization of result types ----------------------------------

// Each type lists its fields once in journal.cpp; these walk that list
// through io::write_record / io::read_record (io/record.hpp), so every
// field saved is a field restored. Loading throws std::runtime_error
// naming the field ("journal.result.generated") when one is missing or
// malformed.

/// Full-fidelity SimResult: every scalar, the per-vertex stats, and the
/// structured metrics snapshot, all bit-exact through a dump/parse cycle.
io::Json sim_result_to_json(const sim::SimResult& r);
sim::SimResult sim_result_from_json(const io::Json& j);

io::Json completed_task_to_json(const runner::CompletedTask& t);
runner::CompletedTask completed_task_from_json(const io::Json& j);

io::Json trial_outcome_to_json(const check::TrialOutcome& t);
check::TrialOutcome trial_outcome_from_json(const io::Json& j);

io::Json start_record_to_json(const calib::StartRecord& r);
calib::StartRecord start_record_from_json(const io::Json& j);

// --- journals -----------------------------------------------------------------

/// A journal document as the supervisor sees it: what it resumes from and
/// publishes. Journal<Codec> is one section; dse::ExploreJournal is two.
class JournalDocument {
public:
    virtual io::Json to_json() const = 0;
    /// Replace the contents from a journal document.
    /// @throws std::runtime_error on malformed input or a repeated key.
    virtual void load_json(const io::Json& j) = 0;
    virtual std::size_t size() const = 0;

protected:
    ~JournalDocument() = default;
};

/// Units numbered by index: the key field is a record-codec u64 (hex).
struct IndexKey {
    using Key = std::size_t;
    static std::string describe(Key k) { return std::to_string(k); }
};

/// Units named by a stable string.
struct NameKey {
    using Key = std::string;
    static std::string describe(const Key& k) { return "'" + k + "'"; }
};

/**
 * A thread-safe journal of completed units: one locked map from the
 * codec's key to its record. @p Codec is an IndexKey/NameKey plus
 * `Record`, `kName` (for errors), `kSection`, `kKeyField`, and
 * `encode`/`decode` between Record and JSON.
 */
template <class Codec>
class Journal final : public JournalDocument {
public:
    using Key = typename Codec::Key;
    using Record = typename Codec::Record;

    io::Json to_json() const override
    {
        io::Json j;
        write_to(j);
        return j;
    }

    /// Set this journal's section of @p doc (multi-section documents).
    void write_to(io::Json& doc) const
    {
        io::Json entries(io::JsonArray{});
        {
            std::lock_guard<std::mutex> lock(mutex_);
            for (const auto& [key, done] : entries_) {
                io::Json e = Codec::encode(done);
                e.set(Codec::kKeyField, io::RecordWriter::encode(key));
                entries.push_back(std::move(e));
            }
        }
        doc.set(Codec::kSection, std::move(entries));
    }

    /// Replace the contents from @p j's section; other sections are
    /// ignored.
    void load_json(const io::Json& j) override
    {
        std::map<Key, Record> loaded;
        for (const io::Json& e : j.at(Codec::kSection).as_array()) {
            Key key{};
            io::RecordReader(e, Codec::kName).field(Codec::kKeyField, key);
            if (!loaded.try_emplace(key, Codec::decode(e)).second)
                throw std::runtime_error(
                    std::string(Codec::kName) + ": duplicate "
                    + Codec::kKeyField + " " + Codec::describe(key));
        }
        std::lock_guard<std::mutex> lock(mutex_);
        entries_ = std::move(loaded);
    }

    std::size_t size() const override
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return entries_.size();
    }

    void record(const Key& key, Record done)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        entries_.insert_or_assign(key, std::move(done));
    }

    bool lookup(const Key& key, Record& out) const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = entries_.find(key);
        if (it == entries_.end())
            return false;
        out = it->second;
        return true;
    }

    /// Records for which @p pred holds.
    template <class Pred>
    std::size_t count_if(Pred pred) const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        std::size_t n = 0;
        for (const auto& [key, done] : entries_)
            n += pred(done) ? 1 : 0;
        return n;
    }

    /// Drop the records for which @p pred holds; returns how many.
    template <class Pred>
    std::size_t erase_if(Pred pred)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return std::erase_if(entries_,
                             [&](const auto& entry) {
                                 return pred(entry.second);
                             });
    }

    /// Adapter for the workload's resume-lookup seam. The journal must
    /// outlive the returned function.
    auto lookup_fn() const
    {
        return [this](const Key& key, Record& out) {
            return lookup(key, out);
        };
    }

    /// Adapter for the completion hook; @p after (may be empty) runs after
    /// each record, outside the journal lock.
    auto record_fn(std::function<void()> after = {})
    {
        return [this, after = std::move(after)](const Key& key,
                                                const Record& done) {
            record(key, done);
            if (after)
                after();
        };
    }

private:
    mutable std::mutex mutex_;
    std::map<Key, Record> entries_;
};

/// Sweep/replication tasks keyed by task index
/// (point * replications + replication).
struct TaskCodec : IndexKey {
    using Record = runner::CompletedTask;
    static constexpr const char* kName = "task journal";
    static constexpr const char* kSection = "tasks";
    static constexpr const char* kKeyField = "task";
    static constexpr auto encode = completed_task_to_json;
    static constexpr auto decode = completed_task_from_json;
};

/// `lognic check` units keyed "trial:<index>" / "corpus:<name>".
struct CheckCodec : NameKey {
    using Record = check::TrialOutcome;
    static constexpr const char* kName = "check journal";
    static constexpr const char* kSection = "units";
    static constexpr const char* kKeyField = "key";
    static constexpr auto encode = trial_outcome_to_json;
    static constexpr auto decode = trial_outcome_from_json;
};

/// Calibration starts keyed by start index (only top-level starts
/// journal — fold fits run with cleared hooks).
struct FitCodec : IndexKey {
    using Record = calib::StartRecord;
    static constexpr const char* kName = "fit journal";
    static constexpr const char* kSection = "starts";
    static constexpr const char* kKeyField = "start";
    static constexpr auto encode = start_record_to_json;
    static constexpr auto decode = start_record_from_json;
};

using TaskJournal = Journal<TaskCodec>;
using CheckJournal = Journal<CheckCodec>;
using FitJournal = Journal<FitCodec>;

} // namespace lognic::ckpt

#endif // LOGNIC_CKPT_JOURNAL_HPP_
