/**
 * @file
 * Kill-tolerant exploration supervision (lognic::dse on the lognic::ckpt
 * seams).
 *
 * ExploreJournal is the completed-work journal for an exploration
 * campaign: two ckpt::Journal sections, model-oracle Evaluations ("evals")
 * and DES validations of frontier members ("des"), both keyed by
 * canonical config string. Both round-trip through JSON bit-exactly
 * (doubles as IEEE-754 hex, u64 as hex strings), so a resumed run replays
 * journaled outcomes verbatim.
 *
 * supervise_exploration() runs explore() through the ckpt supervision
 * core: resume from the newest valid "explore" generation
 * (fingerprint-checked against the live campaign), wire the journal into
 * the resume_eval/on_eval and resume_des/on_des seams, publish a
 * generation every checkpoint_every completions, and always publish a
 * final checkpoint. A run SIGKILLed at any point and resumed produces a
 * FrontierReport byte-identical to the uninterrupted run, at any thread
 * count — journal replay satisfies the *work* of a memo-cache miss
 * without perturbing the miss count (see memo.hpp).
 */
#ifndef LOGNIC_DSE_SUPERVISE_HPP_
#define LOGNIC_DSE_SUPERVISE_HPP_

#include <cstdint>
#include <string>

#include "lognic/ckpt/supervisor.hpp"
#include "lognic/dse/explorer.hpp"
#include "lognic/io/json.hpp"

namespace lognic::dse {

/// Frame kind used by exploration checkpoints.
inline constexpr const char* kExploreCheckpointKind = "explore";

// Bit-exact (de)serialization of journal entries; exposed for tests.
io::Json evaluation_to_json(const Evaluation& e);
Evaluation evaluation_from_json(const io::Json& j);
io::Json des_validation_to_json(const DesValidation& v);
DesValidation des_validation_from_json(const io::Json& j);

/// Model-oracle evaluations keyed by canonical config string.
struct EvalCodec : ckpt::NameKey {
    using Record = Evaluation;
    static constexpr const char* kName = "explore journal (evals)";
    static constexpr const char* kSection = "evals";
    static constexpr const char* kKeyField = "key";
    static constexpr auto encode = evaluation_to_json;
    static constexpr auto decode = evaluation_from_json;
};

/// DES validations of frontier members, keyed like the evaluations.
struct DesCodec : ckpt::NameKey {
    using Record = DesValidation;
    static constexpr const char* kName = "explore journal (des)";
    static constexpr const char* kSection = "des";
    static constexpr const char* kKeyField = "key";
    static constexpr auto encode = des_validation_to_json;
    static constexpr auto decode = des_validation_from_json;
};

/// {"des": [{"key": ..., ...}], "evals": [{"key": ..., ...}]}: one
/// thread-safe journal per section.
struct ExploreJournal final : ckpt::JournalDocument {
    ckpt::Journal<EvalCodec> evals;
    ckpt::Journal<DesCodec> des;

    io::Json to_json() const override;
    void load_json(const io::Json& j) override;
    std::size_t size() const override;
};

struct SupervisedExploration : ckpt::SupervisedRun {
    FrontierReport report;
};

/**
 * Run (or resume) an exploration under checkpoint supervision.
 * @p opts.resume_eval / on_eval / resume_des / on_des must be unset (the
 * supervisor owns those seams); throws std::invalid_argument otherwise.
 * A fingerprint mismatch against the stored campaign throws
 * std::runtime_error rather than mixing incompatible work.
 */
SupervisedExploration
supervise_exploration(const DesignSpace& space,
                      const std::vector<ObjectiveSpec>& objectives,
                      const std::vector<Constraint>& constraints,
                      ExploreOptions opts, const ckpt::SupervisorOptions& sup,
                      obs::MetricsRegistry* metrics = nullptr);

} // namespace lognic::dse

#endif // LOGNIC_DSE_SUPERVISE_HPP_
