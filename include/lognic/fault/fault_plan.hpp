/**
 * @file
 * Deterministic fault schedules for the simulators and the degraded-mode
 * model.
 *
 * A FaultPlan is a list of timed fault events — engine fail-stop and
 * recovery, engine slowdown, shared-link bandwidth degradation, transient
 * drop bursts, and queue-capacity reduction — that a simulator replays
 * mid-run and the analytical model can bake into a fault-adjusted
 * parameter set (see degradation.hpp). Plans are plain data: they
 * serialize to/from JSON exactly like sweep specs, and the random
 * generator derives every sample from an explicit seed, so a faulted run
 * is as reproducible as a fault-free one.
 *
 * Targets are referenced by *name*: an execution-graph vertex (or PANIC
 * unit) name for engine/queue/burst events, or one of the reserved link
 * names "interface" / "memory" ("fabric" for the PANIC simulator) for
 * link-degradation events. Name resolution happens inside the consumer,
 * which throws on an unknown target at construction time.
 */
#ifndef LOGNIC_FAULT_FAULT_PLAN_HPP_
#define LOGNIC_FAULT_FAULT_PLAN_HPP_

#include <cstdint>
#include <string>
#include <vector>

#include "lognic/io/json.hpp"

namespace lognic::fault {

enum class FaultKind {
    kEngineFail,    ///< take `count` engines of `target` offline
    kEngineRecover, ///< bring `count` engines of `target` back
    kSlowdown,      ///< multiply `target` service times by `factor` (> 1)
    kLinkDegrade,   ///< multiply a shared link's bandwidth by `factor` (< 1)
    kDropBurst,     ///< drop arrivals at `target` w.p. `probability`
    kQueueCapacity, ///< override `target` queue capacity with `capacity`
};

const char* to_string(FaultKind kind);
/// @throws std::invalid_argument on an unknown kind name.
FaultKind fault_kind_from_string(const std::string& name);

/// What happens to requests that are in service when their engine fails.
enum class InServicePolicy {
    kRequeue, ///< the request re-enters the head of its queue (default)
    kDrop,    ///< the request is lost (counted as an engine_fail drop)
};

const char* to_string(InServicePolicy policy);
InServicePolicy in_service_policy_from_string(const std::string& name);

/**
 * One timed fault. Only the fields its kind reads are meaningful; the
 * rest keep their defaults (validate() enforces the per-kind rules).
 * `duration > 0` schedules the automatic inverse event at `at + duration`
 * (recover / speed back up / restore bandwidth / end the burst / restore
 * capacity); `duration == 0` leaves the fault in force until a later
 * event counters it or the run ends.
 */
struct FaultEvent {
    double at{0.0};            ///< simulated seconds from run start
    FaultKind kind{FaultKind::kEngineFail};
    std::string target;        ///< vertex/unit name or reserved link name
    std::uint32_t count{1};    ///< engines failed/recovered
    double factor{1.0};        ///< slowdown (> 1) or link multiplier (0, 1)
    double duration{0.0};      ///< 0 = until countered / end of run
    double probability{1.0};   ///< drop-burst drop probability, in (0, 1]
    std::uint32_t capacity{1}; ///< queue-capacity override (>= 1)
};

/**
 * One instant of a plan's replay: an event's start, or the automatic end
 * of its `duration` window, with the value it sets already resolved.
 */
struct FaultStep {
    double at{0.0};
    FaultKind kind{FaultKind::kEngineFail};
    std::string target;
    std::string label; ///< "<kind>[/end]:<target>", the trace instant name
    /// Engine kinds: engines taken offline (> 0) or brought back (< 0).
    std::int64_t engines{0};
    /// Other kinds: the slowdown or degrade factor, drop probability, or
    /// queue capacity in force from here on. A window end restores the
    /// healthy value: factor 1, probability 0, capacity 0 (= configured).
    double value{0.0};
};

struct FaultPlan {
    std::vector<FaultEvent> events;
    /// Applies to every engine-fail event in the plan.
    InServicePolicy in_service_policy{InServicePolicy::kRequeue};

    bool empty() const { return events.empty(); }

    /// Events ordered by (time, insertion order) — the replay order.
    std::vector<FaultEvent> sorted() const;

    /**
     * The replay timeline up to @p horizon: every event's start plus the
     * automatic end of each `duration` window, stable-sorted by time,
     * without the steps after @p horizon. The one definition of what a
     * window end means, shared by both simulators and apply_faults_at.
     */
    std::vector<FaultStep> timeline(double horizon) const;

    /**
     * Check per-kind parameter ranges (times finite and >= 0, slowdown
     * factor >= 1, degrade factor in (0, 1], probability in (0, 1], ...).
     * @throws std::invalid_argument naming the offending event index,
     * kind, and target.
     */
    void validate() const;
};

// --- seeded random plans ------------------------------------------------------

/**
 * Knobs for random_fault_plan. Failures alternate with repairs per
 * target: exponential time-to-failure with mean @p mtbf, exponential
 * repair time with mean @p mttr, clipped to @p horizon.
 */
struct RandomFaultConfig {
    double horizon{0.05};        ///< generate events in [0, horizon)
    double mtbf{0.02};           ///< mean seconds between failures
    double mttr{0.005};          ///< mean seconds to repair
    std::uint32_t max_engines_per_fault{1}; ///< engines lost per failure
};

/**
 * A deterministic MTBF/MTTR fail-stop/recover timeline over @p targets.
 * Identical (seed, targets, config) inputs yield identical plans on every
 * platform.
 */
FaultPlan random_fault_plan(std::uint64_t seed,
                            const std::vector<std::string>& targets,
                            const RandomFaultConfig& config = {});

// --- JSON ---------------------------------------------------------------------

io::Json to_json(const FaultEvent& event);
io::Json to_json(const FaultPlan& plan);

/**
 * Parse {"faults": [...], "in_service_policy": "requeue"|"drop"} (or a
 * bare event array). The result is validate()d.
 * @throws std::runtime_error on malformed documents.
 */
FaultPlan fault_plan_from_json(const io::Json& doc);

/// A small commented-by-construction sample plan (for `lognic example`).
std::string sample_fault_plan();

} // namespace lognic::fault

#endif // LOGNIC_FAULT_FAULT_PLAN_HPP_
