/**
 * @file
 * Design-space sweeps: fan a grid of (device x app scenario x traffic x
 * option) points out across worker threads, with N replications per point.
 *
 * Determinism contract: every (point, replication) pair gets a seed that
 * is a pure function of (root_seed, point index, replication index) — see
 * seed.hpp — and each simulation owns all of its state. Results are
 * therefore bit-identical for any thread count, which the determinism test
 * suite pins.
 *
 * Sweeps also travel as JSON documents (the same io layer scenarios use):
 *
 *   {
 *     "scenario": { ...a regular scenario document... },
 *     "sweep": {
 *       "rates_gbps":    [5, 10, 20],     // optional; default: base rate
 *       "packet_sizes":  [64, 1500],      // optional, bytes; default: base
 *       "replications":  3,               // default 1
 *       "threads":       4,               // default 1
 *       "root_seed":     42,              // default 42
 *       "duration":      0.01,            // seconds, default 0.05
 *       "warmup_fraction": 0.2,           // default 0.2
 *       "max_retries":   1,               // default 0 (fail fast)
 *       "max_sim_events": 2000000,        // watchdog event budget (0=off)
 *       "deadline_seconds": 30,           // wall-clock per run (0=off)
 *       "faults": [ ...a fault-plan document... ]   // optional
 *     }
 *   }
 *
 * The grid is the cartesian product rates x sizes; an absent axis keeps
 * the base scenario's value for that dimension.
 *
 * Failure isolation: `run_guarded` never lets one bad point kill the
 * campaign. A replication that throws is retried up to max_retries times
 * with a deterministically re-derived seed; if every attempt throws, the
 * point is reported as a structured FailedPoint and the remaining points
 * still produce results. Replications the watchdog truncates keep their
 * partial statistics and are flagged with a TruncationRecord.
 */
#ifndef LOGNIC_RUNNER_SWEEP_HPP_
#define LOGNIC_RUNNER_SWEEP_HPP_

#include <cstdint>
#include <string>
#include <vector>

#include "lognic/core/execution_graph.hpp"
#include "lognic/core/hardware_model.hpp"
#include "lognic/core/traffic_profile.hpp"
#include "lognic/io/serialize.hpp"
#include "lognic/runner/replicator.hpp"
#include "lognic/sim/nic_simulator.hpp"

namespace lognic::runner {

/// One evaluation point: a full scenario plus simulation options.
struct SweepPoint {
    std::string label;
    core::HardwareModel hw;
    core::ExecutionGraph graph;
    core::TrafficProfile traffic;
    /// Per-point sim options; the seed field is ignored (the runner
    /// derives one per replication).
    sim::SimOptions options{};
};

struct SweepOptions {
    std::size_t threads{1};      ///< <= 1 runs serially on the caller
    std::size_t replications{1}; ///< DES replications per point
    std::uint64_t root_seed{42};
    /**
     * Extra attempts for a replication whose simulation *throws* (watchdog
     * truncation is a result, not a failure, and is never retried).
     * Attempt k > 0 re-derives its seed as derive_seed(seed_0, k), so
     * retry chains are as deterministic as first attempts — independent of
     * thread count and of which other points failed.
     */
    std::size_t max_retries{0};
    /**
     * Checkpoint/resume seams (see lognic::ckpt). Tasks are numbered
     * point * replications + replication; a task satisfied by
     * resume_lookup replays its journaled outcome instead of simulating,
     * and every freshly-computed task (success or exhausted-retries
     * failure) is reported through on_task_complete from the worker
     * thread that ran it. Hooks never alter what the sweep computes —
     * a resumed report is byte-identical to an uninterrupted one.
     */
    TaskLookup resume_lookup{};
    TaskHook on_task_complete{};
};

struct PointResult {
    std::size_t index{0};
    std::string label;
    ReplicationResult stats;
};

/// A point whose every replication attempt threw: the campaign carries on
/// and reports the failure as data instead of dying.
struct FailedPoint {
    std::size_t index{0};        ///< index into the sweep's point list
    std::string label;           ///< the point's parameters, human-readable
    std::size_t replication{0};  ///< first replication that failed
    std::uint64_t seed{0};       ///< seed of that replication's last attempt
    std::size_t attempts{1};     ///< attempts made (1 + retries)
    std::string error;           ///< what() of the last attempt
};

/// A replication the watchdog cut short. Its partial statistics *are*
/// aggregated into the point's result; this record flags them.
struct TruncationRecord {
    std::size_t index{0};
    std::string label;
    std::size_t replication{0};
    std::uint64_t seed{0};
    std::string reason;          ///< "event_budget" or "wall_clock"
    double sim_time_reached{0.0};///< simulated seconds actually covered
};

/// Everything a guarded campaign produced: per-point aggregates for every
/// point that yielded data, plus structured failure/truncation records.
struct SweepReport {
    std::vector<PointResult> results;      ///< healthy + truncated points
    std::vector<FailedPoint> failed;       ///< points with no data at all
    std::vector<TruncationRecord> truncated;
    bool complete() const { return failed.empty() && truncated.empty(); }
};

class Sweep {
  public:
    /// Append a point; returns its index (stable — seeds key off it).
    std::size_t add(SweepPoint point);

    std::size_t size() const { return points_.size(); }
    const SweepPoint& point(std::size_t i) const { return points_.at(i); }

    /**
     * Evaluate every point x replication, fanned across
     * options.threads threads, and aggregate per point. Bit-identical for
     * any thread count given the same root seed.
     *
     * Fail-fast view of run_guarded: if any point failed (threw on every
     * attempt), the first underlying exception is rethrown unchanged.
     */
    std::vector<PointResult> run(const SweepOptions& options = {}) const;

    /**
     * Failure-isolating evaluation: like run(), but a throwing point is
     * captured (after options.max_retries deterministic retries) as a
     * FailedPoint record instead of aborting the campaign, and
     * watchdog-truncated replications are flagged with TruncationRecords
     * while their partial statistics still aggregate. Deterministic for
     * any thread count.
     */
    SweepReport run_guarded(const SweepOptions& options = {}) const;

  private:
    std::vector<SweepPoint> points_;
};

// --- JSON sweep specs ---------------------------------------------------------

/// A parsed sweep document: base scenario + grid axes + runner knobs.
struct SweepSpec {
    io::Scenario base;
    std::vector<double> rates_gbps;        ///< empty: keep base rate
    std::vector<double> packet_sizes_bytes; ///< empty: keep base classes
    sim::SimOptions sim;
    SweepOptions options;
};

/// Parse a sweep document. @throws std::runtime_error on malformed specs.
SweepSpec sweep_spec_from_json(const io::Json& doc);

/// Expand the spec's grid into concrete points.
Sweep build_sweep(const SweepSpec& spec);

/// Per-point result as JSON (seeds rendered as hex strings — JSON numbers
/// are doubles and cannot hold a full uint64).
io::Json to_json(const PointResult& result);

/// The whole result set: {"points": [...]}.
io::Json sweep_results_json(const std::vector<PointResult>& results);

io::Json to_json(const FailedPoint& failure);
io::Json to_json(const TruncationRecord& record);

/// A guarded campaign: {"points": [...], "failed": [...],
/// "truncated": [...], "complete": bool}. The "points" array matches
/// sweep_results_json so consumers of the unguarded format keep working.
io::Json to_json(const SweepReport& report);

/// A small, fast-to-run sample sweep spec document (for `lognic example`).
std::string sample_sweep_spec(const io::Scenario& base);

} // namespace lognic::runner

#endif // LOGNIC_RUNNER_SWEEP_HPP_
