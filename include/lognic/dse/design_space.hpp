/**
 * @file
 * Discrete design spaces for what-if exploration (lognic::dse).
 *
 * A DesignSpace is a base Scenario (hardware + execution graph + traffic)
 * plus an ordered list of *knobs*, each a named axis with a finite,
 * strictly increasing list of levels. A Config picks one level per knob;
 * materialize() produces the concrete scenario the model/DES evaluates.
 *
 * Knobs are declared by string path. Hardware-catalog paths reuse
 * calib::ParameterSpace's path machinery verbatim (same grammar, same
 * validation and error messages):
 *
 *   interface_gbps / memory_gbps / line_rate_gbps
 *   ip.<name>.fixed_cost_us / byte_rate_gbps / service_scv
 *   ip.<name>.ceiling.<ceiling>.gbps
 *   graph.<g>.vertex.<vname>.overhead_us
 *
 * dse adds the software/provisioning axes the case studies explore:
 *
 *   vertex.<name>.parallelism      per-vertex engine count D_vi
 *   vertex.<name>.queue_capacity   per-vertex queue depth N_vi
 *   traffic.rate_gbps              offered ingress load
 *   placement.nf_chain             NF-chain offload placement (16 levels,
 *                                  §4.5; replaces hw + graph wholesale)
 *
 * Scenario-rebuilding knobs (placement.*) are applied before all others
 * and are mutually exclusive with knobs whose accessors were resolved
 * against base-scenario names (ip.*, graph.*, vertex.*): an accessor
 * bound to "ip.crypto" has no defined meaning on a rebuilt hardware
 * model, so the combination is rejected at declaration time.
 *
 * In memory a Config is identified by its ConfigIndex (memo, batch dedup,
 * archive). Where bytes leave the process or identity must hold across
 * runs it is its canonical key ("name=<IEEE-754 hex>;...") and the FNV-1a
 * fingerprint of that key: journal keys, frontier entries and ids, the
 * Pareto tie-break, DES seeds and memo shards.
 */
#ifndef LOGNIC_DSE_DESIGN_SPACE_HPP_
#define LOGNIC_DSE_DESIGN_SPACE_HPP_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "lognic/dse/pareto.hpp"
#include "lognic/io/json.hpp"
#include "lognic/io/serialize.hpp"

namespace lognic::dse {

/**
 * How the incremental materializer (dse::Materializer) may re-apply one
 * knob onto an already-materialized scenario, and what cached solve state
 * the delta invalidates. kNone forces a full re-materialization — the
 * safe default for custom knobs whose apply() could touch anything.
 */
enum class PatchScope {
    kNone,         ///< not patchable; any change re-materializes
    kVertexParams, ///< writes one vertex's params (invalidates its analysis)
    kTraffic,      ///< writes the traffic profile (invalidates all analyses)
    kCatalog,      ///< writes hw catalog / graph overheads (all analyses)
};

/// One discrete axis of the space.
struct Knob {
    std::string name;
    /// Ordered levels (strictly increasing); Config stores indices into
    /// this list.
    std::vector<double> values;
    /// Contribution of this knob to the built-in "cost" objective:
    /// cost += value * cost_weight.
    double cost_weight{0.0};
    /// Applied before every other knob; replaces hw + graph (placement.*).
    bool rebuilds_scenario{false};
    /// Accessor resolved against base-scenario names (ip.*, vertex.*, ...);
    /// incompatible with rebuilds_scenario knobs.
    bool base_bound{false};
    /// In-place patch contract; every apply() is a pure assignment of the
    /// level into its own field(s), so patching a delta yields a scenario
    /// value-identical to a full materialize.
    PatchScope patch{PatchScope::kNone};
    /// For PatchScope::kVertexParams: the vertex whose params apply()
    /// writes.
    std::string patch_vertex;
    std::function<void(io::Scenario&, double)> apply;
};

/// "vertex.<name>.parallelism" -> {"vertex", "<name>", "parallelism"}.
std::vector<std::string> split_knob_path(const std::string& path);

/**
 * In-process identity of a Config: its mixed-radix level index (last knob
 * fastest, the exhaustive walk's order) when combinations() fits a u64;
 * otherwise the level-index vector itself.
 */
struct ConfigIndex {
    std::uint64_t word{0};
    Config levels; ///< empty when the space fits a u64
    bool operator==(const ConfigIndex&) const = default;
};

struct ConfigIndexHash {
    std::size_t operator()(const ConfigIndex& i) const noexcept
    {
        std::uint64_t h = i.word;
        for (std::uint32_t l : i.levels)
            h = (h ^ l) * 0x9e3779b97f4a7c15ull;
        return static_cast<std::size_t>(h);
    }
};

class DesignSpace {
  public:
    explicit DesignSpace(io::Scenario base);

    const io::Scenario& base() const { return base_; }

    /**
     * Declare the knob at @p path (grammar in the file header) with the
     * given levels. Returns the knob's index. @throws std::invalid_argument
     * on unknown paths, duplicate names, empty/non-increasing/non-finite
     * level lists, invalid levels for the path (e.g. non-integer
     * parallelism), or an incompatible rebuild/base-bound combination.
     * For placement.nf_chain an empty @p values means all 16 placements.
     */
    std::size_t add(const std::string& path, std::vector<double> values,
                    double cost_weight = 0.0);
    /// Fully custom knob (arbitrary apply).
    std::size_t add_custom(Knob k);

    std::size_t size() const { return knobs_.size(); }
    const Knob& knob(std::size_t i) const { return knobs_.at(i); }
    std::optional<std::size_t> find(const std::string& name) const;

    /// Total number of configs (product of level counts), saturating at
    /// UINT64_MAX.
    std::uint64_t combinations() const;

    /// @throws std::invalid_argument on size mismatch or out-of-range
    /// level indices.
    void validate(const Config& c) const;

    /// Base scenario with @p c applied (rebuild knobs first).
    io::Scenario materialize(const Config& c) const;

    /// The "cost" objective: sum of value * cost_weight over knobs.
    double cost(const Config& c) const;

    /// Canonical exact key: "name=<IEEE-754 hex>;..." in knob order.
    std::string canonical_key(const Config& c) const;
    /// FNV-1a 64 of canonical_key(): the deterministic candidate id.
    /// Folded over per-level key segments; builds no string.
    std::uint64_t fingerprint(const Config& c) const;

    /// Level index of @p c; @throws std::invalid_argument like validate().
    ConfigIndex index(const Config& c) const;
    /// The config whose index() is @p i.
    Config config(const ConfigIndex& i) const;

    /// {"knob name": level value, ...} for reports.
    io::Json config_json(const Config& c) const;

  private:
    io::Scenario base_;
    std::vector<Knob> knobs_;
    /// segments_[k][l]: knob k's "name=<hex>;" field at level l.
    std::vector<std::vector<std::string>> segments_;
    /// Mixed-radix strides; empty when combinations() overflows a u64.
    std::vector<std::uint64_t> strides_;
};

} // namespace lognic::dse

#endif // LOGNIC_DSE_DESIGN_SPACE_HPP_
