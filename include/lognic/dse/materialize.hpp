/**
 * @file
 * Incremental scenario materialization for the design-space explorer.
 *
 * DesignSpace::materialize copies the whole base scenario and re-applies
 * every knob for every config. During a search, consecutive configs
 * usually differ in one or two non-rebuild knobs; a Materializer keeps
 * the last materialized scenario and patches only the changed knobs in
 * place, invalidating exactly the core::SolveScratch state the delta
 * touches:
 *
 *   PatchScope::kVertexParams  that vertex's cached analysis
 *   PatchScope::kTraffic       every cached analysis (BW_in feeds all)
 *   PatchScope::kCatalog       every cached analysis (hw feeds all)
 *   PatchScope::kNone / rebuild knobs  full re-materialize + full
 *                                      scratch invalidation
 *
 * Because every patchable knob's apply() is a pure assignment of its
 * level into its own field(s), a patched scenario is value-identical to
 * a fresh materialize of the same config — which makes incremental
 * evaluation bit-identical to fresh evaluation, independent of the
 * config order a Materializer saw. That is why the explorer may chunk
 * batches across threads arbitrarily without perturbing report bytes.
 *
 * Not thread-safe: one Materializer per worker.
 */
#ifndef LOGNIC_DSE_MATERIALIZE_HPP_
#define LOGNIC_DSE_MATERIALIZE_HPP_

#include <cstdint>
#include <optional>

#include "lognic/core/solve_scratch.hpp"
#include "lognic/dse/design_space.hpp"

namespace lognic::dse {

class Materializer {
  public:
    explicit Materializer(const DesignSpace& space);

    /**
     * The scenario for @p c — patched in place when every changed knob is
     * patchable, fully re-materialized otherwise. The reference stays
     * valid (and owned by this Materializer) until the next call.
     * @throws std::invalid_argument on an invalid config.
     */
    const io::Scenario& scenario(const Config& c);

    /// Solve cache tied to the current scenario, pre-invalidated per the
    /// scopes of the applied patches.
    core::SolveScratch& scratch() { return scratch_; }

    /**
     * Bumped whenever a (re)materialization or patch may have changed the
     * hardware model — callers holding a core::Model copy of hw rebuild
     * it when the epoch moves.
     */
    std::uint64_t hw_epoch() const { return hw_epoch_; }

  private:
    void build_full(const Config& c);

    const DesignSpace& space_;
    io::Scenario cached_;
    std::optional<Config> current_;
    core::SolveScratch scratch_;
    std::uint64_t hw_epoch_{0};
};

} // namespace lognic::dse

#endif // LOGNIC_DSE_MATERIALIZE_HPP_
