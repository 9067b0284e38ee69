#include "lognic/dse/materialize.hpp"

namespace lognic::dse {

Materializer::Materializer(const DesignSpace& space)
    : space_(space), cached_(space.base())
{
}

void
Materializer::build_full(const Config& c)
{
    cached_ = space_.materialize(c);
    scratch_.invalidate();
    ++hw_epoch_;
    current_ = c;
}

const io::Scenario&
Materializer::scenario(const Config& c)
{
    space_.validate(c);
    if (!current_) {
        build_full(c);
        return cached_;
    }
    if (c == *current_)
        return cached_;

    // A delta in any rebuild or non-patchable knob forfeits the cache.
    for (std::size_t k = 0; k < c.size(); ++k) {
        if (c[k] == (*current_)[k])
            continue;
        const Knob& knob = space_.knob(k);
        if (knob.rebuilds_scenario || knob.patch == PatchScope::kNone) {
            build_full(c);
            return cached_;
        }
    }

    try {
        for (std::size_t k = 0; k < c.size(); ++k) {
            if (c[k] == (*current_)[k])
                continue;
            const Knob& knob = space_.knob(k);
            knob.apply(cached_, knob.values[c[k]]);
            switch (knob.patch) {
              case PatchScope::kVertexParams: {
                const auto id = cached_.graph.find_vertex(knob.patch_vertex);
                if (id)
                    scratch_.invalidate_vertex(*id);
                else
                    scratch_.invalidate_analyses();
                break;
              }
              case PatchScope::kTraffic:
                scratch_.invalidate_analyses();
                break;
              case PatchScope::kCatalog:
                scratch_.invalidate_analyses();
                ++hw_epoch_;
                break;
              case PatchScope::kNone:
                break; // unreachable: handled above
            }
        }
    } catch (...) {
        // A throwing apply() leaves cached_ partially patched; drop the
        // cache so the next call rebuilds from scratch instead of
        // patching deltas against inconsistent state.
        current_.reset();
        scratch_.invalidate();
        ++hw_epoch_;
        throw;
    }
    current_ = c;
    return cached_;
}

} // namespace lognic::dse
