#include "lognic/dse/pareto.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace lognic::dse {

bool
all_finite(const std::vector<double>& objectives)
{
    for (double v : objectives)
        if (!std::isfinite(v))
            return false;
    return true;
}

bool
dominates(const std::vector<double>& a, const std::vector<double>& b,
          const std::vector<Sense>& senses)
{
    if (a.size() != senses.size() || b.size() != senses.size())
        throw std::invalid_argument(
            "dominates: objective vector size mismatch");
    bool strictly_better = false;
    for (std::size_t i = 0; i < senses.size(); ++i) {
        // Normalize to "larger is better" so one comparison serves both
        // senses.
        const double x = senses[i] == Sense::kMaximize ? a[i] : -a[i];
        const double y = senses[i] == Sense::kMaximize ? b[i] : -b[i];
        if (x < y)
            return false;
        if (x > y)
            strictly_better = true;
    }
    return strictly_better;
}

bool
dominates(const ScoredConfig& a, const ScoredConfig& b,
          const std::vector<Sense>& senses)
{
    if (!eligible(a) || !eligible(b))
        return false;
    return dominates(a.objectives, b.objectives, senses);
}

namespace {

/// Canonical candidate order: by id, ties broken by the exact key.
bool
canonical_less(const ScoredConfig& a, const ScoredConfig& b)
{
    if (a.id != b.id)
        return a.id < b.id;
    return a.key < b.key;
}

/**
 * The one dominance kernel behind pareto_frontier, dominance_summary and
 * non_dominated_sort. The eligible members' objectives are copied once
 * into a flat row-major matrix with every sense flipped to "maximize",
 * then the rows are put in descending lexicographic order, ties by
 * candidate index. A dominator is lexicographically strictly greater
 * than every row it dominates, so it always sorts before them: a row can
 * only be dominated by a row above it.
 */
class DominanceMatrix {
  public:
    DominanceMatrix(const std::vector<ScoredConfig>& all,
                    const std::vector<Sense>& senses)
        : width_(senses.size())
    {
        std::vector<std::size_t> members;
        std::vector<double> flat;
        for (std::size_t i = 0; i < all.size(); ++i) {
            if (!eligible(all[i]))
                continue;
            const std::vector<double>& v = all[i].objectives;
            if (v.size() != width_)
                throw std::invalid_argument(
                    "dominance: objective vector size mismatch");
            // The quarantine rule applies to the values, not only the
            // flag: a NaN would also break the sort's strict weak order.
            if (!all_finite(v))
                continue;
            members.push_back(i);
            for (std::size_t k = 0; k < width_; ++k)
                flat.push_back(senses[k] == Sense::kMaximize ? v[k] : -v[k]);
        }
        // Sort row positions into `flat`; ties keep input (index) order.
        std::vector<std::size_t> order(members.size());
        std::iota(order.begin(), order.end(), std::size_t{0});
        std::sort(order.begin(), order.end(),
                  [&](std::size_t a, std::size_t b) {
                      const double* x = flat.data() + a * width_;
                      const double* y = flat.data() + b * width_;
                      for (std::size_t k = 0; k < width_; ++k)
                          if (x[k] != y[k])
                              return x[k] > y[k];
                      return a < b;
                  });
        index_.reserve(order.size());
        values_.reserve(flat.size());
        for (std::size_t r : order) {
            index_.push_back(members[r]);
            values_.insert(values_.end(), flat.begin() + r * width_,
                           flat.begin() + (r + 1) * width_);
        }
    }

    std::size_t rows() const { return index_.size(); }

    /// Candidate index of row @p r.
    std::size_t index(std::size_t r) const { return index_[r]; }

    /// Row @p a dominates row @p b (which implies a < b).
    bool dominates(std::size_t a, std::size_t b) const
    {
        const double* x = values_.data() + a * width_;
        const double* y = values_.data() + b * width_;
        bool strictly_better = false;
        for (std::size_t k = 0; k < width_; ++k) {
            if (x[k] < y[k])
                return false;
            if (x[k] > y[k])
                strictly_better = true;
        }
        return strictly_better;
    }

    /**
     * Rows of the nondominated set, ascending. Sort and sweep: by
     * transitivity, a row dominated by anyone above it is dominated by a
     * frontier row above it, so each row is tested only against the
     * frontier found so far — O(E*F) comparisons.
     */
    std::vector<std::size_t> frontier_rows() const
    {
        std::vector<std::size_t> front;
        for (std::size_t r = 0; r < rows(); ++r) {
            bool dominated = false;
            for (std::size_t f : front)
                if (dominates(f, r)) {
                    dominated = true;
                    break;
                }
            if (!dominated)
                front.push_back(r);
        }
        return front;
    }

    /// Candidate indices of @p rows in canonical (id, key) order.
    std::vector<std::size_t>
    canonical(const std::vector<std::size_t>& rows,
              const std::vector<ScoredConfig>& all) const
    {
        std::vector<std::size_t> out;
        out.reserve(rows.size());
        for (std::size_t r : rows)
            out.push_back(index_[r]);
        std::sort(out.begin(), out.end(), [&](std::size_t a, std::size_t b) {
            return canonical_less(all[a], all[b]);
        });
        return out;
    }

  private:
    std::size_t width_;
    std::vector<std::size_t> index_;  ///< row -> candidate index
    std::vector<double> values_;      ///< rows() x width_, maximize-all
};

} // namespace

std::vector<std::size_t>
pareto_frontier(const std::vector<ScoredConfig>& all,
                const std::vector<Sense>& senses)
{
    const DominanceMatrix dm(all, senses);
    return dm.canonical(dm.frontier_rows(), all);
}

std::uint64_t
dominated_count(const ScoredConfig& who, const std::vector<ScoredConfig>& all,
                const std::vector<Sense>& senses)
{
    if (!eligible(who))
        return 0;
    std::uint64_t n = 0;
    for (const auto& other : all) {
        if (!eligible(other))
            continue;
        if (dominates(who.objectives, other.objectives, senses))
            ++n;
    }
    return n;
}

DominanceSummary
dominance_summary(const std::vector<ScoredConfig>& all,
                  const std::vector<Sense>& senses)
{
    const DominanceMatrix dm(all, senses);
    const std::vector<std::size_t> front = dm.frontier_rows();
    DominanceSummary out;
    out.dominated.assign(all.size(), 0);
    // Only rows below a frontier row can be dominated by it.
    for (std::size_t f : front) {
        std::uint64_t n = 0;
        for (std::size_t r = f + 1; r < dm.rows(); ++r)
            if (dm.dominates(f, r))
                ++n;
        out.dominated[dm.index(f)] = n;
    }
    out.frontier = dm.canonical(front, all);
    return out;
}

std::vector<std::vector<std::size_t>>
non_dominated_sort(const std::vector<ScoredConfig>& all,
                   const std::vector<Sense>& senses)
{
    const DominanceMatrix dm(all, senses);
    const std::size_t n = dm.rows();
    // dominated_by[r]: how many rows dominate r; domins[r]: the rows r
    // dominates — all of them below r, so each pair is tested once.
    std::vector<std::size_t> dominated_by(n, 0);
    std::vector<std::vector<std::size_t>> domins(n);
    for (std::size_t a = 0; a < n; ++a)
        for (std::size_t b = a + 1; b < n; ++b)
            if (dm.dominates(a, b)) {
                domins[a].push_back(b);
                ++dominated_by[b];
            }

    std::vector<std::vector<std::size_t>> fronts;
    std::vector<std::size_t> current;
    for (std::size_t r = 0; r < n; ++r)
        if (dominated_by[r] == 0)
            current.push_back(r);
    while (!current.empty()) {
        std::vector<std::size_t> next;
        for (std::size_t r : current)
            for (std::size_t d : domins[r])
                if (--dominated_by[d] == 0)
                    next.push_back(d);
        std::vector<std::size_t> front;
        front.reserve(current.size());
        for (std::size_t r : current)
            front.push_back(dm.index(r));
        std::sort(front.begin(), front.end());
        fronts.push_back(std::move(front));
        current = std::move(next);
    }
    return fronts;
}

std::vector<double>
crowding_distance(const std::vector<std::size_t>& front,
                  const std::vector<ScoredConfig>& all,
                  const std::vector<Sense>& senses)
{
    const double kInf = std::numeric_limits<double>::infinity();
    std::vector<double> dist(front.size(), 0.0);
    if (front.size() <= 2) {
        std::fill(dist.begin(), dist.end(), kInf);
        return dist;
    }
    for (std::size_t m = 0; m < senses.size(); ++m) {
        // Positions into `front`, ordered by objective m (ties by index so
        // the sort — and therefore the distances — are deterministic).
        std::vector<std::size_t> order(front.size());
        for (std::size_t i = 0; i < order.size(); ++i)
            order[i] = i;
        std::sort(order.begin(), order.end(),
                  [&](std::size_t a, std::size_t b) {
                      const double x = all[front[a]].objectives[m];
                      const double y = all[front[b]].objectives[m];
                      if (x != y)
                          return x < y;
                      return front[a] < front[b];
                  });
        const double lo = all[front[order.front()]].objectives[m];
        const double hi = all[front[order.back()]].objectives[m];
        dist[order.front()] = kInf;
        dist[order.back()] = kInf;
        const double range = hi - lo;
        if (range <= 0.0)
            continue;
        for (std::size_t i = 1; i + 1 < order.size(); ++i) {
            const double below = all[front[order[i - 1]]].objectives[m];
            const double above = all[front[order[i + 1]]].objectives[m];
            dist[order[i]] += (above - below) / range;
        }
    }
    return dist;
}

} // namespace lognic::dse
