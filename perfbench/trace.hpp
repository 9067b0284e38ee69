/**
 * @file
 * Host-time spans for the benchmark's traced run.
 *
 * A span is opened around each call the benchmark makes into a library
 * layer. Spans nest by call structure; a layer's *self* time is its
 * spans' duration minus the part covered by nested spans, so the self
 * times of all layers plus the root's self time add up to the traced wall
 * time exactly. Spans live in memory and are written once, at exit,
 * through obs::ChromeTraceWriter (one track per layer).
 *
 * Fine-grained layers (one span per config or per solve) would produce
 * hundreds of thousands of trace events per run; their self time is
 * always accumulated, but only the first kMaxFineSpans of them are kept
 * for the trace file. Coarse layers keep every span.
 */
#ifndef LOGNIC_PERFBENCH_TRACE_HPP_
#define LOGNIC_PERFBENCH_TRACE_HPP_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "lognic/obs/trace.hpp"

namespace perfbench {

inline double
now_s()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/// Layers the traced run attributes time to; names are metric prefixes.
enum Layer : std::size_t {
    kRoot, ///< the benchmark's own code between layer calls
    kDseCoordinator,
    kDseKey,
    kDseMemo,
    kDsePrune,
    kDseMaterialize,
    kDsePareto,
    kDseDesValidate,
    kCoreValidate,
    kCoreThroughput,
    kCoreLatency,
    kSimNic,
    kSimPanic,
    kCheckGenerate,
    kCheckOracle,
    kCheckLadder,
    kCheckShrink,
    kCkptPublish,
    kIoParse,
    kIoDump,
    kLayerCount
};

inline const char*
layer_name(std::size_t l)
{
    static const char* const names[kLayerCount] = {
        "root",           "dse.coordinator", "dse.key",
        "dse.memo",       "dse.prune",       "dse.materialize",
        "dse.pareto",     "dse.des_validate", "core.validate",
        "core.throughput", "core.latency",   "sim.nic.run",
        "sim.panic.run",  "check.generate",  "check.oracle",
        "check.ladder",   "check.shrink",    "ckpt.publish",
        "io.parse",       "io.dump"};
    return names[l];
}

/// Layers with one span per config or per solve.
inline bool
fine_grained(std::size_t l)
{
    return l == kDseKey || l == kDseMemo || l == kDsePrune
        || l == kDseMaterialize || l == kCoreValidate
        || l == kCoreThroughput || l == kCoreLatency;
}

class Tracer {
  public:
    static constexpr std::size_t kMaxFineSpans = 20000;

    explicit Tracer(double origin) : origin_(origin) {}

    void begin(Layer l) { stack_.push_back(Open{l, now_s(), 0.0}); }

    /// Close the innermost span (which must be of layer @p l); returns
    /// its duration.
    double end(Layer l)
    {
        return close(l, now_s());
    }

    /**
     * Record an already-finished span [start, stop) as a child of the
     * innermost open span. Used where the library exposes only the
     * boundaries of a step (seam callbacks before and after it).
     */
    void add_closed(Layer l, double start, double stop)
    {
        stack_.push_back(Open{l, start, 0.0});
        close(l, stop);
    }

    double self_s(std::size_t l) const { return self_[l]; }

    /// Spans still open (a bug in the caller when non-zero at the end).
    std::size_t open_spans() const { return stack_.size(); }

    /// Chrome trace-event JSON of the kept spans, one track per layer.
    void write(const std::string& path) const
    {
        lognic::obs::ChromeTraceWriter writer;
        std::map<std::size_t, lognic::obs::TrackId> tracks;
        for (const Kept& k : kept_) {
            auto it = tracks.find(k.layer);
            if (it == tracks.end())
                it = tracks
                         .emplace(k.layer,
                                  writer.register_track(layer_name(k.layer)))
                         .first;
            writer.span(it->second, layer_name(k.layer),
                        lognic::Seconds{k.start - origin_},
                        lognic::Seconds{k.stop - k.start});
        }
        std::ofstream out(path);
        writer.write(out);
        if (!out)
            throw std::runtime_error("cannot write trace file " + path);
    }

  private:
    struct Open {
        Layer layer;
        double start;
        double children;
    };
    struct Kept {
        std::size_t layer;
        double start;
        double stop;
    };

    double close(Layer l, double stop)
    {
        if (stack_.empty() || stack_.back().layer != l)
            throw std::logic_error(std::string("unbalanced span ")
                                   + layer_name(l));
        const Open o = stack_.back();
        stack_.pop_back();
        const double dur = stop - o.start;
        self_[l] += dur - o.children;
        if (!stack_.empty())
            stack_.back().children += dur;
        if (!fine_grained(l) || fine_kept_++ < kMaxFineSpans)
            kept_.push_back(Kept{l, o.start, stop});
        return dur;
    }

    double origin_;
    std::vector<Open> stack_;
    double self_[kLayerCount] = {};
    std::vector<Kept> kept_;
    std::size_t fine_kept_{0};
};

/// RAII span; a null tracer makes it free apart from one branch.
class Span {
  public:
    Span(Tracer* t, Layer l) : t_(t), l_(l)
    {
        if (t_ != nullptr)
            t_->begin(l_);
    }
    ~Span() { close(); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    /// End the span early; returns its duration (0 without a tracer).
    double close()
    {
        if (t_ == nullptr)
            return 0.0;
        Tracer* t = t_;
        t_ = nullptr;
        return t->end(l_);
    }

  private:
    Tracer* t_;
    Layer l_;
};

} // namespace perfbench

#endif // LOGNIC_PERFBENCH_TRACE_HPP_
