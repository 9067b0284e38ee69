/**
 * @file
 * The two design-space-exploration workloads.
 *
 *  explore_grid  exhaustive search over the NF-chain placement grid
 *                (16 placements x 10 line rates x 8 interface widths x
 *                4 memory widths x 20 offered rates = 102,400 configs),
 *                throughput vs p99 under a throughput floor the pruner
 *                can prove and a p99 ceiling it never prunes. Every
 *                config is new, so the memo cache only takes writes.
 *  explore_nsga  NSGA-II over provisioning knobs of the fig13/14
 *                LogNIC-opt NF chain (2,949,120 combinations): throughput,
 *                p99 and cost, with frontier DES validation. Offspring
 *                repeat, so the memo cache is read-heavy, and the final
 *                O(E^2) dominance pass over the archive dominates.
 *
 * run() calls dse::explore from the spec JSON through to the serialized
 * lognic-dse-frontier/1 report. replay() reproduces the same report
 * through the public pieces explore() composes, with a span per call:
 * the grid replay drives DesignSpace::canonical_key, MemoCache, Pruner,
 * Materializer, Model::throughput/latency and dominance_summary itself;
 * the NSGA replay keeps explore()'s search loop (its candidate stream is
 * not public) and takes over every model solve and DES validation
 * through the resume_eval / resume_des seams.
 */
#ifndef LOGNIC_PERFBENCH_EXPLORE_HPP_
#define LOGNIC_PERFBENCH_EXPLORE_HPP_

#include <limits>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.hpp"
#include "lognic/apps/nf_chain.hpp"
#include "lognic/dse/explorer.hpp"
#include "lognic/dse/materialize.hpp"
#include "lognic/dse/report.hpp"
#include "lognic/dse/spec.hpp"
#include "lognic/io/checkpoint.hpp"
#include "lognic/io/serialize.hpp"
#include "lognic/runner/replicator.hpp"
#include "lognic/runner/seed.hpp"

namespace perfbench {

namespace dse = lognic::dse;
namespace io = lognic::io;
namespace core = lognic::core;

inline io::Json
levels(double first, double step, std::size_t count)
{
    io::Json out{io::JsonArray{}};
    for (std::size_t i = 0; i < count; ++i)
        out.push_back(io::Json(first + step * static_cast<double>(i)));
    return out;
}

inline io::Json
list(std::initializer_list<double> values)
{
    io::Json out{io::JsonArray{}};
    for (double v : values)
        out.push_back(io::Json(v));
    return out;
}

inline io::Json
knob(const std::string& path, io::Json values, double cost_weight = 0.0)
{
    io::Json k;
    k.set("path", io::Json(path));
    k.set("values", std::move(values));
    if (cost_weight != 0.0)
        k.set("cost_weight", io::Json(cost_weight));
    return k;
}

inline io::Json
names(std::initializer_list<const char*> items)
{
    io::Json out{io::JsonArray{}};
    for (const char* s : items)
        out.push_back(io::Json(s));
    return out;
}

/// The explore_grid spec. The grid is fixed; the seed only names the run.
inline io::Json
grid_spec(std::uint64_t seed, bool small)
{
    io::Json dse;
    dse.set("base", io::Json("nf_chain"));
    io::Json knobs{io::JsonArray{}};
    knobs.push_back(io::Json("placement.nf_chain"));
    // The reduced grid keeps the widest links and the lowest offered
    // rates, where the feasible configs are.
    const auto axis = [small](double first, double step, std::size_t count,
                              std::size_t reduced) {
        return small ? levels(first + step * static_cast<double>(
                                              count - reduced),
                              step, reduced)
                     : levels(first, step, count);
    };
    knobs.push_back(knob("line_rate_gbps", axis(10, 10, 10, 2)));
    knobs.push_back(knob("interface_gbps", axis(25, 25, 8, 2)));
    knobs.push_back(knob("memory_gbps", axis(50, 50, 4, 2)));
    knobs.push_back(knob("traffic.rate_gbps", levels(5, 5, small ? 5 : 20)));
    dse.set("knobs", std::move(knobs));
    dse.set("objectives", names({"throughput_gbps", "p99_latency_us"}));
    io::Json floor;
    floor.set("metric", io::Json("throughput_gbps"));
    floor.set("lower", io::Json(14.0));
    io::Json ceiling;
    ceiling.set("metric", io::Json("p99_latency_us"));
    ceiling.set("upper", io::Json(100.0));
    io::Json constraints{io::JsonArray{}};
    constraints.push_back(std::move(floor));
    constraints.push_back(std::move(ceiling));
    dse.set("constraints", std::move(constraints));
    dse.set("strategy", io::Json("exhaustive"));
    dse.set("prune", io::Json("on"));
    dse.set("seed", io::Json(io::u64_to_hex(seed)));
    dse.set("exhaustive_limit", io::Json(1 << 17));
    dse.set("cache_capacity", io::Json(1 << 17));
    io::Json des;
    des.set("enabled", io::Json(false));
    dse.set("des", std::move(des));
    io::Json doc;
    doc.set("dse", std::move(dse));
    return doc;
}

/**
 * The `lognic example placement` scenario: the NF chain under the
 * placement LogNIC-opt picks for 1500 B packets, offered 80% of its
 * modelled capacity.
 */
inline io::Scenario
placement_scenario()
{
    const lognic::Bytes mtu{1500.0};
    const auto probe = core::TrafficProfile::fixed(
        mtu, lognic::Bandwidth::from_gbps(50.0));
    auto sc = lognic::apps::make_nf_chain(
        lognic::apps::lognic_opt_placement(probe));
    const core::Model model(sc.hw);
    const auto capacity = model.throughput(sc.graph, probe).capacity;
    return io::Scenario{std::move(sc.hw), std::move(sc.graph),
                        core::TrafficProfile::fixed(
                            mtu, lognic::Bandwidth::from_gbps(
                                     0.8 * capacity.gbps()))};
}

/// The explore_nsga spec; the seed drives the search and the DES seeds.
inline io::Json
nsga_spec(std::uint64_t seed, bool small)
{
    io::Json dse;
    io::Json knobs{io::JsonArray{}};
    // Engine counts up to each IP's max_engines.
    knobs.push_back(knob("vertex.arm.parallelism", levels(1, 1, 8), 1.0));
    for (const char* v : {"regex", "crypto"})
        knobs.push_back(knob(std::string("vertex.") + v + ".parallelism",
                             levels(1, 1, 4), 1.0));
    for (const char* v : {"hash", "conntrack"})
        knobs.push_back(knob(std::string("vertex.") + v + ".parallelism",
                             levels(1, 1, 2), 1.0));
    for (const char* v : {"arm", "regex"})
        knobs.push_back(knob(std::string("vertex.") + v + ".queue_capacity",
                             list({8, 16, 32, 64, 128, 256}), 0.01));
    knobs.push_back(knob("interface_gbps", list({25, 50, 100, 200}), 0.02));
    knobs.push_back(knob("memory_gbps", list({50, 100, 150, 200}), 0.01));
    knobs.push_back(knob("traffic.rate_gbps", levels(2, 2, 10)));
    dse.set("knobs", std::move(knobs));
    dse.set("objectives",
            names({"throughput_gbps", "p99_latency_us", "cost"}));
    dse.set("strategy", io::Json("nsga2"));
    dse.set("prune", io::Json("on"));
    dse.set("seed", io::Json(io::u64_to_hex(seed)));
    dse.set("population", io::Json(small ? 16 : 64));
    dse.set("generations", io::Json(small ? 20 : 300));
    dse.set("budget", io::Json(small ? 2000 : 20000));
    io::Json des;
    des.set("enabled", io::Json(true));
    des.set("replications", io::Json(2));
    des.set("duration", io::Json(0.002));
    des.set("warmup_fraction", io::Json(0.2));
    dse.set("des", std::move(des));
    io::Json doc;
    doc.set("scenario", io::to_json(placement_scenario()));
    doc.set("dse", std::move(dse));
    return doc;
}

/// The value of one built-in metric, as dse's model oracle extracts it.
inline double
metric_value(const std::string& name, const core::ThroughputReport& tr,
             const core::LatencyReport& lat, double cost)
{
    if (name == "capacity_gbps")
        return tr.capacity.gbps();
    if (name == "throughput_gbps")
        return tr.achieved.gbps();
    if (name == "mean_latency_us")
        return lat.mean.micros();
    if (name == "p99_latency_us")
        return worst_p99_us(lat);
    if (name == "drop_rate")
        return lat.max_drop_probability;
    if (name == "cost")
        return cost;
    throw std::invalid_argument("unknown metric " + name);
}

/**
 * The model oracle of the replays, one layer call per span: Pruner
 * (dse.prune), Materializer (dse.materialize), graph validation, the
 * throughput model and the latency model (core.*). Scoring follows
 * explore()'s; the report digest compared against run() pins that.
 */
class ReplayOracle {
  public:
    ReplayOracle(const dse::ExploreSpec& spec, Tracer& t, Pass& pass)
        : spec_(spec), t_(t), pass_(pass),
          pruner_(make_pruner(spec, t)), mat_(spec.space)
    {
    }

    dse::Evaluation resolve(const dse::Config& c)
    {
        dse::Evaluation eval;
        {
            Span s(&t_, kDsePrune);
            if (auto r = pruner_.reject(c)) {
                eval.objectives.assign(spec_.objectives.size(), kNan);
                eval.feasible = false;
                eval.pruned = true;
                eval.why = std::move(r->why);
                ++pruned_;
                return eval;
            }
        }
        ++solves_;
        try {
            Span m(&t_, kDseMaterialize);
            const io::Scenario& sc = mat_.scenario(c);
            if (!model_ || epoch_ != mat_.hw_epoch()) {
                model_.emplace(sc.hw);
                epoch_ = mat_.hw_epoch();
            }
            m.close();
            {
                Span v(&t_, kCoreValidate);
                sc.graph.validate(sc.hw);
            }
            Span ts(&t_, kCoreThroughput);
            const core::ThroughputReport tr =
                model_->throughput(sc.graph, sc.traffic, &mat_.scratch());
            pass_.throughput_us.push_back(1e6 * ts.close());
            Span ls(&t_, kCoreLatency);
            const core::LatencyReport lat =
                model_->latency(sc.graph, sc.traffic, &mat_.scratch());
            pass_.latency_us.push_back(1e6 * ls.close());
            score(eval, c, tr, lat);
        } catch (const std::exception& e) {
            eval.objectives.assign(spec_.objectives.size(), kNan);
            eval.finite = false;
            eval.feasible = false;
            eval.why = std::string("evaluation failed: ") + e.what();
        }
        return eval;
    }

    std::uint64_t solves() const { return solves_; }
    std::uint64_t pruned() const { return pruned_; }
    const dse::Pruner& pruner() const { return pruner_; }

  private:
    static constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

    static dse::Pruner make_pruner(const dse::ExploreSpec& spec, Tracer& t)
    {
        Span s(&t, kDsePrune);
        return dse::Pruner(spec.space, spec.constraints);
    }

    void score(dse::Evaluation& eval, const dse::Config& c,
               const core::ThroughputReport& tr,
               const core::LatencyReport& lat) const
    {
        const double cost = spec_.space.cost(c);
        for (const dse::ObjectiveSpec& o : spec_.objectives)
            eval.objectives.push_back(metric_value(o.name, tr, lat, cost));
        eval.finite = dse::all_finite(eval.objectives);
        if (!eval.finite) {
            eval.feasible = false;
            eval.why = "non-finite objective value (quarantined)";
            return;
        }
        for (const dse::Constraint& con : spec_.constraints) {
            const double v = metric_value(con.metric, tr, lat, cost);
            if (std::isfinite(v) && v >= con.lower && v <= con.upper)
                continue;
            eval.feasible = false;
            eval.why = "constraint violated: " + con.metric + " = "
                       + io::format_double(v);
            break;
        }
    }

    const dse::ExploreSpec& spec_;
    Tracer& t_;
    Pass& pass_;
    dse::Pruner pruner_;
    dse::Materializer mat_;
    std::optional<core::Model> model_;
    std::uint64_t epoch_{0};
    std::uint64_t solves_{0};
    std::uint64_t pruned_{0};
};

class ExploreWorkload : public Workload {
  public:
    ExploreWorkload(bool nsga, std::uint64_t seed, bool small)
        : nsga_(nsga), seed_(seed), small_(small)
    {
    }

    void setup(Tracer* t) override
    {
        const std::string text =
            (nsga_ ? nsga_spec(seed_, small_) : grid_spec(seed_, small_))
                .dump(2);
        Span s(t, kIoParse);
        spec_.emplace(dse::explore_spec_from_json(io::Json::parse(text)));
    }

    Pass run(std::size_t threads) override
    {
        dse::ExploreOptions opts = spec_->options;
        opts.threads = threads;
        Pass pass;
        const double t0 = now_s();
        const dse::FrontierReport report = dse::explore(
            spec_->space, spec_->objectives, spec_->constraints, opts);
        const std::string json = dse::frontier_report_to_json(report).dump(2);
        pass.wall_s = now_s() - t0;
        finish(pass, report, json);
        return pass;
    }

    Pass replay(Tracer& t) override
    {
        return nsga_ ? replay_nsga(t) : replay_grid(t);
    }

  private:
    std::vector<dse::Sense> senses() const
    {
        std::vector<dse::Sense> out;
        for (const auto& o : spec_->objectives)
            out.push_back(o.sense);
        return out;
    }

    /// Output checks and the exactly-repeating counts of one pass.
    void finish(Pass& pass, const dse::FrontierReport& r,
                const std::string& json) const
    {
        std::uint64_t validated = 0;
        std::uint64_t des_failed = 0;
        for (const dse::FrontierEntry& e : r.frontier) {
            if (!e.des_validated)
                continue;
            ++validated;
            if (!e.des.ok) {
                ++des_failed;
                continue;
            }
            pass.tput_err.push_back(std::fabs(e.des.throughput_disagreement));
            pass.p99_err.push_back(std::fabs(e.des.p99_disagreement));
        }
        pass.work = static_cast<double>(r.requests);
        pass.attempted = r.requests + validated;
        pass.failed = r.quarantined + des_failed;

        pass.exact["dse.requests"] = r.requests;
        pass.exact["dse.memo_hits"] = r.cache.hits;
        pass.exact["dse.memo_misses"] = r.cache.misses;
        pass.exact["dse.evaluated"] = r.evaluated;
        pass.exact["dse.solves"] = r.solves;
        pass.exact["dse.pruned"] = r.pruned;
        pass.exact["dse.frontier"] = r.frontier.size();
        pass.exact["sim.nic.des_validations"] = validated;
        pass.exact["report.digest"] = io::fnv1a64(json);

        pass.require(!r.frontier.empty(), "explore: empty frontier");
        const auto s = senses();
        for (const auto& a : r.frontier)
            for (const auto& b : r.frontier)
                pass.require(!dse::dominates(a.objectives, b.objectives, s),
                             "explore: frontier entry " + a.key
                                 + " dominates frontier entry " + b.key);
        pass.require(r.cache.hits + r.cache.misses == r.requests,
                     "explore: memo hits + misses != requests");
        // Duplicates inside one batch are each a miss but share one
        // evaluation, so unique evaluations can trail misses.
        pass.require(r.solves + r.pruned == r.evaluated
                         && r.evaluated <= r.cache.misses,
                     "explore: solves + pruned != evaluated misses");
        if (nsga_)
            pass.require(validated == r.frontier.size(),
                         "explore: frontier entry left unvalidated");
    }

    void count(Pass& pass, const dse::FrontierReport& r,
               std::uint64_t solves, std::uint64_t pruned) const
    {
        pass.counts["dse.requests"] = static_cast<double>(r.requests);
        pass.counts["dse.memo_hits"] = static_cast<double>(r.cache.hits);
        pass.counts["dse.solves"] = static_cast<double>(solves);
        pass.counts["dse.pruned"] = static_cast<double>(pruned);
    }

    /**
     * The grid replay, config by config in explore()'s odometer order
     * (last knob fastest). With no repeated configs, interleaving lookup,
     * solve and insert per config gives the counters of explore()'s
     * single batch.
     */
    Pass replay_grid(Tracer& t)
    {
        const dse::ExploreSpec& spec = *spec_;
        const dse::DesignSpace& space = spec.space;
        Pass pass;
        const double t0 = now_s();
        dse::FrontierReport report;
        std::optional<ReplayOracle> oracle;
        std::vector<dse::ScoredConfig> archive;
        {
            Span coord(&t, kDseCoordinator);
            oracle.emplace(spec, t, pass);
            dse::MemoCache memo(spec.options.cache_capacity,
                                spec.options.cache_shards);
            std::map<std::string, dse::ScoredConfig> by_key;
            dse::Config c(space.size(), 0);
            const std::uint64_t total = space.combinations();
            for (std::uint64_t i = 0; i < total; ++i) {
                Span ks(&t, kDseKey);
                std::string key = space.canonical_key(c);
                const std::uint64_t id = io::fnv1a64(key);
                ks.close();
                Span ms(&t, kDseMemo);
                std::optional<dse::Evaluation> hit = memo.lookup(key);
                ms.close();
                dse::Evaluation eval =
                    hit ? *std::move(hit) : oracle->resolve(c);
                if (!hit) {
                    Span mi(&t, kDseMemo);
                    memo.insert(key, eval);
                }
                dse::ScoredConfig s;
                s.id = id;
                s.key = key;
                s.config = c;
                s.objectives = std::move(eval.objectives);
                s.feasible = eval.feasible;
                s.finite = eval.finite;
                s.pruned = eval.pruned;
                s.why = std::move(eval.why);
                by_key.emplace(std::move(key), std::move(s));
                for (std::size_t k = space.size(); k-- > 0;) {
                    if (++c[k] < space.knob(k).values.size())
                        break;
                    c[k] = 0;
                }
            }
            archive.reserve(by_key.size());
            for (auto& [key, s] : by_key)
                archive.push_back(std::move(s));
            report.cache = memo.stats();
        }

        Span ps(&t, kDsePareto);
        const dse::DominanceSummary dom = dse::dominance_summary(archive,
                                                                 senses());
        ps.close();

        Span coord(&t, kDseCoordinator);
        report.strategy = spec.options.strategy;
        report.seed = spec.options.seed;
        report.objectives = spec.objectives;
        report.requests = report.cache.hits + report.cache.misses;
        report.evaluated = archive.size();
        for (const dse::ScoredConfig& s : archive) {
            if (!s.finite)
                ++report.quarantined;
            else if (!s.feasible)
                ++report.infeasible;
            if (s.pruned)
                ++report.pruned;
        }
        report.pruned_levels = oracle->pruner().stats().levels_removed;
        report.solves = oracle->solves();
        for (std::size_t idx : dom.frontier) {
            const dse::ScoredConfig& who = archive[idx];
            dse::FrontierEntry e;
            e.id = who.id;
            e.key = who.key;
            e.config = who.config;
            e.objectives = who.objectives;
            e.dominated = dom.dominated[idx];
            report.frontier.push_back(std::move(e));
            report.frontier_configs.push_back(space.config_json(who.config));
        }
        coord.close();

        Span ds(&t, kIoDump);
        const std::string json = dse::frontier_report_to_json(report).dump(2);
        ds.close();
        pass.wall_s = now_s() - t0;
        finish(pass, report, json);
        count(pass, report, oracle->solves(), oracle->pruned());
        return pass;
    }

    /// Maps canonical keys back to configs (the seams pass keys only).
    class KeyIndex {
      public:
        explicit KeyIndex(const dse::DesignSpace& space)
        {
            // Each knob's field text as canonical_key renders it.
            fields_.resize(space.size());
            for (std::size_t k = 0; k < space.size(); ++k) {
                for (std::uint32_t l = 0; l < space.knob(k).values.size();
                     ++l) {
                    dse::Config c(space.size(), 0);
                    c[k] = l;
                    fields_[k].emplace(split(space.canonical_key(c))[k], l);
                }
            }
        }

        dse::Config config(const std::string& key) const
        {
            const auto parts = split(key);
            if (parts.size() != fields_.size())
                throw std::runtime_error("unexpected config key " + key);
            dse::Config c(parts.size());
            for (std::size_t k = 0; k < parts.size(); ++k)
                c[k] = fields_[k].at(parts[k]);
            return c;
        }

      private:
        static std::vector<std::string> split(const std::string& key)
        {
            std::vector<std::string> out;
            std::size_t start = 0;
            while (start < key.size()) {
                std::size_t end = key.find(';', start);
                if (end == std::string::npos)
                    end = key.size();
                out.push_back(key.substr(start, end - start));
                start = end + 1;
            }
            return out;
        }

        std::vector<std::map<std::string, std::uint32_t>> fields_;
    };

    /// Frontier DES validation as explore() performs it, with spans.
    dse::DesValidation des_validate(const dse::Config& c, std::uint64_t id,
                                    Tracer& t, Pass& pass) const
    {
        const dse::ExploreOptions& opts = spec_->options;
        Span vs(&t, kDseDesValidate);
        dse::DesValidation v;
        v.seed = lognic::runner::derive_seed(opts.seed, id);
        Span ms(&t, kDseMaterialize);
        const io::Scenario sc = spec_->space.materialize(c);
        const core::Model model(sc.hw);
        ms.close();
        Span ts(&t, kCoreThroughput);
        const core::ThroughputReport tr = model.throughput(sc.graph,
                                                           sc.traffic);
        ts.close();
        Span ls(&t, kCoreLatency);
        const core::LatencyReport lat = model.latency(sc.graph, sc.traffic);
        ls.close();

        std::uint64_t events = 0;
        bool conserved = true;
        lognic::runner::Replicator rep(opts.des.replications, v.seed);
        const auto guarded = rep.run_guarded(
            [&](std::uint64_t seed) {
                lognic::sim::SimOptions so;
                so.duration = lognic::sim::SimTime{opts.des.duration};
                so.warmup_fraction = opts.des.warmup_fraction;
                so.seed = seed;
                Span s(&t, kSimNic);
                lognic::sim::SimResult r =
                    lognic::sim::NicSimulator(sc.hw, sc.graph, sc.traffic, so)
                        .run();
                events += r.events_executed;
                conserved = conserved && conserves_packets(r);
                return r;
            },
            1);
        pass.counts["sim.nic.events"] += static_cast<double>(events);
        pass.require(conserved, "des: packet conservation violated");
        v.replications = guarded.stats.replications;
        v.ok = guarded.complete() && guarded.stats.replications > 0;
        if (!guarded.failed.empty())
            v.error = guarded.failed.front().error;
        v.delivered_gbps = guarded.stats.delivered_gbps.mean;
        v.mean_latency_us = guarded.stats.mean_latency_us.mean;
        v.p99_latency_us = guarded.stats.p99_latency_us.mean;
        v.drop_rate = guarded.stats.drop_rate.mean;
        const auto rel = [](double model_v, double des) {
            return (model_v - des) / std::max(std::fabs(des), 1e-9);
        };
        v.throughput_disagreement = rel(tr.achieved.gbps(), v.delivered_gbps);
        v.p99_disagreement = rel(worst_p99_us(lat), v.p99_latency_us);
        return v;
    }

    /**
     * The NSGA replay: explore() runs its own search loop serially, and
     * the resume seams hand every first-seen config and every frontier
     * validation to the replay's own layer calls. The seams fire in
     * order, so the stretch between the last evaluation and the first
     * validation is explore()'s final archive copy and O(E^2) dominance
     * pass; it is recorded as the dse.pareto span.
     */
    Pass replay_nsga(Tracer& t)
    {
        const dse::ExploreSpec& spec = *spec_;
        Pass pass;
        const double t0 = now_s();
        const KeyIndex index(spec.space);
        ReplayOracle oracle(spec, t, pass);

        dse::ExploreOptions opts = spec.options;
        opts.threads = 1;
        // The seams resolve every config first; explore()'s own pruner
        // would go unused (and the report is prune-mode invariant).
        opts.prune = dse::PruneMode::kOff;
        double last_eval = t0;
        bool pareto_recorded = false;
        const auto record_pareto = [&] {
            if (!pareto_recorded)
                t.add_closed(kDsePareto, last_eval, now_s());
            pareto_recorded = true;
        };
        opts.resume_eval = [&](const std::string& key, dse::Evaluation& out) {
            out = oracle.resolve(index.config(key));
            last_eval = now_s();
            return true;
        };
        opts.resume_des = [&](const std::string& key,
                              dse::DesValidation& out) {
            record_pareto();
            out = des_validate(index.config(key), io::fnv1a64(key), t, pass);
            return true;
        };

        Span coord(&t, kDseCoordinator);
        dse::FrontierReport report = dse::explore(
            spec.space, spec.objectives, spec.constraints, opts);
        record_pareto();
        coord.close();
        // The report's solve count is the replay's: every solve ran in
        // the seam, none inside explore().
        report.solves = oracle.solves();

        Span ds(&t, kIoDump);
        const std::string json = dse::frontier_report_to_json(report).dump(2);
        ds.close();
        pass.wall_s = now_s() - t0;
        finish(pass, report, json);
        count(pass, report, oracle.solves(), oracle.pruned());
        return pass;
    }

    bool nsga_;
    std::uint64_t seed_;
    bool small_;
    std::optional<dse::ExploreSpec> spec_;
};

} // namespace perfbench

#endif // LOGNIC_PERFBENCH_EXPLORE_HPP_
