#include "lognic/dse/spec.hpp"

#include <stdexcept>

#include "lognic/apps/nf_chain.hpp"
#include "lognic/io/checkpoint.hpp"
#include "lognic/io/serialize.hpp"

namespace lognic::dse {
namespace {

[[noreturn]] void
bad_spec(const std::string& why)
{
    throw std::runtime_error("explore spec: " + why);
}

io::Scenario
base_scenario(const io::Json& doc, const io::Json& dse)
{
    const bool has_scenario = doc.contains("scenario");
    const bool has_base = dse.contains("base");
    if (has_scenario == has_base)
        bad_spec("exactly one of \"scenario\" / dse.\"base\" required");
    if (has_scenario)
        return io::scenario_from_json(doc.at("scenario"));
    const std::string base = dse.at("base").as_string();
    if (base != "nf_chain")
        bad_spec("unknown base '" + base + "' (nf_chain)");
    const auto built = apps::make_nf_chain(apps::arm_only_placement());
    double rate_gbps = 50.0;
    double packet_bytes = 1500.0;
    if (dse.contains("traffic")) {
        const io::Json& t = dse.at("traffic");
        rate_gbps = t.number_or("rate_gbps", rate_gbps);
        packet_bytes = t.number_or("packet_bytes", packet_bytes);
    }
    if (!(rate_gbps > 0.0) || !(packet_bytes > 0.0))
        bad_spec("traffic rate_gbps and packet_bytes must be > 0");
    io::Scenario sc{built.hw, built.graph,
                    core::TrafficProfile::fixed(
                        Bytes{packet_bytes},
                        Bandwidth::from_gbps(rate_gbps))};
    return sc;
}

} // namespace

ExploreSpec
explore_spec_from_json(const io::Json& doc)
{
    if (!doc.contains("dse"))
        bad_spec("missing \"dse\" section");
    const io::Json& dse = doc.at("dse");

    ExploreSpec spec{DesignSpace(base_scenario(doc, dse))};

    if (!dse.contains("knobs") || dse.at("knobs").as_array().empty())
        bad_spec("dse.\"knobs\" must list at least one knob");
    for (const io::Json& k : dse.at("knobs").as_array()) {
        if (k.is_string()) {
            spec.space.add(k.as_string(), {});
            continue;
        }
        const std::string path = k.at("path").as_string();
        std::vector<double> values;
        if (k.contains("values"))
            for (const io::Json& v : k.at("values").as_array())
                values.push_back(v.as_number());
        spec.space.add(path, std::move(values),
                       k.number_or("cost_weight", 0.0));
    }

    if (!dse.contains("objectives")
        || dse.at("objectives").as_array().empty())
        bad_spec("dse.\"objectives\" must list at least one objective");
    for (const io::Json& o : dse.at("objectives").as_array())
        spec.objectives.push_back(objective_from_name(o.as_string()));

    if (dse.contains("constraints")) {
        for (const io::Json& c : dse.at("constraints").as_array()) {
            Constraint con;
            con.metric = c.at("metric").as_string();
            objective_from_name(con.metric); // known-name check
            con.lower = c.number_or("lower", con.lower);
            con.upper = c.number_or("upper", con.upper);
            spec.constraints.push_back(std::move(con));
        }
    }

    ExploreOptions& opts = spec.options;
    if (dse.contains("strategy"))
        opts.strategy = strategy_from_name(dse.at("strategy").as_string());
    if (dse.contains("prune"))
        opts.prune = prune_mode_from_name(dse.at("prune").as_string());
    const std::string ctx = "explore spec";
    opts.seed = io::u64_field(dse, "seed", opts.seed, ctx);
    opts.budget = io::size_field(dse, "budget", opts.budget, ctx);
    opts.population = io::size_field(dse, "population", opts.population, ctx);
    opts.generations =
        io::size_field(dse, "generations", opts.generations, ctx);
    opts.exhaustive_limit =
        io::u64_field(dse, "exhaustive_limit", opts.exhaustive_limit, ctx);
    opts.cache_capacity =
        io::size_field(dse, "cache_capacity", opts.cache_capacity, ctx);
    opts.cache_shards =
        io::size_field(dse, "cache_shards", opts.cache_shards, ctx);
    if (dse.contains("des")) {
        const io::Json& d = dse.at("des");
        if (d.contains("enabled"))
            opts.des.enabled = d.at("enabled").as_bool();
        opts.des.replications =
            io::size_field(d, "replications", opts.des.replications, ctx);
        opts.des.duration = d.number_or("duration", opts.des.duration);
        opts.des.warmup_fraction =
            d.number_or("warmup_fraction", opts.des.warmup_fraction);
        if (!(opts.des.duration > 0.0))
            bad_spec("des.duration must be > 0");
        if (opts.des.warmup_fraction < 0.0 || opts.des.warmup_fraction >= 1.0)
            bad_spec("des.warmup_fraction must be in [0, 1)");
    }
    return spec;
}

std::string
sample_explore_spec()
{
    return io::Json::parse(R"({"dse": {
        "base": "nf_chain",
        "traffic": {"rate_gbps": 50, "packet_bytes": 1500},
        "knobs": ["placement.nf_chain"],
        "objectives": ["throughput_gbps", "p99_latency_us"],
        "strategy": "exhaustive",
        "seed": 42,
        "des": {"enabled": true, "replications": 2, "duration": 0.005,
                "warmup_fraction": 0.2}}})")
        .dump(2);
}

} // namespace lognic::dse
