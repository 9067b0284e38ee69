/**
 * @file
 * The `des_long` workload: long-horizon DES runs of pinned paper
 * scenarios, each paired with the model's estimate.
 *
 *   NicSimulator  fig10 inline AES accelerator at 64, 512 and 1500 B;
 *                 fig13/14 NF chain, ARM-only and LogNIC-opt placements;
 *                 fig18/19 PANIC Model-3 chain at the optimal degree
 *                 (the repo simulates it with the NicSimulator)
 *   PanicSim      fig15 PANIC pipelined chain at 8 credits
 *
 * It is the only workload that runs PanicSim. Long runs hide per-run
 * set-up, seal() and oracle costs, so a kernel change that trades long
 * runs against check's short ones shows here. It also carries the
 * paper's accuracy claims: model-vs-DES throughput and p99 per run.
 */
#ifndef LOGNIC_PERFBENCH_DES_HPP_
#define LOGNIC_PERFBENCH_DES_HPP_

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.hpp"
#include "lognic/apps/inline_accel.hpp"
#include "lognic/apps/nf_chain.hpp"
#include "lognic/apps/panic_models.hpp"
#include "lognic/io/checkpoint.hpp"
#include "lognic/io/serialize.hpp"
#include "lognic/runner/seed.hpp"
#include "lognic/sim/panic.hpp"
#include "lognic/traffic/profiles.hpp"

namespace perfbench {

class DesWorkload : public Workload {
  public:
    DesWorkload(std::uint64_t seed, bool small) : seed_(seed), small_(small)
    {
    }

    void setup(Tracer* t) override
    {
        const std::string text = spec().dump(2);
        Span s(t, kIoParse);
        const lognic::io::Json doc = lognic::io::Json::parse(text);
        runs_.clear();
        for (const lognic::io::Json& r : doc.at("runs").as_array()) {
            Run run;
            run.name = r.at("name").as_string();
            run.opts.duration = r.at("duration").as_number();
            run.opts.seed = lognic::io::parse_u64(r.at("seed").as_string(),
                                                  "des_long seed");
            if (r.contains("scenario")) {
                run.scenario = lognic::io::scenario_from_json(r.at("scenario"));
            } else {
                const auto credits =
                    static_cast<std::uint32_t>(r.at("credits").as_number());
                run.panic.emplace(PanicRun{
                    lognic::apps::make_panic_pipelined_chain(credits),
                    lognic::traffic::panic_profile(
                        static_cast<int>(r.at("profile").as_number()),
                        lognic::Bandwidth::from_gbps(
                            r.at("offered_gbps").as_number())),
                    credits});
                // PANIC compute units are fixed-function pipelines.
                run.opts.exponential_service = false;
            }
            runs_.push_back(std::move(run));
        }
    }

    /// The runs go one after another, as `lognic simulate` would run
    /// them: neither simulator takes a thread count.
    Pass run(std::size_t) override
    {
        std::vector<Outcome> out(runs_.size());
        const double t0 = now_s();
        for (std::size_t i = 0; i < runs_.size(); ++i)
            out[i] = execute(runs_[i], nullptr);
        const std::string json = report(out).dump(2);
        Pass pass;
        pass.wall_s = now_s() - t0;
        finish(pass, out, json);
        return pass;
    }

    Pass replay(Tracer& t) override
    {
        std::vector<Outcome> out(runs_.size());
        Pass pass;
        const double t0 = now_s();
        for (std::size_t i = 0; i < runs_.size(); ++i)
            out[i] = execute(runs_[i], &t);
        Span ds(&t, kIoDump);
        const std::string json = report(out).dump(2);
        ds.close();
        pass.wall_s = now_s() - t0;
        finish(pass, out, json);
        for (const char* c : {"sim.nic.events", "sim.panic.events"})
            pass.counts[c] = static_cast<double>(pass.exact[c]);
        return pass;
    }

  private:
    struct PanicRun {
        lognic::sim::PanicConfig config;
        lognic::core::TrafficProfile traffic;
        std::uint32_t credits;
    };

    /// One pinned run: a NicSimulator scenario or a PanicSim chain.
    struct Run {
        std::string name;
        std::optional<lognic::io::Scenario> scenario;
        std::optional<PanicRun> panic;
        lognic::sim::SimOptions opts;
    };

    struct Outcome {
        bool ok{false};
        std::string error;
        lognic::sim::SimResult des;
        double model_gbps{0.0};
        double model_p99_us{0.0}; ///< 0 when the model gives no p99
    };

    /// The pinned runs as a JSON document; seeds derive from --seed.
    lognic::io::Json spec() const
    {
        namespace io = lognic::io;
        namespace apps = lognic::apps;
        using lognic::Bandwidth;
        using lognic::Bytes;
        const double scale = small_ ? 0.1 : 1.0;
        const std::uint64_t root = lognic::runner::derive_seed(seed_, 3);
        io::Json runs{io::JsonArray{}};
        const auto add = [&](const std::string& name, io::Json run,
                             double duration) {
            run.set("name", io::Json(name));
            run.set("duration", io::Json(duration * scale));
            run.set("seed", io::Json(io::u64_to_hex(lognic::runner::derive_seed(
                                root, runs.as_array().size()))));
            runs.push_back(std::move(run));
        };
        const auto nic = [&](const std::string& name,
                             const lognic::core::HardwareModel& hw,
                             const lognic::core::ExecutionGraph& g,
                             const lognic::core::TrafficProfile& tp,
                             double duration) {
            io::Json run;
            run.set("scenario", io::to_json(io::Scenario{hw, g, tp}));
            add(name, std::move(run), duration);
        };

        // fig13/14: offered 80% of the LogNIC-opt placement's capacity.
        const Bytes mtu{1500.0};
        const auto probe = lognic::core::TrafficProfile::fixed(
            mtu, Bandwidth::from_gbps(50.0));
        const auto opt = apps::make_nf_chain(apps::lognic_opt_placement(probe));
        const double capacity = lognic::core::Model(opt.hw)
                                    .throughput(opt.graph, probe)
                                    .capacity.bits_per_sec();
        const auto nf_traffic =
            lognic::core::TrafficProfile::fixed(mtu, Bandwidth{0.8 * capacity});
        nic("fig13_opt", opt.hw, opt.graph, nf_traffic, 0.12);
        const auto arm = apps::make_nf_chain(apps::arm_only_placement());
        nic("fig13_arm", arm.hw, arm.graph, nf_traffic, 0.12);

        for (double size : {64.0, 512.0, 1500.0}) {
            const auto sc = apps::make_inline_accel(
                lognic::devices::LiquidIoKernel::kAes, 16);
            nic("fig10_aes_" + std::to_string(static_cast<int>(size)) + "B",
                sc.hw, sc.graph,
                lognic::core::TrafficProfile::fixed(
                    Bytes{size}, Bandwidth::from_gbps(25.0)),
                0.02);
        }

        const auto hybrid = apps::make_panic_hybrid(0.5, 6);
        nic("fig18_d6", hybrid.hw, hybrid.graph,
            lognic::core::TrafficProfile::fixed(mtu,
                                                Bandwidth::from_gbps(100.0)),
            0.05);

        io::Json panic;
        panic.set("profile", io::Json(1));
        panic.set("offered_gbps", io::Json(90.0));
        panic.set("credits", io::Json(8));
        add("fig15_8cr", std::move(panic), 0.01);

        io::Json doc;
        doc.set("runs", std::move(runs));
        return doc;
    }

    static Outcome execute(const Run& r, Tracer* t)
    {
        Outcome o;
        try {
            if (r.panic) {
                const PanicRun& p = *r.panic;
                Span m(t, kCoreThroughput);
                o.model_gbps = std::min(
                    lognic::apps::lognic_panic_chain_capacity(p.traffic,
                                                              p.credits),
                    p.traffic.ingress_bandwidth())
                                   .gbps();
                m.close();
                Span s(t, kSimPanic);
                o.des = lognic::sim::simulate_panic(p.config, p.traffic,
                                                    r.opts);
            } else {
                const lognic::io::Scenario& sc = *r.scenario;
                const lognic::core::Model model(sc.hw);
                Span ts(t, kCoreThroughput);
                o.model_gbps =
                    model.throughput(sc.graph, sc.traffic).achieved.gbps();
                ts.close();
                Span ls(t, kCoreLatency);
                o.model_p99_us =
                    worst_p99_us(model.latency(sc.graph, sc.traffic));
                ls.close();
                Span s(t, kSimNic);
                o.des = lognic::sim::simulate(sc.hw, sc.graph, sc.traffic,
                                              r.opts);
            }
            o.ok = true;
        } catch (const std::exception& e) {
            o.error = e.what();
        }
        return o;
    }

    lognic::io::Json report(const std::vector<Outcome>& out) const
    {
        namespace io = lognic::io;
        io::Json runs{io::JsonArray{}};
        for (std::size_t i = 0; i < out.size(); ++i) {
            const Outcome& o = out[i];
            io::Json j;
            j.set("name", io::Json(runs_[i].name));
            j.set("ok", io::Json(o.ok));
            j.set("error", io::Json(o.error));
            j.set("events", io::Json(io::u64_to_hex(o.des.events_executed)));
            j.set("generated", io::Json(io::u64_to_hex(o.des.generated)));
            j.set("completed", io::Json(io::u64_to_hex(o.des.completed)));
            j.set("des_gbps", io::Json(o.des.delivered.gbps()));
            j.set("des_p99_us", io::Json(o.des.p99_latency.micros()));
            j.set("model_gbps", io::Json(o.model_gbps));
            j.set("model_p99_us", io::Json(o.model_p99_us));
            runs.push_back(std::move(j));
        }
        io::Json doc;
        doc.set("runs", std::move(runs));
        return doc;
    }

    void finish(Pass& pass, const std::vector<Outcome>& out,
                const std::string& json) const
    {
        std::uint64_t nic_events = 0;
        std::uint64_t panic_events = 0;
        for (std::size_t i = 0; i < out.size(); ++i) {
            const Outcome& o = out[i];
            pass.work += runs_[i].opts.duration;
            ++pass.attempted;
            if (!o.ok) {
                ++pass.failed;
                continue;
            }
            (runs_[i].panic ? panic_events : nic_events) +=
                o.des.events_executed;
            pass.require(conserves_packets(o.des),
                         "des_long: packet conservation violated in "
                             + runs_[i].name);
            pass.require(!o.des.truncated && o.des.completed > 0,
                         "des_long: " + runs_[i].name + " did not finish");
            pass.tput_err.push_back(
                rel_err(o.model_gbps, o.des.delivered.gbps()));
            if (o.model_p99_us > 0.0)
                pass.p99_err.push_back(
                    rel_err(o.model_p99_us, o.des.p99_latency.micros()));
        }
        pass.exact["sim.nic.events"] = nic_events;
        pass.exact["sim.panic.events"] = panic_events;
        pass.exact["report.digest"] = lognic::io::fnv1a64(json);
    }

    std::uint64_t seed_;
    bool small_;
    std::vector<Run> runs_;
};

} // namespace perfbench

#endif // LOGNIC_PERFBENCH_DES_HPP_
