// generate-scale — `uhcg generate` on two seeded synthetic models.
//
// One op parses both models' XMI bytes, runs flow::generate (default
// strategies plus KPN, gen_jobs = cores) and commits every file through an
// OutputTransaction. Its warm time leaves the parse out: the resident-model
// path of `uhcg serve`. The traced run replays the Fig. 2 pass sequence
// call by call on the same models and checks that it reproduces
// flow::generate's .mdl byte for byte; it also measures the DSE layers on
// the same models (explore_trace.hpp) and the campaign and FSM layers on
// the campaign corpus (campaign_corpus.hpp).
#include <algorithm>
#include <iostream>

#include "bench.hpp"
#include "caam_checks.hpp"
#include "campaign_corpus.hpp"
#include "explore_trace.hpp"
#include "models.hpp"
#include "replay.hpp"
#include "core/allocation.hpp"
#include "flow/generate.hpp"
#include "flow/txout.hpp"
#include "obs/obs.hpp"
#include "simulink/mdl.hpp"
#include "uml/xmi.hpp"

namespace perfbench {

namespace {

using namespace uhcg;

struct Rung {
    std::string label;
    std::string xmi;
    uml::Model model{""};  ///< the traced run generates from it
    std::uint64_t digest = 0;
    std::size_t bytes = 0;
};

flow::GenerateOptions generate_options(std::size_t jobs) {
    flow::GenerateOptions options;
    options.with_kpn = true;
    options.gen_jobs = jobs;
    return options;
}

flow::GenerateResult generate(const uml::Model& model, std::size_t jobs) {
    diag::DiagnosticEngine engine;
    return flow::generate(model, generate_options(jobs), engine);
}

/// Every generated file plus the flow manifest, in canonical order.
std::vector<flow::GeneratedFile> output_files(const flow::GenerateResult& r) {
    std::vector<flow::GeneratedFile> files;
    for (const flow::StrategyResult& sr : r.results)
        for (const flow::GeneratedFile& f : sr.files) files.push_back(f);
    files.push_back(
        {"generate-manifest.json", flow::to_manifest_json(r) + "\n"});
    return files;
}

/// Stages and commits `files` into `dir`; returns the commit() time.
double commit(const std::vector<flow::GeneratedFile>& files,
              const fs::path& dir) {
    flow::OutputTransaction tx(dir);
    for (const flow::GeneratedFile& f : files) tx.write(f.name, f.contents);
    return time_ms([&] { tx.commit(); });
}

std::uint64_t digest_of(const std::vector<flow::GeneratedFile>& files,
                        std::size_t* bytes) {
    std::uint64_t h = kFnvOffset;
    *bytes = 0;
    for (const flow::GeneratedFile& f : files) {
        h = fnv1a(f.name, h);
        h = fnv1a(f.contents, h);
        *bytes += f.contents.size();
    }
    return h;
}

const std::string* find_file(const flow::GenerateResult& r,
                             std::string_view strategy) {
    for (const flow::StrategyResult& sr : r.results)
        if (sr.strategy == strategy && !sr.files.empty())
            return &sr.files.front().contents;
    return nullptr;
}

/// Full invariant check of one generated tree: the .mdl flow::generate
/// wrote is parsed back and checked against the model's links and the
/// allocation the mapper chose.
std::string check_output(const uml::Model& model,
                         const flow::GenerateResult& result) {
    if (result.status != flow::GenerateStatus::Ok)
        return "generate status " + std::string(flow::to_string(result.status));
    const std::string* mdl = find_file(result, "simulink-caam");
    if (!mdl) return "no .mdl was generated";
    const core::Allocation* allocation = nullptr;
    for (const flow::StrategyResult& sr : result.results)
        if (sr.strategy == "simulink-caam")
            allocation = &sr.mapper_report.allocation;
    simulink::Model caam = simulink::parse_mdl(*mdl);
    return check_caam(caam, model, core::analyze_communication(model),
                      *allocation);
}

/// The untraced run: back-to-back cold ops. The warm path (generate from
/// a resident model) is the same op minus its XMI parse, so each op yields
/// one cold and one warm time.
void run_ops(const Options& options, std::vector<Rung>& rungs,
             Outcome& out) {
    const fs::path out_dir = options.work_dir / "out";
    std::vector<double> cold, warm;

    run_for(options.seconds, 2, [&] {
        for (Rung& r : rungs) fs::remove_all(out_dir / r.label);
        std::vector<std::vector<flow::GeneratedFile>> files(rungs.size());
        std::vector<std::string> status(rungs.size());
        double parse_ms = 0;
        Clock::time_point start = Clock::now();
        for (std::size_t i = 0; i < rungs.size(); ++i) {
            Clock::time_point parse_start = Clock::now();
            diag::DiagnosticEngine engine;
            uml::Model model = uml::from_xmi_string(rungs[i].xmi, engine);
            parse_ms += ms_since(parse_start);
            flow::GenerateResult result = generate(model, options.jobs);
            status[i] = flow::to_string(result.status);
            files[i] = output_files(result);
            commit(files[i], out_dir / rungs[i].label);
        }
        double ms = ms_since(start);
        out.attempt();
        bool ok = true;
        for (std::size_t i = 0; i < rungs.size(); ++i) {
            std::size_t bytes = 0;
            ok = ok && out.check(status[i] == "ok",
                                 rungs[i].label + ": generate " + status[i]);
            ok = ok && out.check(digest_of(files[i], &bytes) == rungs[i].digest,
                                 rungs[i].label + ": output tree changed");
        }
        if (ok) {
            cold.push_back(ms);
            warm.push_back(ms - parse_ms);
        }
    });

    std::size_t bytes = 0;
    for (const Rung& r : rungs) bytes += r.bytes;
    out.metric("wall_s", median(cold) / 1000.0);
    // From the median op: one stalled commit must not move throughput.
    out.metric("ops_per_s", 1000.0 / std::max(1e-9, median(cold)));
    out.metric("op_ms.p50", median(cold));
    out.metric("op_ms.p99", percentile(cold, 99));
    out.metric("op_ms.cold.p50", median(cold));
    out.metric("op_ms.warm.p50", median(warm));
    out.metric("output_bytes", static_cast<double>(bytes));
}

/// The traced run: per round and model, the replay, three flow::generate
/// calls (gen_jobs = 1, gen_jobs = cores, and cores again with obs spans
/// on) and a traced explore; then one traced round of the campaign corpus.
void run_traced(const Options& options, std::vector<Rung>& rungs,
                Outcome& out) {
    CampaignCorpus corpus(options);
    std::map<std::string, std::vector<double>> per_round;
    std::vector<std::vector<double>> rung_delays(rungs.size()),
        rung_channels(rungs.size());
    std::vector<double> channel_counts(rungs.size());

    run_for(options.seconds, 1, [&] {
        out.attempt();
        std::map<std::string, double> round;
        double layers = 0, serial = 0, parallel = 0, traced = 0;
        double dse_serial = 0, dse_parallel = 0;
        for (std::size_t i = 0; i < rungs.size(); ++i) {
            Rung& rung = rungs[i];
            Replay r = replay(rung.xmi, rung.label, out);
            for (const auto& [name, ms] : r.ms) {
                round[name] += ms;
                if (name != "xml.parse.ms" && name != "uml.xmi_load.ms")
                    layers += ms;
            }
            for (const auto& [name, count] : r.counts) {
                round[name] += count;
                out.exact(rung.label + "." + name,
                          static_cast<std::uint64_t>(count));
            }
            rung_delays[i].push_back(r.ms["caam.delays.ms"]);
            rung_channels[i].push_back(r.ms["caam.channels.ms"]);
            channel_counts[i] = static_cast<double>(r.channels);

            flow::GenerateResult result;
            serial += time_ms([&] { result = generate(rung.model, 1); });
            parallel += time_ms(
                [&] { result = generate(rung.model, options.jobs); });
            obs::reset_spans();
            obs::set_enabled(true);
            traced += time_ms([&] { generate(rung.model, options.jobs); });
            obs::set_enabled(false);
            obs::reset_spans();

            const std::string* mdl = find_file(result, "simulink-caam");
            out.check(mdl && *mdl == r.mdl,
                      rung.label + ": replayed .mdl differs from generate's");
            std::vector<flow::GeneratedFile> files = output_files(result);
            fs::path dir = options.work_dir / "traced" / rung.label;
            fs::remove_all(dir);
            round["txout.commit.ms"] += commit(files, dir);
            round["txout.files"] += static_cast<double>(files.size());

            ExploreTimes dse =
                trace_explore(rung.label, rung.model, options.jobs, out, round);
            dse_serial += dse.serial_ms;
            dse_parallel += dse.parallel_ms;
        }
        round["flow.dispatch.ms"] = serial - layers;
        round["flow.trace.coverage"] = layers / serial;
        round["flow.trace.overhead_ms"] = traced - parallel;
        round["flow.gen_jobs.speedup"] = serial / parallel;
        round["dse.speedup"] = dse_serial / dse_parallel;
        corpus.trace_round(out, round);
        for (const auto& [name, value] : round) per_round[name].push_back(value);
    });

    for (const auto& [name, values] : per_round) out.metric(name, median(values));
    const std::size_t s = 0, l = rungs.size() - 1;
    out.metric("caam.delays.growth",
               growth_exponent(median(rung_delays[s]), median(rung_delays[l]),
                               channel_counts[s], channel_counts[l]));
    out.metric("caam.channels.growth",
               growth_exponent(median(rung_channels[s]),
                               median(rung_channels[l]), channel_counts[s],
                               channel_counts[l]));
}

}  // namespace

void run_generate_scale(const Options& options, Outcome& out) {
    std::vector<Rung> rungs;
    double setup_s = median_setup_s(5, [&] {
        rungs.clear();
        for (std::size_t i = 0; i < 2; ++i) {
            Rung rung;
            rung.label = kScaleLabel[i];
            rung.model = scale_model(options.seed, i);
            rung.xmi = uml::to_xmi_string(rung.model);
            rungs.push_back(std::move(rung));
        }
    });

    // Warm-up op, part of set-up: it fixes the reference output of each
    // rung and carries the full invariant check; every later op must
    // reproduce the same tree byte for byte.
    Clock::time_point warm_up = Clock::now();
    for (Rung& rung : rungs) {
        diag::DiagnosticEngine engine;
        uml::Model model = uml::from_xmi_string(rung.xmi, engine);
        flow::GenerateResult result = generate(model, options.jobs);
        out.attempt();
        std::string violation = check_output(model, result);
        out.check(violation.empty(), rung.label + ": " + violation);
        rung.digest = digest_of(output_files(result), &rung.bytes);
        out.exact(rung.label + ".digest", hex16(rung.digest));
        out.exact(rung.label + ".output_bytes", rung.bytes);
        std::cout << "rung " << rung.label << ": threads "
                  << model.threads().size() << ", xmi bytes "
                  << rung.xmi.size() << ", output bytes " << rung.bytes
                  << std::endl;
    }
    setup_s += ms_since(warm_up) / 1000.0;

    if (options.trace) {
        run_traced(options, rungs, out);
    } else {
        out.metric("setup_s", setup_s);
        run_ops(options, rungs, out);
    }
}

}  // namespace perfbench
