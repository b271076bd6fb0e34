// uhcg — command-line driver for the whole flow: the tool a designer runs
// against an XMI export from their UML editor (the MagicDraw step of
// Fig. 2).
//
// Usage:
//   uhcg generate <model.xmi> [options]     one-shot heterogeneous codegen:
//                                           partition the model and run every
//                                           matching strategy (.mdl + FSM C +
//                                           fallback C++) with a flow trace
//   uhcg map <model.xmi> [options]          UML → Simulink CAAM (.mdl)
//   uhcg codegen <model.xmi> [options]      UML → CAAM → per-CPU C program
//   uhcg threads <model.xmi> [options]      UML → multithreaded C++ (fallback)
//   uhcg kpn <model.xmi> [options]          UML → KPN summary (§3 retarget)
//   uhcg explore <model.xmi> [options]      design-space exploration report
//   uhcg dot <model.xmi> [options]          Graphviz: task graph + CAAM
//   uhcg check <model.xmi>                  well-formedness report only
//   uhcg fuzz-xmi <model.xmi> [options]     fault-injection robustness sweep
//   uhcg serve <socket.sock> [options]      long-lived daemon: answers
//                                           generate/explore/simulate over a
//                                           Unix socket with a resident model
//                                           cache (see DESIGN.md §12)
//   uhcg campaign <manifest.json> [options] supervised sharded sweep over a
//                                           models × strategies × cost-models
//                                           × backends matrix with per-job
//                                           quarantine and a crash-safe
//                                           --resume journal (DESIGN.md §15)
//   uhcg synth-corpus <out-dir> [options]   seeded deterministic UML/XMI
//                                           corpus generator (campaign fuel)
//
// Common options:
//   -o <path>            output file (map/threads) or directory (codegen,
//   --out <path>         generate); --out is an alias for -o
//   --trace-json <path>  generate: write the per-pass observability trace
//                        (schema uhcg-flow-trace-v1) as JSON
//   --with-kpn           generate: also emit the §3 KPN retargeting summary
//   --auto-allocate      §4.2.3 linear clustering instead of the
//                        deployment diagram
//   --max-cpus <n>       processor budget for auto allocation
//   --no-delays          skip §4.2.2 temporal-barrier insertion
//   --dump-ecore <path>  write the intermediate (pre-optimization) CAAM in
//                        the E-core interchange format (Fig. 2, step 3 input)
//   --report             print the mapping report (rules, channels, delays)
//   --json-diagnostics   emit collected diagnostics as JSON on stdout
//   --jobs <n>           explore: worker threads for candidate evaluation
//                        (0 = all hardware threads; results are identical
//                        for any value)
//   --sim-backend <name> explore/generate: simulation backend pricing the
//                        cost model — dynamic-fifo (default, the exact
//                        engine) or analytic (closed-form lower bound)
//   --mutations <n>      fuzz-xmi: number of mutants to run (default 70)
//   --seed <n>           fuzz-xmi: deterministic corpus seed (default 1)
//
// Observability options (any command):
//   --trace-out <path>   write a Chrome trace_event JSON of the run's span
//                        tree — load it in Perfetto (ui.perfetto.dev) or
//                        chrome://tracing
//   --metrics-out <path> write the uhcg-obs-v1 machine-readable summary
//                        (spans aggregated by name, counters, histograms)
//   --profile            print the human profile table (spans by total
//                        time, non-zero counters) after the command
//
// Resilience options (generate command):
//   --max-retries <n>        re-run a failed pass up to n times when every
//                            error it reported is transient-classified
//   --retry-backoff-ms <n>   base delay before the first retry (doubles per
//                            retry, capped; 0 = immediate)
//   --pass-budget-ms <n>     wall-clock budget per pass attempt (0 = off)
//   --kpn-firings <n>        KPN dry-run watchdog budget (kpn command too;
//                            0 = derived from --iterations)
//   --sim-steps <n>          watchdogged smoke-simulation steps in the
//                            schedulability probe (0 = build-only)
//   --resume                 replay checkpointed units whose inputs are
//                            unchanged instead of re-running them
//   --checkpoint-dir <path>  checkpoint location (default
//                            <outdir>/.uhcg-checkpoints)
//   --manifest <path>        also write the failure manifest (schema
//                            uhcg-flow-manifest-v1) to this path; the
//                            output directory always gets a copy as
//                            generate-manifest.json
//   --inject-fault <spec>    arm a deterministic pass-level fault for the
//                            chaos suite: throw:<site>, fatal:<site> or
//                            transient[xN]:<site>, site = substring of the
//                            "<group>/<pass>" trace label (repeatable)
//
// Checkpoint GC (generate + serve):
//   --checkpoint-ttl-s <n>   prune checkpoints older than n seconds
//   --checkpoint-max <n>     keep at most n newest checkpoints
//
// Campaign options (campaign command):
//   --out <dir>              campaign tree root (default campaign-out)
//   --resume                 replay the checkpoint journal: completed jobs
//                            are skipped, in-flight jobs re-run; the final
//                            tree is byte-identical to an uninterrupted run
//   --jobs <n>               worker threads running shards (0 = hardware)
//   --shard-size <n>         jobs per shard (default 1)
//   --halt-after <n>         chaos/CI hook: SIGKILL this process after the
//                            n-th journal append (deterministic kill -9)
//   --stale-ttl-s <n>        prune .uhcg-stage debris older than n seconds
//                            before the sweep (also generate; default 3600,
//                            0 = off)
//   --max-retries/--retry-backoff-ms/--pass-budget-ms apply per job
//
// Corpus options (synth-corpus command):
//   --corpus-models <n>      how many models to generate (default 8)
//   --seed <n>               master seed (default 1)
//   --min-threads <n> --max-threads <n>   thread count range (default 4-12)
//   --channel-density <pct>  extra-channel probability 0-100 (default 30)
//   --feedback-cycles <n>    last n models get a task-graph cycle — they
//                            fail explore deterministically (quarantine
//                            fuel; default 0)
//   --rate-min <n> --rate-max <n>         channel byte-rate range (1-64)
//
// Daemon options (serve command):
//   --jobs <n>               worker threads draining the request queue
//                            (default 2)
//   --queue-limit <n>        bounded request queue; a full queue answers
//                            serve.overloaded (default 64)
//   --cache-budget-mb <n>    resident model cache byte budget, LRU-evicted
//                            (default 256; 0 = unbounded)
//   --default-deadline-ms <n> deadline for requests that carry none
//                            (default 0 = none)
//   --max-frame-mb <n>       request/response frame ceiling (default 16)
//
// Exit codes:
//   0  success (warnings allowed)
//   1  the input produced diagnostics with severity error or above
//   2  usage error (bad command line)
//   3  partial success — generate quarantined some strategies but others
//      produced outputs; the manifest lists the quarantined units
//   4  internal error — an exception escaped the diagnostics engine
#include <atomic>
#include <csignal>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/corpus.hpp"
#include "campaign/manifest.hpp"
#include "codegen/caam_to_c.hpp"
#include "codegen/uml_to_cpp.hpp"
#include "core/mapping.hpp"
#include "core/pipeline.hpp"
#include "diag/diag.hpp"
#include "diag/mutate.hpp"
#include "dse/explore.hpp"
#include "flow/caam_passes.hpp"
#include "flow/checkpoint.hpp"
#include "flow/fault.hpp"
#include "flow/generate.hpp"
#include "flow/txout.hpp"
#include "kpn/execute.hpp"
#include "kpn/from_uml.hpp"
#include "sim/engine.hpp"
#include "obs/obs.hpp"
#include "serve/server.hpp"
#include "simulink/caam.hpp"
#include "simulink/generic.hpp"
#include "simulink/dot.hpp"
#include "simulink/mdl.hpp"
#include "taskgraph/dot.hpp"
#include "taskgraph/linear.hpp"
#include "uml/wellformed.hpp"
#include "uml/xmi.hpp"

namespace {

using namespace uhcg;

constexpr int kExitOk = 0;
constexpr int kExitDiagnostics = 1;
constexpr int kExitUsage = 2;
/// Some strategies were quarantined but others produced outputs.
constexpr int kExitPartial = 3;
constexpr int kExitInternal = 4;

struct Cli {
    std::string command;
    std::string input;
    std::string output;
    std::string dump_ecore;
    std::string trace_json;
    bool with_kpn = false;
    core::MapperOptions mapper;
    bool report = false;
    bool json_diagnostics = false;
    std::size_t iterations = 100;
    std::size_t mutations = 70;
    std::uint64_t seed = 1;
    std::size_t jobs = 0;
    // DSE (explore).
    std::size_t dse_chunk = 0;
    bool dse_verify_full = false;
    // Simulation backend (explore, generate, serve).
    std::string sim_backend;
    // Parallel generate dispatch (generate, campaign).
    std::size_t gen_jobs = 1;
    bool caam_c = true;
    bool caam_dot = true;
    // Resilience layer (generate).
    std::size_t max_retries = 0;
    std::uint64_t retry_backoff_ms = 0;
    std::uint64_t pass_budget_ms = 0;
    std::size_t kpn_firings = 0;
    std::size_t sim_steps = 0;
    bool resume = false;
    std::string checkpoint_dir;
    std::string manifest;
    std::vector<std::string> inject_faults;
    // Checkpoint GC (generate + serve).
    std::uint64_t checkpoint_ttl_s = 0;
    std::size_t checkpoint_max = 0;
    // Campaign.
    std::size_t shard_size = 0;
    std::size_t halt_after = 0;
    std::uint64_t stale_ttl_s = 3600;
    // Synthetic corpus.
    std::size_t corpus_models = 8;
    std::size_t min_threads = 4;
    std::size_t max_threads = 12;
    std::size_t channel_density = 30;
    std::size_t feedback_cycles = 0;
    std::size_t rate_min = 1;
    std::size_t rate_max = 64;
    // Daemon (serve).
    std::size_t queue_limit = 64;
    std::size_t cache_budget_mb = 256;
    std::uint64_t default_deadline_ms = 0;
    std::size_t max_frame_mb = 16;
    // Observability (any command).
    std::string trace_out;
    std::string metrics_out;
    bool profile = false;

    bool observing() const {
        return !trace_out.empty() || !metrics_out.empty() || profile;
    }
};

int usage(const char* argv0) {
    std::cerr
        << "usage: " << argv0
        << " <generate|map|codegen|threads|kpn|explore|dot|check|fuzz-xmi>"
           " <model.xmi> [options]\n"
           "       " << argv0 << " serve <socket.sock> [options]\n"
           "       " << argv0 << " campaign <manifest.json> [options]\n"
           "       " << argv0 << " synth-corpus <out-dir> [options]\n"
           "options: -o|--out <path> --auto-allocate --max-cpus <n>\n"
           "         --no-delays --dump-ecore <path> --report\n"
           "         --json-diagnostics\n"
           "         --trace-json <path> --with-kpn (generate command)\n"
           "         --gen-jobs <n> (generate/campaign: worker threads for\n"
           "                         the strategy dispatch; 1 = serial\n"
           "                         (default), 0 = all hardware threads;\n"
           "                         outputs are identical for any value)\n"
           "         --no-caam-c --no-caam-dot (generate: skip the C /\n"
           "                         Graphviz emitters of the shared CAAM)\n"
           "         --max-retries <n> --retry-backoff-ms <n>\n"
           "         --pass-budget-ms <n> --kpn-firings <n> --sim-steps <n>\n"
           "         --resume --checkpoint-dir <path> --manifest <path>\n"
           "         --inject-fault <kind>:<site> (generate command)\n"
           "         --trace-out <path> --metrics-out <path> --profile\n"
           "         --jobs <n> (explore command; 0 = all hardware threads)\n"
           "         --dse-chunk <n> (explore: candidates per pool task,\n"
           "                          0 = default; results are identical)\n"
           "         --dse-verify-full (explore: re-simulate every unique\n"
           "                            clustering from scratch and assert\n"
           "                            the incremental metrics match)\n"
           "         --sim-backend <name> (explore/generate: cost-model\n"
           "                          backend: dynamic-fifo (default, exact)\n"
           "                          or analytic (fast lower bound))\n"
           "         --iterations <n> (threads command)\n"
           "         --mutations <n> --seed <n> (fuzz-xmi command)\n"
           "         --checkpoint-ttl-s <n> --checkpoint-max <n>\n"
           "         --queue-limit <n> --cache-budget-mb <n>\n"
           "         --default-deadline-ms <n> --max-frame-mb <n> (serve)\n"
           "         --resume --jobs <n> --shard-size <n> --halt-after <n>\n"
           "         --stale-ttl-s <n> (campaign command)\n"
           "         --corpus-models <n> --seed <n> --min-threads <n>\n"
           "         --max-threads <n> --channel-density <pct>\n"
           "         --feedback-cycles <n> --rate-min <n> --rate-max <n>\n"
           "         (synth-corpus command)\n"
           "exit codes: 0 ok, 1 diagnostics with errors, 2 usage,\n"
           "            3 partial success (see manifest), 4 internal\n";
    return kExitUsage;
}

bool parse_cli(int argc, char** argv, Cli& cli) {
    if (argc < 3) return false;
    cli.command = argv[1];
    cli.input = argv[2];
    for (int i = 3; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> const char* {
            if (i + 1 >= argc) return nullptr;
            return argv[++i];
        };
        // Numeric option values must parse fully — "abc" silently becoming
        // 0 would make `--mutations abc` a no-op sweep.
        auto next_number = [&](auto& out) {
            const char* v = next();
            if (!v || *v == '\0') return false;
            char* end = nullptr;
            unsigned long long parsed = std::strtoull(v, &end, 10);
            if (end == v || *end != '\0') {
                std::cerr << "option " << arg << " needs a number, got '" << v
                          << "'\n";
                return false;
            }
            out = static_cast<std::decay_t<decltype(out)>>(parsed);
            return true;
        };
        if (arg == "-o" || arg == "--out") {
            const char* v = next();
            if (!v) return false;
            cli.output = v;
        } else if (arg == "--trace-json") {
            const char* v = next();
            if (!v) return false;
            cli.trace_json = v;
        } else if (arg == "--with-kpn") {
            cli.with_kpn = true;
        } else if (arg == "--auto-allocate") {
            cli.mapper.auto_allocate = true;
        } else if (arg == "--max-cpus") {
            if (!next_number(cli.mapper.max_processors)) return false;
        } else if (arg == "--no-delays") {
            cli.mapper.insert_delays = false;
        } else if (arg == "--dump-ecore") {
            const char* v = next();
            if (!v) return false;
            cli.dump_ecore = v;
        } else if (arg == "--report") {
            cli.report = true;
        } else if (arg == "--json-diagnostics") {
            cli.json_diagnostics = true;
        } else if (arg == "--jobs") {
            if (!next_number(cli.jobs)) return false;
        } else if (arg == "--gen-jobs") {
            if (!next_number(cli.gen_jobs)) return false;
        } else if (arg == "--no-caam-c") {
            cli.caam_c = false;
        } else if (arg == "--no-caam-dot") {
            cli.caam_dot = false;
        } else if (arg == "--dse-chunk") {
            if (!next_number(cli.dse_chunk)) return false;
        } else if (arg == "--dse-verify-full") {
            cli.dse_verify_full = true;
        } else if (arg == "--sim-backend") {
            const char* v = next();
            if (!v) return false;
            cli.sim_backend = v;
        } else if (arg == "--iterations") {
            if (!next_number(cli.iterations)) return false;
        } else if (arg == "--mutations") {
            if (!next_number(cli.mutations)) return false;
        } else if (arg == "--seed") {
            if (!next_number(cli.seed)) return false;
        } else if (arg == "--max-retries") {
            if (!next_number(cli.max_retries)) return false;
        } else if (arg == "--retry-backoff-ms") {
            if (!next_number(cli.retry_backoff_ms)) return false;
        } else if (arg == "--pass-budget-ms") {
            if (!next_number(cli.pass_budget_ms)) return false;
        } else if (arg == "--kpn-firings") {
            if (!next_number(cli.kpn_firings)) return false;
        } else if (arg == "--sim-steps") {
            if (!next_number(cli.sim_steps)) return false;
        } else if (arg == "--resume") {
            cli.resume = true;
        } else if (arg == "--checkpoint-dir") {
            const char* v = next();
            if (!v) return false;
            cli.checkpoint_dir = v;
        } else if (arg == "--manifest") {
            const char* v = next();
            if (!v) return false;
            cli.manifest = v;
        } else if (arg == "--checkpoint-ttl-s") {
            if (!next_number(cli.checkpoint_ttl_s)) return false;
        } else if (arg == "--checkpoint-max") {
            if (!next_number(cli.checkpoint_max)) return false;
        } else if (arg == "--shard-size") {
            if (!next_number(cli.shard_size)) return false;
        } else if (arg == "--halt-after") {
            if (!next_number(cli.halt_after)) return false;
        } else if (arg == "--stale-ttl-s") {
            if (!next_number(cli.stale_ttl_s)) return false;
        } else if (arg == "--corpus-models") {
            if (!next_number(cli.corpus_models)) return false;
        } else if (arg == "--min-threads") {
            if (!next_number(cli.min_threads)) return false;
        } else if (arg == "--max-threads") {
            if (!next_number(cli.max_threads)) return false;
        } else if (arg == "--channel-density") {
            if (!next_number(cli.channel_density)) return false;
        } else if (arg == "--feedback-cycles") {
            if (!next_number(cli.feedback_cycles)) return false;
        } else if (arg == "--rate-min") {
            if (!next_number(cli.rate_min)) return false;
        } else if (arg == "--rate-max") {
            if (!next_number(cli.rate_max)) return false;
        } else if (arg == "--queue-limit") {
            if (!next_number(cli.queue_limit)) return false;
        } else if (arg == "--cache-budget-mb") {
            if (!next_number(cli.cache_budget_mb)) return false;
        } else if (arg == "--default-deadline-ms") {
            if (!next_number(cli.default_deadline_ms)) return false;
        } else if (arg == "--max-frame-mb") {
            if (!next_number(cli.max_frame_mb)) return false;
        } else if (arg == "--trace-out") {
            const char* v = next();
            if (!v) return false;
            cli.trace_out = v;
        } else if (arg == "--metrics-out") {
            const char* v = next();
            if (!v) return false;
            cli.metrics_out = v;
        } else if (arg == "--profile") {
            cli.profile = true;
        } else if (arg == "--inject-fault") {
            const char* v = next();
            if (!v) return false;
            if (!flow::fault::Injector::instance().arm_spec(v)) {
                std::cerr << "bad --inject-fault spec: " << v
                          << " (want throw:<site>, fatal:<site> or "
                             "transient[xN]:<site>)\n";
                return false;
            }
            cli.inject_faults.push_back(v);
        } else {
            std::cerr << "unknown option: " << arg << '\n';
            return false;
        }
    }
    return true;
}

void print_report(const core::MapperReport& report) {
    std::cout << "mapping report:\n  rules fired:";
    for (const auto& [rule, count] : report.rule_stats.applications)
        std::cout << ' ' << rule << "=" << count;
    std::cout << "\n  trace links: " << report.rule_stats.trace_links
              << "\n  processors: " << report.allocation.processor_count();
    for (std::size_t p = 0; p < report.allocation.processor_count(); ++p) {
        std::cout << "\n    " << report.allocation.processor_name(p) << ":";
        for (const uml::ObjectInstance* t : report.allocation.threads_on(p))
            std::cout << ' ' << t->name();
    }
    std::cout << "\n  channels: " << report.channels.intra_channels
              << " SWFIFO + " << report.channels.inter_channels << " GFIFO"
              << "\n  system ports: " << report.channels.system_inputs << " in, "
              << report.channels.system_outputs << " out"
              << "\n  temporal barriers: " << report.delays.inserted << '\n';
    for (const std::string& loc : report.delays.locations)
        std::cout << "    " << loc << '\n';
    for (const std::string& w : report.warnings())
        std::cout << "  warning: " << w << '\n';
}

int cmd_check(const uml::Model& model, diag::DiagnosticEngine& engine) {
    bool clean = uml::check(model, engine);
    if (engine.empty()) {
        std::cout << "ok: model is well-formed ("
                  << model.threads().size() << " threads, "
                  << model.sequence_diagrams().size()
                  << " sequence diagrams)\n";
    }
    return clean ? kExitOk : kExitDiagnostics;
}

int cmd_map(const uml::Model& model, const Cli& cli,
            diag::DiagnosticEngine& engine) {
    core::MapperReport report;
    // --dump-ecore exposes the Fig. 2 step-3 input: the raw m2m result in
    // E-core form, written by the pipeline right after core.mapping.
    bool dumped = false;
    flow::PassManager pm("core.pipeline");
    auto caam = flow::run_caam_pipeline(
        pm, model, cli.mapper, engine, report, nullptr, {},
        [&](flow::PassManager& p) {
            if (!cli.dump_ecore.empty()) flow::add_ecore_dump(p, cli.dump_ecore, &dumped);
        });
    if (dumped)
        std::cout << "wrote intermediate E-core model: " << cli.dump_ecore
                  << '\n';
    if (!caam) return kExitDiagnostics;
    // Schedulability probe: a CAAM with a combinational cycle (e.g. mapped
    // with --no-delays) would deadlock any dataflow implementation. Print
    // the structured payload — the cycle and its dependency edges — rather
    // than shipping a broken .mdl silently.
    try {
        sim::SFunctionRegistry probe;
        sim::Simulator check_schedule(*caam, probe);
    } catch (const sim::DeadlockError& e) {
        sim::report_deadlock(e, engine);
        return kExitDiagnostics;
    } catch (const std::exception&) {
        // Other structure issues (unregistered S-functions in the empty
        // probe registry) are expected here and not a mapping error.
    }
    std::string out_path =
        cli.output.empty() ? model.name() + ".mdl" : cli.output;
    flow::write_file_atomic(out_path, simulink::write_mdl(*caam));
    std::cout << "wrote " << out_path << " ("
              << simulink::caam_stats(*caam).total_blocks << " blocks)\n";
    if (cli.report) print_report(report);
    return kExitOk;
}

int cmd_codegen(const uml::Model& model, const Cli& cli,
                diag::DiagnosticEngine& engine) {
    core::MapperReport report;
    auto caam = core::map_to_caam(model, cli.mapper, engine, &report);
    if (!caam) return kExitDiagnostics;
    codegen::GeneratedProgram program = codegen::generate_c_program(*caam);
    std::filesystem::path dir =
        cli.output.empty() ? model.name() + "_c" : cli.output;
    flow::OutputTransaction tx(dir);
    for (const auto& [name, contents] : program.files)
        tx.write(name, contents);
    tx.commit();
    std::cout << "wrote " << program.files.size() << " files to " << dir
              << " (build: cc -std=c99 main.c sfunctions.c cpu_*.c)\n";
    if (cli.report) print_report(report);
    return kExitOk;
}

int cmd_threads(const uml::Model& model, const Cli& cli,
                diag::DiagnosticEngine& engine) {
    codegen::CppProgram program =
        codegen::generate_cpp_threads(model, cli.iterations, engine);
    std::string out_path = cli.output.empty() ? program.file_name : cli.output;
    flow::write_file_atomic(out_path, program.source);
    std::cout << "wrote " << out_path << " (" << program.thread_count
              << " threads, " << program.queue_count
              << " queues; build: c++ -std=c++17 -pthread)\n";
    return kExitOk;
}

int cmd_generate(const uml::Model& model, const Cli& cli,
                 diag::DiagnosticEngine& engine) {
    std::filesystem::path dir =
        cli.output.empty() ? model.name() + "_gen" : cli.output;

    // Reclaim .uhcg-stage debris a kill -9 left under the output tree.
    // Age-gated so a concurrently running generate's live stage survives.
    if (cli.stale_ttl_s) {
        flow::StaleStageStats stale =
            flow::prune_stale_stages(dir, cli.stale_ttl_s);
        if (stale.pruned)
            std::cout << "pruned " << stale.pruned
                      << " stale staging dir(s) under " << dir.string()
                      << '\n';
    }

    flow::GenerateOptions options;
    options.mapper = cli.mapper;
    options.iterations = cli.iterations;
    options.with_kpn = cli.with_kpn;
    options.caam_c = cli.caam_c;
    options.caam_dot = cli.caam_dot;
    options.gen_jobs = cli.gen_jobs;
    options.sim_backend = cli.sim_backend;
    options.resilience.retry.max_retries = cli.max_retries;
    options.resilience.retry.backoff_ms = cli.retry_backoff_ms;
    options.resilience.pass_budget.wall_ms = cli.pass_budget_ms;
    options.resilience.kpn_firings = cli.kpn_firings;
    options.resilience.sim_steps = cli.sim_steps;
    options.resilience.resume = cli.resume;
    options.resilience.checkpoint_dir =
        cli.checkpoint_dir.empty() ? (dir / ".uhcg-checkpoints").string()
                                   : cli.checkpoint_dir;
    // Checkpoint keys hash the serialized source model; an unreadable
    // input already failed in dispatch() before reaching here.
    {
        std::ifstream in(cli.input, std::ios::binary);
        options.resilience.model_bytes.assign(
            (std::istreambuf_iterator<char>(in)),
            std::istreambuf_iterator<char>());
    }

    flow::FlowTrace trace;
    flow::GenerateResult result = flow::generate(model, options, engine, &trace);

    // Transactional commit: every surviving file lands through the staging
    // directory, so a quarantined or aborted run never leaves a torn
    // artifact — the destination holds either a file's previous version or
    // nothing. The manifest commits with the files.
    std::string manifest = flow::to_manifest_json(result);
    flow::OutputTransaction tx(dir);
    std::size_t written = 0;
    for (const flow::StrategyResult& sr : result.results)
        for (const flow::GeneratedFile& f : sr.files) {
            tx.write(f.name, f.contents);
            ++written;
        }
    tx.write("generate-manifest.json", manifest + "\n");
    tx.commit();

    std::cout << "partitioned '" << model.name() << "' into "
              << result.partitions.subsystems.size() << " subsystem(s)";
    if (result.partitions.feedback_cycles)
        std::cout << ", " << result.partitions.feedback_cycles
                  << " feedback cycle(s)";
    std::cout << ":\n";
    for (const flow::Subsystem& s : result.partitions.subsystems)
        std::cout << "  " << s.name << " [" << flow::to_string(s.kind) << "]\n";
    for (const flow::StrategyResult& sr : result.results) {
        std::cout << "  " << sr.strategy << " (" << sr.subsystem << "):";
        if (!sr.ok) std::cout << " QUARANTINED";
        if (sr.cached) std::cout << " [resumed]";
        for (const flow::GeneratedFile& f : sr.files)
            std::cout << ' ' << f.name;
        std::cout << '\n';
    }
    std::cout << "wrote " << written << " file(s) to " << dir.string() << '\n';
    if (!result.quarantined.empty())
        std::cout << "quarantined " << result.quarantined.size()
                  << " strategy unit(s); see "
                  << (dir / "generate-manifest.json").string() << '\n';

    if (!cli.manifest.empty())
        flow::write_file_atomic(cli.manifest, manifest + "\n");
    if (!cli.trace_json.empty()) {
        flow::write_file_atomic(cli.trace_json, trace.to_json() + "\n");
        std::cout << "wrote trace: " << cli.trace_json << '\n';
    }
    if (cli.report)
        for (const flow::StrategyResult& sr : result.results)
            if (sr.strategy == "simulink-caam") print_report(sr.mapper_report);
    // Checkpoint GC rides along with the run: a long-lived checkpoint
    // directory otherwise accumulates one .ckpt per (model, unit) revision
    // forever.
    if (cli.checkpoint_ttl_s || cli.checkpoint_max) {
        flow::CheckpointStore store(options.resilience.checkpoint_dir);
        flow::CheckpointStore::PruneOptions gc;
        gc.max_age_seconds = cli.checkpoint_ttl_s;
        gc.max_count = cli.checkpoint_max;
        flow::CheckpointStore::PruneResult pruned = store.prune(gc);
        if (pruned.pruned)
            std::cout << "pruned " << pruned.pruned << " of " << pruned.scanned
                      << " checkpoint(s) in "
                      << options.resilience.checkpoint_dir << '\n';
    }
    switch (result.status) {
        case flow::GenerateStatus::Ok: return kExitOk;
        case flow::GenerateStatus::Partial: return kExitPartial;
        case flow::GenerateStatus::Failed: return kExitDiagnostics;
    }
    return kExitDiagnostics;
}

int cmd_kpn(const uml::Model& model, const Cli& cli,
            diag::DiagnosticEngine& engine) {
    kpn::KpnMappingOutput out = kpn::map_to_kpn(model);
    std::cout << "KPN '" << out.network.name() << "': "
              << out.network.processes().size() << " processes, "
              << out.network.channels().size() << " channels, "
              << out.initial_tokens_inserted << " initial token(s)\n";
    for (const kpn::ChannelDecl& c : out.network.channels())
        std::cout << "  " << c.producer->name() << " --" << c.variable
                  << "--> " << c.consumer->name()
                  << (c.initial_tokens ? "  [seeded]" : "") << '\n';
    for (const std::string& w : out.warnings)
        engine.warning(diag::codes::kMapRule, "kpn: " + w);
    // Watchdogged dry-run with pass-through kernels: a read-blocked
    // network prints the structured payload (blocked processes, channel
    // fill levels) instead of a bare exception, and a livelock cannot
    // hang the CLI.
    kpn::KernelRegistry registry;
    for (const auto& p : out.network.processes())
        registry.register_kernel(p->name(), [](auto, auto outputs, auto&) {
            for (double& v : outputs) v = 0.0;
        });
    kpn::Executor exec(out.network, registry);
    kpn::WatchdogBudget budget;
    budget.max_firings =
        cli.kpn_firings
            ? cli.kpn_firings
            : cli.iterations * out.network.processes().size() * 4 + 1000;
    kpn::KpnResult r = exec.run(cli.iterations, engine, budget);
    if (!r.deadlocked && !r.budget_exhausted)
        std::cout << "dry-run: " << r.rounds << " round(s), " << r.firings
                  << " firing(s), max queue depth " << r.max_queue_depth
                  << '\n';
    return kExitOk;
}

int cmd_dot(const uml::Model& model, const Cli& cli,
            diag::DiagnosticEngine& engine) {
    core::CommModel comm = core::analyze_communication(model);
    // Task graph with the clustering the flow would pick (Fig. 7 style).
    // Linear clustering needs a DAG, so a feedback model (a closed control
    // loop such as the crane) is drawn unclustered.
    taskgraph::TaskGraph graph = core::build_task_graph(model, comm);
    taskgraph::DotOptions options;
    options.name = model.name();
    std::string taskgraph_dot;
    if (graph.is_acyclic()) {
        taskgraph_dot = taskgraph::to_dot(
            graph, core::auto_clustering(graph), options);
    } else {
        engine.warning(diag::codes::kDseModel,
                       "task graph of model '" + model.name() +
                           "' has a feedback cycle; linear clustering needs "
                           "a DAG, so it is drawn unclustered");
        taskgraph_dot = taskgraph::to_dot(graph, options);
    }
    std::string base = cli.output.empty() ? model.name() : cli.output;
    flow::write_file_atomic(base + "_taskgraph.dot", taskgraph_dot);
    // The generated CAAM as a block diagram (Fig. 3(c)/8 style).
    auto caam = core::map_to_caam(model, cli.mapper, engine);
    if (!caam) return kExitDiagnostics;
    flow::write_file_atomic(base + "_caam.dot", simulink::to_dot(*caam));
    std::cout << "wrote " << base << "_taskgraph.dot and " << base
              << "_caam.dot (render with: dot -Tpng -O <file>)\n";
    return kExitOk;
}

int cmd_explore(const uml::Model& model, const Cli& cli,
                diag::DiagnosticEngine& engine) {
    core::CommModel comm = core::analyze_communication(model);
    dse::ExploreOptions options;
    options.max_processors = cli.mapper.max_processors;
    options.jobs = cli.jobs;
    options.chunk_size = cli.dse_chunk;
    options.verify_full = cli.dse_verify_full;
    options.backend = cli.sim_backend;
    dse::ExploreResult result;
    try {
        result = dse::explore(model, comm, options, &engine);
    } catch (const std::invalid_argument& e) {
        // Unknown --sim-backend: a usage error, listing the known names.
        std::cerr << "error: " << e.what() << '\n';
        return kExitUsage;
    } catch (const std::exception& e) {
        // A model the sweep cannot explore (e.g. a cyclic task graph from a
        // closed control loop) is an input property, not an internal error.
        engine.report(diag::Severity::Error, diag::codes::kDseModel,
                      "model '" + model.name() +
                          "' is not explorable: " + e.what());
        return kExitDiagnostics;
    }
    if (result.candidates.empty()) {
        // Same structured code the best_allocation path reports — the
        // exit-code contract (1, not a bare throw) covers explore too.
        engine.report(diag::Severity::Error, diag::codes::kDseEmpty,
                      "nothing to explore: model '" + model.name() +
                          "' has no threads");
        return kExitDiagnostics;
    }
    std::cout << dse::format(result);
    const dse::ExploreStats& s = result.stats;
    std::cout << "backend: " << s.backend << '\n';
    std::cout << "evaluated with jobs=" << s.jobs << ": " << s.simulations
              << " simulated, " << s.duplicates_skipped
              << " duplicate clustering(s) skipped, " << s.cache_hits
              << " cache hit(s)\n"
              << "incremental: " << s.prefix_tasks_reused
              << " schedule position(s) replayed across " << s.chunks
              << " chunk(s)\n";
    if (s.verified)
        std::cout << "verify-full: " << s.verified
                  << " clustering(s) re-simulated from scratch, all metrics "
                     "identical\n";
    return kExitOk;
}

/// Fault-injection sweep: runs a deterministic mutation corpus derived
/// from the input through the full recovering pipeline and verifies that
/// every mutant terminates in diagnostics — never an escaped exception.
int cmd_fuzz(const Cli& cli) {
    std::ifstream in(cli.input, std::ios::binary);
    if (!in) {
        std::cerr << "error: cannot open XMI file: " << cli.input << '\n';
        return kExitDiagnostics;
    }
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());

    auto plan = diag::plan_mutations(cli.mutations, cli.seed);
    std::size_t diagnosed = 0, clean = 0;
    std::vector<std::string> escaped;
    std::map<std::string, std::size_t> by_kind;
    for (diag::Mutation& m : plan) {
        std::string mutant = diag::apply_mutation(text, m);
        diag::DiagnosticEngine engine;
        try {
            uml::Model model = uml::from_xmi_string(mutant, engine, "<mutant>");
            if (!engine.has_errors())
                if (auto caam = core::map_to_caam(model, cli.mapper, engine))
                    (void)simulink::write_mdl(*caam);
        } catch (const std::exception& e) {
            escaped.push_back(std::string(diag::to_string(m.kind)) + " (" +
                              m.description + "): " + e.what());
            continue;
        }
        ++by_kind[std::string(diag::to_string(m.kind))];
        if (engine.has_errors())
            ++diagnosed;
        else
            ++clean;
        if (cli.report)
            std::cout << "  " << diag::to_string(m.kind) << ": " << m.description
                      << " -> " << engine.error_count() << " error(s)\n";
    }
    std::cout << "fuzz-xmi: " << plan.size() << " mutant(s), seed " << cli.seed
              << ": " << diagnosed << " diagnosed, " << clean
              << " survived clean, " << escaped.size()
              << " escaped exception(s)\n";
    for (const auto& [kind, count] : by_kind)
        std::cout << "  " << kind << ": " << count << '\n';
    if (!escaped.empty()) {
        for (const std::string& e : escaped)
            std::cerr << "ESCAPED: " << e << '\n';
        // An escaped exception is a robustness bug in the pipeline itself.
        return kExitInternal;
    }
    return kExitOk;
}

int cmd_campaign(const Cli& cli, diag::DiagnosticEngine& engine) {
    campaign::Manifest manifest = campaign::load_manifest(cli.input, engine);
    if (engine.has_errors()) return kExitDiagnostics;

    campaign::CampaignOptions options;
    options.out_dir = cli.output.empty() ? "campaign-out" : cli.output;
    options.resume = cli.resume;
    options.jobs = cli.jobs;
    options.gen_jobs = cli.gen_jobs;
    options.shard_size = cli.shard_size;
    options.halt_after = cli.halt_after;
    options.retry.max_retries = cli.max_retries;
    options.retry.backoff_ms = cli.retry_backoff_ms;
    options.pass_budget_ms = cli.pass_budget_ms;
    options.stale_stage_ttl_s = cli.stale_ttl_s;

    campaign::CampaignResult result =
        campaign::run_campaign(manifest, options, engine);
    if (result.jobs_total == 0) return kExitDiagnostics;

    std::cout << "campaign " << campaign::to_string(result.status) << ": "
              << result.jobs_ok << "/" << result.jobs_total << " job(s) ok";
    if (result.jobs_quarantined)
        std::cout << ", " << result.jobs_quarantined << " quarantined";
    if (result.jobs_resumed)
        std::cout << ", " << result.jobs_resumed << " resumed from journal";
    if (result.stale_stages_pruned)
        std::cout << ", " << result.stale_stages_pruned
                  << " stale stage(s) pruned";
    std::cout << "\nwrote " << result.report_path.string() << " and "
              << result.manifest_path.string() << '\n';
    for (const campaign::JournalEntry& entry : result.outcomes)
        if (entry.status != "ok")
            std::cout << "  quarantined " << entry.dir << ": ["
                      << entry.error_code << "] " << entry.error_message
                      << '\n';
    switch (result.status) {
        case campaign::CampaignStatus::Ok: return kExitOk;
        case campaign::CampaignStatus::Partial: return kExitPartial;
        case campaign::CampaignStatus::Failed: return kExitDiagnostics;
    }
    return kExitDiagnostics;
}

int cmd_synth_corpus(const Cli& cli) {
    campaign::CorpusOptions options;
    options.models = cli.corpus_models;
    options.seed = cli.seed;
    options.min_threads = cli.min_threads;
    options.max_threads = cli.max_threads;
    options.channel_density = static_cast<unsigned>(cli.channel_density);
    options.feedback_cycles = cli.feedback_cycles;
    options.rate_min = static_cast<double>(cli.rate_min);
    options.rate_max = static_cast<double>(cli.rate_max);

    campaign::CorpusResult result;
    try {
        result = campaign::write_corpus(options, cli.input);
    } catch (const std::invalid_argument& e) {
        std::cerr << "synth-corpus: " << e.what() << '\n';
        return kExitUsage;
    }
    std::size_t cyclic = 0;
    for (const campaign::CorpusModelInfo& info : result.models)
        if (info.cyclic) ++cyclic;
    std::cout << "wrote " << result.models.size() << " model(s) ("
              << cyclic << " cyclic) + corpus-index.json to " << cli.input
              << '\n';
    return kExitOk;
}

/// The live daemon, visible to the signal handler. Handlers may only call
/// the async-signal-safe notify_stop() (one write(2) to a self-pipe).
std::atomic<serve::Server*> g_server{nullptr};

extern "C" void handle_stop_signal(int) {
    if (serve::Server* server = g_server.load(std::memory_order_acquire))
        server->notify_stop();
}

int cmd_serve(const Cli& cli) {
    serve::ServerOptions options;
    options.socket_path = cli.input;
    options.workers = cli.jobs ? cli.jobs : 2;
    options.queue_limit = cli.queue_limit;
    options.max_frame_bytes = cli.max_frame_mb << 20;
    options.engine.cache_budget_bytes = cli.cache_budget_mb << 20;
    options.engine.default_deadline_ms = cli.default_deadline_ms;
    options.engine.checkpoint_dir = cli.checkpoint_dir;
    options.engine.checkpoint_gc.max_age_seconds = cli.checkpoint_ttl_s;
    options.engine.checkpoint_gc.max_count = cli.checkpoint_max;

    serve::Server server(std::move(options));
    std::string error;
    if (!server.start(error)) {
        std::cerr << "serve: " << error << '\n';
        return kExitInternal;
    }
    g_server.store(&server, std::memory_order_release);
    std::signal(SIGTERM, handle_stop_signal);
    std::signal(SIGINT, handle_stop_signal);
    // A client vanishing mid-response must not kill the daemon; the write
    // path uses MSG_NOSIGNAL, this covers any other surface.
    std::signal(SIGPIPE, SIG_IGN);

    std::cout << "uhcg serve: listening on " << cli.input << " (workers="
              << server.options().workers << ", queue-limit="
              << server.options().queue_limit << ", cache-budget="
              << cli.cache_budget_mb << " MiB)\n"
              << std::flush;
    server.wait();
    g_server.store(nullptr, std::memory_order_release);

    serve::ModelCache::Stats stats = server.engine().cache().stats();
    std::cout << "uhcg serve: drained; cache " << stats.entries
              << " model(s) resident, " << stats.hits << " hit(s), "
              << stats.misses << " miss(es), " << stats.evictions
              << " eviction(s)\n";
    return kExitOk;
}

int dispatch(const Cli& cli) {
    // Root of the span tree: everything the command does nests below it.
    obs::ObsSpan root("cli." + cli.command, "cli");
    if (cli.command == "fuzz-xmi") return cmd_fuzz(cli);
    if (cli.command == "serve") return cmd_serve(cli);
    if (cli.command == "synth-corpus") return cmd_synth_corpus(cli);
    if (cli.command == "campaign") {
        diag::DiagnosticEngine engine;
        int code = cmd_campaign(cli, engine);
        if (cli.json_diagnostics)
            std::cout << engine.render_json() << '\n';
        else if (!engine.empty())
            std::cerr << engine.render_text();
        return code;
    }

    diag::DiagnosticEngine engine;
    uml::Model model = uml::load_xmi(cli.input, engine);
    const bool loaded = !engine.has_errors();
    int code = kExitOk;
    bool known = true;
    if (loaded) {
        if (cli.command == "check")
            code = cmd_check(model, engine);
        else if (cli.command == "map")
            code = cmd_map(model, cli, engine);
        else if (cli.command == "codegen")
            code = cmd_codegen(model, cli, engine);
        else if (cli.command == "generate")
            code = cmd_generate(model, cli, engine);
        else if (cli.command == "threads")
            code = cmd_threads(model, cli, engine);
        else if (cli.command == "kpn")
            code = cmd_kpn(model, cli, engine);
        else if (cli.command == "explore")
            code = cmd_explore(model, cli, engine);
        else if (cli.command == "dot")
            code = cmd_dot(model, cli, engine);
        else
            known = false;
    }
    if (!known) {
        std::cerr << "unknown command: " << cli.command << '\n';
        return usage("uhcg");
    }
    if (cli.json_diagnostics)
        std::cout << engine.render_json() << '\n';
    else if (!engine.empty())
        std::cerr << engine.render_text();
    // A command that already decided on a non-ok code (e.g. generate's
    // partial success) keeps it; errors only escalate a clean exit. For a
    // generate run that actually executed, the three-valued run status is
    // authoritative: a pass that healed on retry leaves its transient
    // errors in the engine, yet every strategy succeeded — that is
    // success, not a diagnostics failure. A model that failed to load
    // still escalates.
    const bool status_authoritative = cli.command == "generate" && loaded;
    if (engine.has_errors() && code == kExitOk && !status_authoritative)
        return kExitDiagnostics;
    return code;
}

}  // namespace

namespace {

/// Flushes the requested observability artifacts. Runs even after a
/// failing command — a trace of a failed run is exactly what one debugs.
void write_obs_outputs(const Cli& cli) {
    std::vector<obs::SpanRecord> spans = obs::spans_snapshot();
    obs::MetricsSnapshot metrics = obs::metrics_snapshot();
    if (!cli.trace_out.empty()) {
        flow::write_file_atomic(cli.trace_out,
                                obs::chrome_trace_json(spans, &metrics) + "\n");
        std::cout << "wrote Chrome trace: " << cli.trace_out
                  << " (load in Perfetto or chrome://tracing)\n";
    }
    if (!cli.metrics_out.empty()) {
        flow::write_file_atomic(cli.metrics_out,
                                obs::summary_json(spans, metrics) + "\n");
        std::cout << "wrote metrics: " << cli.metrics_out << '\n';
    }
    if (cli.profile) std::cout << '\n' << obs::profile_table(spans, metrics);
}

}  // namespace

int main(int argc, char** argv) {
    Cli cli;
    if (!parse_cli(argc, argv, cli)) return usage(argv[0]);
    if (cli.observing()) obs::set_enabled(true);
    int code;
    try {
        code = dispatch(cli);
    } catch (const std::exception& e) {
        std::cerr << "internal error: " << e.what() << '\n';
        code = kExitInternal;
    }
    if (cli.observing()) {
        try {
            write_obs_outputs(cli);
        } catch (const std::exception& e) {
            std::cerr << "cannot write observability outputs: " << e.what()
                      << '\n';
            if (code == kExitOk) code = kExitInternal;
        }
    }
    return code;
}
