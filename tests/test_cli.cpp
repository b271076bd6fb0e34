// End-to-end tests of the uhcg command-line driver: the shipped-tool
// surface (XMI in, artifacts out). Locates the binary relative to the
// test's working directory (ctest runs in build/tests) and skips if it
// was not built.
#include <gtest/gtest.h>

#include <cstdlib>
#include <sys/wait.h>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <set>

#include "cases/cases.hpp"
#include "obs/json.hpp"
#include "simulink/mdl.hpp"
#include "uml/xmi.hpp"

namespace {

namespace fs = std::filesystem;
using namespace uhcg;

fs::path cli_path() {
    for (const char* candidate :
         {"../tools/uhcg", "./tools/uhcg", "build/tools/uhcg"}) {
        fs::path p = fs::absolute(candidate);
        if (fs::exists(p)) return p;
    }
    return {};
}

class CliTest : public ::testing::Test {
protected:
    fs::path cli;
    fs::path dir;

    void SetUp() override {
        cli = cli_path();
        if (cli.empty()) GTEST_SKIP() << "uhcg binary not found";
        dir = fs::path(testing::TempDir()) / "uhcg_cli";
        fs::remove_all(dir);
        fs::create_directories(dir);
        uml::save_xmi(cases::crane_model(), (dir / "crane.xmi").string());
        uml::save_xmi(cases::synthetic_model(), (dir / "synthetic.xmi").string());
        uml::save_xmi(cases::mixed_model(), (dir / "mixed.xmi").string());
    }

    /// Runs the CLI; returns exit status, captures stdout+stderr.
    int run(const std::string& args, std::string* output = nullptr) {
        fs::path log = dir / "cli.log";
        std::string cmd = "cd '" + dir.string() + "' && '" + cli.string() +
                          "' " + args + " > cli.log 2>&1";
        int status = std::system(cmd.c_str());
        if (output) {
            std::ifstream in(log);
            std::ostringstream buf;
            buf << in.rdbuf();
            *output = buf.str();
        }
        return status;
    }

    /// Process exit code of run() (std::system returns a wait status).
    int run_code(const std::string& args, std::string* output = nullptr) {
        int status = run(args, output);
        return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    }

    std::string slurp(const fs::path& p) {
        std::ifstream in(p, std::ios::binary);
        return std::string((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    }
};

TEST_F(CliTest, CheckReportsWellFormed) {
    std::string out;
    EXPECT_EQ(run("check crane.xmi", &out), 0);
    EXPECT_NE(out.find("well-formed"), std::string::npos);
}

TEST_F(CliTest, MapWritesValidMdl) {
    std::string out;
    ASSERT_EQ(run("map crane.xmi -o crane.mdl --report", &out), 0);
    EXPECT_NE(out.find("temporal barriers: 1"), std::string::npos);
    simulink::Model caam = simulink::load_mdl((dir / "crane.mdl").string());
    EXPECT_EQ(caam.name(), "crane");
    EXPECT_GT(caam.root().total_blocks(), 0u);
}

TEST_F(CliTest, MapDumpsIntermediateEcore) {
    ASSERT_EQ(run("map crane.xmi -o crane.mdl --dump-ecore step2.xml"), 0);
    std::ifstream in(dir / "step2.xml");
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    EXPECT_NE(text.find("uhcg:model"), std::string::npos);
    EXPECT_NE(text.find("SimulinkCAAM"), std::string::npos);
}

TEST_F(CliTest, MapDumpEcoreFailsLikeMapWhenTheMappingCannotRun) {
    // The dump is written from the pipeline's own mapping, so a model it
    // cannot allocate (no deployment diagram; a cyclic task graph under
    // --auto-allocate) fails with a structured map.internal diagnostic,
    // as without --dump-ecore, and no E-core file appears.
    for (const std::string args :
         {"synthetic.xmi", "crane.xmi --auto-allocate", "mixed.xmi --auto-allocate"}) {
        std::string out;
        EXPECT_EQ(run_code("map " + args + " --dump-ecore step2.xml", &out), 1)
            << args << "\n" << out;
        EXPECT_NE(out.find("[map.internal]"), std::string::npos) << args;
        EXPECT_EQ(out.find("internal error"), std::string::npos) << args;
        EXPECT_FALSE(fs::exists(dir / "step2.xml")) << args;
        EXPECT_EQ(run_code("map " + args), 1) << args;
    }
}

TEST_F(CliTest, CodegenEmitsProgramDirectory) {
    ASSERT_EQ(run("codegen synthetic.xmi --auto-allocate -o syn_c"), 0);
    EXPECT_TRUE(fs::exists(dir / "syn_c" / "main.c"));
    EXPECT_TRUE(fs::exists(dir / "syn_c" / "uhcg_rt.h"));
    int cpu_files = 0;
    for (const auto& entry : fs::directory_iterator(dir / "syn_c"))
        if (entry.path().filename().string().rfind("cpu_", 0) == 0) ++cpu_files;
    EXPECT_EQ(cpu_files, 4);
}

TEST_F(CliTest, ThreadsEmitsCpp) {
    ASSERT_EQ(run("threads crane.xmi -o crane_threads.cpp --iterations 5"), 0);
    std::ifstream in(dir / "crane_threads.cpp");
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    EXPECT_NE(text.find("k < 5"), std::string::npos);
    EXPECT_NE(text.find("run_T1"), std::string::npos);
}

TEST_F(CliTest, GenerateEmitsHeterogeneousOutputsAndTrace) {
    std::string out;
    ASSERT_EQ(
        run("generate mixed.xmi --out gen --trace-json trace.json", &out), 0);
    EXPECT_NE(out.find("control:Elevator [control-flow]"), std::string::npos);
    EXPECT_TRUE(fs::exists(dir / "gen" / "mixed.mdl"));
    EXPECT_TRUE(fs::exists(dir / "gen" / "Elevator_fsm.c"));
    EXPECT_TRUE(fs::exists(dir / "gen" / "Elevator_fsm.h"));
    EXPECT_TRUE(fs::exists(dir / "gen" / "mixed_threads.cpp"));
    std::ifstream in(dir / "trace.json");
    std::string trace((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    EXPECT_NE(trace.find("\"schema\": \"uhcg-flow-trace-v1\""),
              std::string::npos);
    EXPECT_NE(trace.find("\"fsm-c:control:Elevator\""), std::string::npos);
    // The dispatcher's .mdl parses like any mapped model.
    simulink::Model caam = simulink::load_mdl((dir / "gen" / "mixed.mdl").string());
    EXPECT_EQ(caam.name(), "mixed");
}

TEST_F(CliTest, KpnPrintsChannels) {
    std::string out;
    EXPECT_EQ(run("kpn crane.xmi", &out), 0);
    EXPECT_NE(out.find("3 processes"), std::string::npos);
    EXPECT_NE(out.find("[seeded]"), std::string::npos);
}

TEST_F(CliTest, ExplorePrintsParetoFront) {
    std::string out;
    EXPECT_EQ(run("explore synthetic.xmi", &out), 0);
    EXPECT_NE(out.find("pareto front"), std::string::npos);
    EXPECT_NE(out.find("recommended"), std::string::npos);
}

TEST_F(CliTest, ObservabilityFlagsEmitTraceMetricsAndProfile) {
    std::string out;
    ASSERT_EQ(run("generate mixed.xmi --out genobs --trace-out span_trace.json"
                  " --metrics-out metrics.json --profile",
                  &out),
              0);
    EXPECT_NE(out.find("wrote Chrome trace"), std::string::npos);
    EXPECT_NE(out.find("cli.generate"), std::string::npos);  // profile table

    // The Chrome trace parses, has one root, and spans at least the six
    // pipeline layers the tentpole promises.
    obs::json::Value trace;
    std::string error;
    ASSERT_TRUE(obs::json::parse(slurp(dir / "span_trace.json"), trace, error))
        << error;
    const obs::json::Value* events = trace.find("traceEvents");
    ASSERT_TRUE(events && events->is_array());
    std::set<std::string> categories;
    int roots = 0;
    for (const obs::json::Value& e : events->array) {
        if (e.find("ph")->string != "X") continue;
        categories.insert(e.find("cat")->string);
        if (e.find("args")->find("parent")->number == 0) ++roots;
    }
    EXPECT_EQ(roots, 1);
    for (const char* layer :
         {"xml", "uml", "taskgraph", "core", "flow", "codegen"})
        EXPECT_TRUE(categories.count(layer)) << layer;

    // The metrics summary round-trips with live counters.
    obs::json::Value metrics;
    ASSERT_TRUE(obs::json::parse(slurp(dir / "metrics.json"), metrics, error))
        << error;
    EXPECT_EQ(metrics.find("schema")->string, "uhcg-obs-v1");
    const obs::json::Value* counters = metrics.find("counters");
    ASSERT_TRUE(counters && counters->is_object());
    const obs::json::Value* nodes = counters->find("xml.nodes_parsed");
    ASSERT_TRUE(nodes && nodes->is_number());
    EXPECT_GT(nodes->number, 0.0);
}

TEST_F(CliTest, BadInputsFailGracefully) {
    std::string out;
    EXPECT_NE(run("map missing.xmi", &out), 0);
    EXPECT_NE(out.find("error:"), std::string::npos);
    EXPECT_NE(run("frobnicate crane.xmi", &out), 0);
    EXPECT_NE(run("map", &out), 0);  // missing input
}

TEST_F(CliTest, AutoAllocateMatchesFig7) {
    std::string out;
    ASSERT_EQ(run("map synthetic.xmi --auto-allocate -o syn.mdl --report", &out),
              0);
    EXPECT_NE(out.find("CPU0: A B C D F J"), std::string::npos);
    EXPECT_NE(out.find("CPU1: E I"), std::string::npos);
}

TEST_F(CliTest, DotWritesBothGraphs) {
    ASSERT_EQ(run("dot synthetic.xmi --auto-allocate -o syn"), 0);
    std::ifstream tg(dir / "syn_taskgraph.dot");
    std::string tg_text((std::istreambuf_iterator<char>(tg)),
                        std::istreambuf_iterator<char>());
    EXPECT_NE(tg_text.find("subgraph cluster_cpu0"), std::string::npos);
    std::ifstream caam(dir / "syn_caam.dot");
    std::string caam_text((std::istreambuf_iterator<char>(caam)),
                          std::istreambuf_iterator<char>());
    EXPECT_NE(caam_text.find("CPU-SS"), std::string::npos);

    // A feedback model cannot be linearly clustered: its task graph is
    // drawn unclustered, cycle included, next to the CAAM diagram.
    ASSERT_EQ(run("dot crane.xmi -o crane"), 0);
    ASSERT_TRUE(fs::exists(dir / "crane_caam.dot"));
    std::ifstream crane_tg(dir / "crane_taskgraph.dot");
    std::string crane_text((std::istreambuf_iterator<char>(crane_tg)),
                           std::istreambuf_iterator<char>());
    EXPECT_NE(crane_text.find("\"T3\" -> \"T1\""), std::string::npos)
        << crane_text;
}

// --- exit-code semantics: 0 = all units ok, 1 = diagnostics, 2 = usage,
// --- the sim.deadlock probe: `map` and `generate` report one diagnostic.

/// The rendered sim.deadlock diagnostic in `log`: its message line plus
/// every note line after it; empty when absent.
std::string deadlock_block(const std::string& log) {
    std::size_t at = log.find("[sim.deadlock]");
    if (at == std::string::npos) return {};
    std::size_t begin = log.rfind('\n', at);
    begin = begin == std::string::npos ? 0 : begin + 1;
    std::size_t end = log.find('\n', at) + 1;
    while (log.compare(end, 10, "    note: ") == 0)
        end = log.find('\n', end) + 1;
    return log.substr(begin, end - begin);
}

std::size_t count_of(const std::string& text, const std::string& needle) {
    std::size_t n = 0;
    for (std::size_t at = text.find(needle); at != std::string::npos;
         at = text.find(needle, at + needle.size()))
        ++n;
    return n;
}

TEST_F(CliTest, NoDelaysMapAndGenerateReportTheSameDeadlock) {
    std::string map_out, gen_out;
    EXPECT_EQ(run_code("map crane.xmi -o cyclic.mdl --no-delays", &map_out), 1);
    EXPECT_EQ(count_of(map_out, "[sim.deadlock]"), 1u) << map_out;
    EXPECT_FALSE(fs::exists(dir / "cyclic.mdl"));
    const std::string expected = deadlock_block(map_out);
    ASSERT_NE(expected.find("generated CAAM has a combinational cycle"),
              std::string::npos)
        << map_out;
    ASSERT_NE(expected.find("    note: insert a temporal barrier"),
              std::string::npos)
        << map_out;

    EXPECT_EQ(run_code("generate crane.xmi --out gen_cyclic --no-delays",
                       &gen_out),
              3);
    EXPECT_EQ(count_of(gen_out, "[sim.deadlock]"), 1u) << gen_out;
    EXPECT_EQ(deadlock_block(gen_out), expected) << gen_out;
}

TEST_F(CliTest, NoChannelsIsAnUnknownOption) {
    std::string out;
    EXPECT_EQ(run_code("map crane.xmi --no-channels", &out), 2);
    EXPECT_NE(out.find("unknown option: --no-channels"), std::string::npos);
}

// --- 3 = partial success (some units quarantined).

TEST_F(CliTest, ExitZeroWhenEveryUnitSucceeds) {
    EXPECT_EQ(run_code("generate mixed.xmi --out gen_ok"), 0);
    EXPECT_TRUE(fs::exists(dir / "gen_ok" / "generate-manifest.json"));
}

TEST_F(CliTest, ExitOneOnDiagnosticsFailure) {
    EXPECT_EQ(run_code("generate missing.xmi --out gen_miss"), 1);
    EXPECT_FALSE(fs::exists(dir / "gen_miss"));  // transactional: nothing leaks
}

TEST_F(CliTest, ExitTwoOnUsageError) {
    EXPECT_EQ(run_code("generate mixed.xmi --no-such-flag"), 2);
    EXPECT_EQ(run_code("frobnicate mixed.xmi"), 2);
}

TEST_F(CliTest, ExitThreeOnPartialSuccessWithManifestAndSurvivors) {
    std::string out;
    EXPECT_EQ(run_code("generate mixed.xmi --out gen_part "
                       "--inject-fault fatal:fsm.flatten --manifest part.json",
                       &out),
              3);
    EXPECT_NE(out.find("QUARANTINED"), std::string::npos);
    // The quarantined fsm unit shipped nothing; survivors are present and
    // byte-identical to a fault-free run.
    ASSERT_EQ(run_code("generate mixed.xmi --out gen_full"), 0);
    EXPECT_FALSE(fs::exists(dir / "gen_part" / "Elevator_fsm.c"));
    for (const char* survivor : {"mixed.mdl", "mixed_threads.cpp"}) {
        ASSERT_TRUE(fs::exists(dir / "gen_part" / survivor)) << survivor;
        EXPECT_EQ(slurp(dir / "gen_part" / survivor),
                  slurp(dir / "gen_full" / survivor))
            << survivor;
    }
    std::string manifest = slurp(dir / "part.json");
    EXPECT_NE(manifest.find("uhcg-flow-manifest-v1"), std::string::npos);
    EXPECT_NE(manifest.find("\"status\": \"partial\""), std::string::npos);
    EXPECT_NE(manifest.find("\"fsm-c\""), std::string::npos);
}

TEST_F(CliTest, ResumeReplaysCheckpointsToByteIdenticalOutputs) {
    // First run faults one unit, checkpointing the rest; the resumed run
    // heals and must match a fresh fault-free run byte for byte.
    EXPECT_EQ(run_code("generate mixed.xmi --out gen_r "
                       "--inject-fault throw:codegen.threads"),
              3);
    std::string out;
    EXPECT_EQ(run_code("generate mixed.xmi --out gen_r --resume", &out), 0);
    EXPECT_NE(out.find("[resumed]"), std::string::npos);
    ASSERT_EQ(run_code("generate mixed.xmi --out gen_fresh"), 0);
    for (const char* name :
         {"mixed.mdl", "mixed_threads.cpp", "Elevator_fsm.c", "Elevator_fsm.h"}) {
        ASSERT_TRUE(fs::exists(dir / "gen_r" / name)) << name;
        EXPECT_EQ(slurp(dir / "gen_r" / name), slurp(dir / "gen_fresh" / name))
            << name;
    }
}

TEST_F(CliTest, RetryHealsTransientFaultWithExitZero) {
    std::string out;
    EXPECT_EQ(run_code("generate mixed.xmi --out gen_heal --max-retries 3 "
                       "--inject-fault transientx2:fsm.flatten --trace-json "
                       "heal-trace.json",
                       &out),
              0);
    std::string trace = slurp(dir / "heal-trace.json");
    EXPECT_NE(trace.find("\"attempts\": 3"), std::string::npos);
}

}  // namespace
