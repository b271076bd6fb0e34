// Tests for the code generators: CAAM → per-CPU C program and UML →
// multithreaded C++ (the two software branches of Fig. 1).
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "cases/cases.hpp"
#include "codegen/caam_to_c.hpp"
#include "codegen/uml_to_cpp.hpp"
#include "core/pipeline.hpp"
#include "flow/generate.hpp"
#include "uml/builder.hpp"
#include "uml/xmi.hpp"

namespace {

using namespace uhcg;
using namespace uhcg::codegen;

class CraneProgram : public ::testing::Test {
protected:
    simulink::Model caam = core::map_to_caam(cases::crane_model());
    GeneratedProgram program = generate_c_program(caam);
};

TEST_F(CraneProgram, EmitsExpectedFiles) {
    EXPECT_EQ(program.files.count("uhcg_rt.h"), 1u);
    EXPECT_EQ(program.files.count("sfunctions.h"), 1u);
    EXPECT_EQ(program.files.count("sfunctions.c"), 1u);
    EXPECT_EQ(program.files.count("cpu_CPU1.c"), 1u);
    EXPECT_EQ(program.files.count("main.c"), 1u);
    EXPECT_EQ(program.sfunction_count, 3u);  // plant, filter, control
    EXPECT_EQ(program.channel_count, 4u);
}

TEST_F(CraneProgram, SFunctionBodiesComeFromUml) {
    const std::string& src = program.files.at("sfunctions.c");
    EXPECT_NE(src.find("void sfun_plant("), std::string::npos);
    EXPECT_NE(src.find("linearized gantry crane"), std::string::npos);
    EXPECT_NE(src.find("first-order low-pass"), std::string::npos);
}

TEST_F(CraneProgram, ThreadsBecomeStepFunctions) {
    const std::string& cpu = program.files.at("cpu_CPU1.c");
    EXPECT_NE(cpu.find("void CPU1_T1_step(void)"), std::string::npos);
    EXPECT_NE(cpu.find("void CPU1_T2_step(void)"), std::string::npos);
    EXPECT_NE(cpu.find("void CPU1_T3_step(void)"), std::string::npos);
    EXPECT_NE(cpu.find("void CPU1_step(void)"), std::string::npos);
}

TEST_F(CraneProgram, ChannelsBecomeFifoCalls) {
    const std::string& cpu = program.files.at("cpu_CPU1.c");
    EXPECT_NE(cpu.find("uhcg_fifo_write(&uhcg_channels["), std::string::npos);
    EXPECT_NE(cpu.find("uhcg_fifo_read(&uhcg_channels["), std::string::npos);
}

TEST_F(CraneProgram, InsertedDelayBecomesBoundaryState) {
    // The §4.2.2 barrier sits on a channel link (CPU level): it becomes a
    // dstate slot published to the consumer and latched after each sweep.
    const std::string& cpu = program.files.at("cpu_CPU1.c");
    EXPECT_NE(cpu.find("uhcg_dstate[0]"), std::string::npos);
    const std::string& main_c = program.files.at("main.c");
    EXPECT_NE(main_c.find("uhcg_dstate[0] = "), std::string::npos);
    EXPECT_NE(main_c.find("double uhcg_dstate[1]"), std::string::npos);
}

TEST_F(CraneProgram, IoWritesBecomeEnvCalls) {
    const std::string& cpu = program.files.at("cpu_CPU1.c");
    EXPECT_NE(cpu.find("uhcg_env_write(\"pos_f\""), std::string::npos);
}

TEST_F(CraneProgram, MainStepsEveryCpu) {
    const std::string& main_c = program.files.at("main.c");
    EXPECT_NE(main_c.find("CPU1_step();"), std::string::npos);
    EXPECT_NE(main_c.find("uhcg_fifo_t uhcg_channels[4]"), std::string::npos);
}

TEST(CaamToC, RefusesCyclicThreadLayers) {
    core::MapperOptions options;
    options.insert_delays = false;  // leave the crane loop unbroken
    simulink::Model cyclic = core::map_to_caam(cases::crane_model(), options);
    // The cycle here spans threads (CPU level), which the generator's
    // FIFO semantics tolerate; build a *thread-internal* cycle instead.
    simulink::Model m("bad");
    auto& cpu = m.root().add_subsystem("CPU1", simulink::CaamRole::CpuSubsystem);
    auto& t = cpu.system()->add_subsystem("T", simulink::CaamRole::ThreadSubsystem);
    auto& g1 = t.system()->add_block("g1", simulink::BlockType::Gain);
    auto& g2 = t.system()->add_block("g2", simulink::BlockType::Gain);
    t.system()->add_line({&g1, 1}, {&g2, 1});
    t.system()->add_line({&g2, 1}, {&g1, 1});
    EXPECT_THROW(generate_c_program(m), std::runtime_error);
    (void)cyclic;
}

TEST(CaamToC, SyntheticProgramHasOneFilePerCpu) {
    core::MapperOptions options;
    options.auto_allocate = true;
    simulink::Model caam = core::map_to_caam(cases::synthetic_model(), options);
    GeneratedProgram program = generate_c_program(caam);
    int cpu_files = 0;
    for (const auto& [name, _] : program.files)
        if (name.rfind("cpu_", 0) == 0) ++cpu_files;
    EXPECT_EQ(cpu_files, 4);
    EXPECT_EQ(program.channel_count, 14u);
}

// --- UML → C++ threads ------------------------------------------------------------

class CraneThreads : public ::testing::Test {
protected:
    CppProgram program = generate_cpp_threads(cases::crane_model(), 10);
};

TEST_F(CraneThreads, OneWorkerPerThread) {
    EXPECT_EQ(program.thread_count, 3u);
    EXPECT_NE(program.source.find("void run_T1()"), std::string::npos);
    EXPECT_NE(program.source.find("void run_T2()"), std::string::npos);
    EXPECT_NE(program.source.find("void run_T3()"), std::string::npos);
    EXPECT_NE(program.source.find("workers.emplace_back(run_T1);"),
              std::string::npos);
}

TEST_F(CraneThreads, OneQueuePerChannel) {
    EXPECT_EQ(program.queue_count, 4u);
    EXPECT_NE(program.source.find("rt::Queue q_T1_T2_xc;"), std::string::npos);
    EXPECT_NE(program.source.find("rt::Queue q_T3_T1_F;"), std::string::npos);
}

TEST_F(CraneThreads, SendReceivePairUp) {
    EXPECT_NE(program.source.find("q_T1_T2_xc.push(xc);"), std::string::npos);
    // The consumer side polls the channel in its receive phase, even
    // though the crane models only producer-side Set messages.
    EXPECT_NE(program.source.find("double xc = q_T1_T2_xc.poll();"),
              std::string::npos);
}

TEST_F(CraneThreads, IoBecomesEnvHooks) {
    EXPECT_NE(program.source.find("rt::env_write(\"pos_f\", pos_f);"),
              std::string::npos);
}

TEST_F(CraneThreads, BoundedIterations) {
    EXPECT_NE(program.source.find("k < 10"), std::string::npos);
}

TEST(UmlToCpp, PlatformOperationsGetRealBodies) {
    CppProgram program = generate_cpp_threads(cases::didactic_model(), 5);
    EXPECT_NE(program.source.find("return a0 * a1;"), std::string::npos);
    EXPECT_EQ(program.thread_count, 3u);
}

TEST(UmlToCpp, GetMessagesPopMatchingQueue) {
    CppProgram program = generate_cpp_threads(cases::didactic_model(), 5);
    // T1 Gets v from T3 → its receive phase polls q_T3_T1_v.
    EXPECT_NE(program.source.find("double v = q_T3_T1_v.poll();"),
              std::string::npos);
}

TEST(UmlToCpp, NumericLiteralArgumentsAreEmittedAsConstants) {
    uml::ModelBuilder b("literals");
    b.platform();
    b.thread("T");
    auto sd = b.seq("s");
    sd.message("T", "Platform", "work").arg("1.0").arg("-2").result("r");
    diag::DiagnosticEngine engine;
    CppProgram program = generate_cpp_threads(b.take(), 1, engine);
    EXPECT_NE(program.source.find("double r = work(1.0, -2);"), std::string::npos)
        << program.source;
    EXPECT_EQ(program.source.find("rt::env_read(\"1.0\")"), std::string::npos);
    EXPECT_EQ(engine.count_code(diag::codes::kCodegenThreads), 0u)
        << engine.render_text();
}

// --- identifiers of names that sanitize alike ---------------------------------------

/// Occurrences of `needle` in `text`.
std::size_t count_of(const std::string& text, const std::string& needle) {
    std::size_t n = 0;
    for (std::size_t at = text.find(needle); at != std::string::npos;
         at = text.find(needle, at + 1))
        ++n;
    return n;
}

// Threads A, C.D and C_D, with A sending x to both: "C.D" and "C_D"
// sanitize to one C name. The one-CPU variant deploys both on CPU2.
class CollidingThreadNames : public ::testing::TestWithParam<const char*> {
protected:
    uml::Model model = uml::load_xmi(std::string(UHCG_TEST_DATA_DIR) +
                                     "/collision/" + GetParam() + ".xmi");
};

TEST_P(CollidingThreadNames, EveryThreadAndLinkGetsItsOwnIdentifier) {
    diag::DiagnosticEngine engine;
    CppProgram program = generate_cpp_threads(model, 10, engine);
    EXPECT_EQ(engine.warning_count(), 0u) << engine.render_text();
    EXPECT_EQ(program.thread_count, 3u);
    EXPECT_EQ(program.queue_count, 2u);
    const std::string& src = program.source;
    EXPECT_EQ(count_of(src, "rt::Queue q_A_C_D_x;"), 1u);
    EXPECT_EQ(count_of(src, "rt::Queue q_A_C_D_x_1;"), 1u);
    EXPECT_EQ(count_of(src, "q_A_C_D_x.push(x);"), 1u);
    EXPECT_EQ(count_of(src, "q_A_C_D_x_1.push(x);"), 1u);
    EXPECT_EQ(count_of(src, "double x = q_A_C_D_x.poll();"), 1u);
    EXPECT_EQ(count_of(src, "double x = q_A_C_D_x_1.poll();"), 1u);
    EXPECT_EQ(count_of(src, "void run_C_D() {"), 1u);
    EXPECT_EQ(count_of(src, "void run_C_D_1() {"), 1u);
    EXPECT_EQ(count_of(src, "workers.emplace_back(run_C_D_1);"), 1u);
    // Only A's sensor read touches the environment.
    EXPECT_EQ(count_of(src, "rt::env_read(\"x\")"), 1u);

    if (std::system("command -v g++ > /dev/null 2>&1") != 0)
        GTEST_SKIP() << "no C++ compiler on PATH";
    const std::filesystem::path file =
        std::filesystem::path(testing::TempDir()) / program.file_name;
    std::ofstream(file) << src;
    EXPECT_EQ(std::system(("g++ -std=c++17 -fsyntax-only '" + file.string() + "'")
                              .c_str()),
              0);
}

TEST_P(CollidingThreadNames, GenerateShipsTheSameProgramWithoutWarnings) {
    diag::DiagnosticEngine engine;
    flow::GenerateResult result = flow::generate(model, {}, engine);
    ASSERT_EQ(result.status, flow::GenerateStatus::Ok) << engine.render_text();
    EXPECT_EQ(engine.count_code(diag::codes::kCodegenThreads), 0u)
        << engine.render_text();
    const std::string* shipped = nullptr;
    for (const flow::StrategyResult& r : result.results)
        if (r.strategy == "cpp-threads") shipped = &r.files.at(0).contents;
    ASSERT_NE(shipped, nullptr);
    EXPECT_EQ(*shipped, generate_cpp_threads(model, 100).source);
}

// Every global step function of the caam-c program (one per CPU, one per
// thread) is defined once, and the files pass a C99 syntax check.
TEST_P(CollidingThreadNames, CaamCStepFunctionsGetTheirOwnNames) {
    core::MapperOptions options;
    options.auto_allocate = model.deployment_or_null() == nullptr;
    GeneratedProgram program = generate_c_program(core::map_to_caam(model, options));
    std::map<std::string, int> definitions;
    for (const auto& [name, text] : program.files) {
        if (!name.starts_with("cpu_")) continue;
        std::istringstream lines(text);
        for (std::string line; std::getline(lines, line);)
            if (line.starts_with("void ") && line.ends_with("(void)"))
                ++definitions[line.substr(5, line.size() - 11)];
    }
    for (const auto& [fn, count] : definitions) EXPECT_EQ(count, 1) << fn;
    if (std::string(GetParam()) == "threads_collision_one_cpu") {
        EXPECT_EQ(definitions.count("CPU2_C_D_step"), 1u);
        EXPECT_EQ(definitions.count("CPU2_C_D_step_1"), 1u);
        EXPECT_NE(program.files.at("cpu_CPU2.c").find("    CPU2_C_D_step_1();"),
                  std::string::npos);
    }

    if (std::system("command -v gcc > /dev/null 2>&1") != 0)
        GTEST_SKIP() << "no C compiler on PATH";
    const std::filesystem::path dir =
        std::filesystem::path(testing::TempDir()) /
        (std::string("caamc_") + GetParam());
    std::filesystem::create_directories(dir);
    for (const auto& [name, text] : program.files) std::ofstream(dir / name) << text;
    for (const auto& [name, text] : program.files)
        if (name.ends_with(".c"))
            EXPECT_EQ(std::system(("gcc -std=c99 -fsyntax-only -I'" + dir.string() +
                                   "' '" + (dir / name).string() + "'")
                                      .c_str()),
                      0)
                << name;
}

INSTANTIATE_TEST_SUITE_P(Models, CollidingThreadNames,
                         ::testing::Values("threads_collision",
                                           "threads_collision_one_cpu"));

}  // namespace
