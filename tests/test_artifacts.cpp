// Executable-artifact tests: the generated programs are not just text —
// they compile with the system toolchain and behave like the native
// execution engine. Skipped gracefully when no compiler is available.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "cases/cases.hpp"
#include "codegen/caam_to_c.hpp"
#include "codegen/uml_to_cpp.hpp"
#include "core/pipeline.hpp"
#include "flow/generate.hpp"
#include "fsm/codegen.hpp"
#include "fsm/from_uml.hpp"
#include "fsm/interpret.hpp"
#include "sim/engine.hpp"

namespace {

namespace fs = std::filesystem;
using namespace uhcg;

bool have_tool(const std::string& tool) {
    return std::system(("command -v " + tool + " > /dev/null 2>&1").c_str()) == 0;
}

/// Runs a shell command in `dir`; returns exit status.
int run_in(const fs::path& dir, const std::string& command) {
    std::string full = "cd '" + dir.string() + "' && " + command;
    return std::system(full.c_str());
}

fs::path fresh_dir(const std::string& name) {
    fs::path dir = fs::path(testing::TempDir()) / name;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

void write_files(const fs::path& dir,
                 const std::map<std::string, std::string>& files) {
    for (const auto& [name, contents] : files) std::ofstream(dir / name) << contents;
}

std::string slurp(const fs::path& path) {
    std::ifstream in(path);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/// Writes the caam-c files of a `flow::generate` run of `model` into a
/// fresh directory, builds them as written and runs the program.
void expect_generated_c_builds_and_runs(const uml::Model& model,
                                        const std::string& dir_name) {
    fs::path dir = fresh_dir(dir_name);
    diag::DiagnosticEngine engine;
    flow::GenerateResult result =
        flow::generate(model, flow::GenerateOptions{}, engine);
    std::size_t written = 0;
    for (const flow::StrategyResult& sr : result.results) {
        if (sr.strategy != "caam-c") continue;
        for (const flow::GeneratedFile& f : sr.files) {
            std::ofstream(dir / f.name) << f.contents;
            ++written;
        }
    }
    ASSERT_GT(written, 0u) << "no caam-c files generated";
    ASSERT_EQ(run_in(dir, "cc -std=c99 -Wall -Werror -o app *_main.c "
                          "*_sfunctions.c *_cpu_*.c > cc.log 2>&1"),
              0)
        << slurp(dir / "cc.log");
    EXPECT_EQ(run_in(dir, "timeout 20 ./app > /dev/null"), 0);
}

TEST(Artifacts, CraneCProgramCompilesRunsAndTracksTheEngine) {
    if (!have_tool("cc")) GTEST_SKIP() << "no C compiler on PATH";
    fs::path dir = fresh_dir("uhcg_crane_c");

    simulink::Model caam = core::map_to_caam(cases::crane_model());
    // 200 iterations at the crane's 50 ms step (the physics' dt).
    caam.fixed_step = 0.05;
    caam.stop_time = 10.0;
    codegen::GeneratedProgram program = codegen::generate_c_program(caam);
    write_files(dir, program.files);

    // Redirect env writes into a file so we can compare trajectories.
    ASSERT_EQ(run_in(dir, "cc -std=c99 -Wall -Werror -o crane main.c "
                          "sfunctions.c cpu_*.c > cc.log 2>&1"),
              0)
        << slurp(dir / "cc.log");
    ASSERT_EQ(run_in(dir, "./crane > out.txt"), 0);

    // Parse the pos_f stream printed by the default env_write.
    std::ifstream out(dir / "out.txt");
    std::string var;
    char eq;
    double value = 0.0, last = 0.0;
    std::size_t samples = 0;
    while (out >> var >> eq >> value) {
        if (var == "pos_f") {
            last = value;
            ++samples;
        }
    }
    // main.c loops stop_time / fixed_step = 200 iterations by default.
    EXPECT_EQ(samples, 200u);

    // Native engine reference at the same step count.
    sim::SFunctionRegistry registry;
    cases::register_crane_sfunctions(registry);
    sim::Simulator simulator(caam, registry);
    double reference = simulator.run(200).outputs.at("pos_f").back();
    // Same plant/controller maths, same single-rate schedule: the C program
    // must track the engine closely (small divergence allowed: the boundary
    // delay latches once per global loop vs per-step in the engine).
    EXPECT_NEAR(last, reference, 0.05);
    EXPECT_NEAR(last, 1.0, 0.1);  // and both approach the setpoint

    // The same program as `uhcg generate` writes it, under prefixed names.
    expect_generated_c_builds_and_runs(cases::crane_model(), "uhcg_crane_gen");
}

TEST(Artifacts, SyntheticCProgramCompilesCleanly) {
    if (!have_tool("cc")) GTEST_SKIP() << "no C compiler on PATH";
    fs::path dir = fresh_dir("uhcg_syn_c");
    core::MapperOptions options;
    options.auto_allocate = true;
    simulink::Model caam = core::map_to_caam(cases::synthetic_model(), options);
    write_files(dir, codegen::generate_c_program(caam).files);
    ASSERT_EQ(run_in(dir, "cc -std=c99 -Wall -Wextra -Werror -o syn main.c "
                          "sfunctions.c cpu_*.c > cc.log 2>&1"),
              0)
        << slurp(dir / "cc.log");
    EXPECT_EQ(run_in(dir, "./syn > /dev/null"), 0);

    expect_generated_c_builds_and_runs(cases::synthetic_model(), "uhcg_syn_gen");
}

TEST(Artifacts, ThreadProgramCompilesAndTerminates) {
    if (!have_tool("c++")) GTEST_SKIP() << "no C++ compiler on PATH";
    fs::path dir = fresh_dir("uhcg_threads");
    codegen::CppProgram program =
        codegen::generate_cpp_threads(cases::crane_model(), 25);
    std::ofstream(dir / "threads.cpp") << program.source;
    ASSERT_EQ(run_in(dir, "c++ -std=c++17 -Wall -Werror -pthread -o threads "
                          "threads.cpp > cc.log 2>&1"),
              0)
        << slurp(dir / "cc.log");
    // Bounded iterations + poll semantics: must terminate promptly.
    EXPECT_EQ(run_in(dir, "timeout 20 ./threads > /dev/null"), 0);
}

TEST(Artifacts, FsmCProgramMatchesInterpreter) {
    if (!have_tool("cc")) GTEST_SKIP() << "no C compiler on PATH";
    fs::path dir = fresh_dir("uhcg_fsm");

    fsm::Machine machine = fsm::from_uml(cases::elevator_state_machine());
    fsm::CCodeOptions options;
    options.context_include = "elevator_env.h";  // the "bridge" header
    fsm::GeneratedC code = fsm::generate_c(machine, options);
    std::ofstream(dir / code.header_name) << code.header;
    std::ofstream(dir / code.source_name) << code.source;

    // The bridge header declares everything the guards/actions reference.
    std::ofstream(dir / "elevator_env.h") << R"(#ifndef ELEVATOR_ENV_H
#define ELEVATOR_ENV_H
extern int no_pending_calls;
extern int pending_call_above;
void motor_off(void); void motor_on(void);
void dir_up(void); void dir_down(void);
void open_door(void); void close_door(void);
void announce_floor(void);
#endif
)";

    // Harness: replay the ride and print the visited states.
    std::ofstream(dir / "main.c") << R"(#include <stdio.h>
#include "Elevator_fsm.h"
#include "elevator_env.h"
int no_pending_calls = 1;
int pending_call_above = 0;
void motor_off(void) {} void motor_on(void) {}
void dir_up(void) {} void dir_down(void) {}
void open_door(void) {} void close_door(void) {}
void announce_floor(void) {}
int main(void) {
    Elevator_fsm_t fsm;
    Elevator_init(&fsm, 0);
    printf("%s\n", Elevator_state_name(fsm.state));
    Elevator_step(&fsm, Elevator_EV_call_up);
    printf("%s\n", Elevator_state_name(fsm.state));
    Elevator_step(&fsm, Elevator_EV_arrived);
    printf("%s\n", Elevator_state_name(fsm.state));
    Elevator_step(&fsm, Elevator_EV_door_timeout);
    printf("%s\n", Elevator_state_name(fsm.state));
    return 0;
}
)";
    ASSERT_EQ(run_in(dir, "cc -std=c99 -o fsm main.c Elevator_fsm.c "
                          "> cc.log 2>&1"),
              0)
        << slurp(dir / "cc.log");
    ASSERT_EQ(run_in(dir, "./fsm > out.txt"), 0);

    // Interpreter reference for the same scenario.
    fsm::Interpreter interp(machine);
    std::vector<std::string> expected{interp.current_name()};
    bool no_pending = true;
    interp.bind_guard("no_pending_calls", [&] { return no_pending; });
    interp.bind_guard("pending_call_above", [&] { return !no_pending; });
    for (const char* e : {"call_up", "arrived", "door_timeout"}) {
        interp.step(e);
        expected.push_back(interp.current_name());
    }

    std::ifstream out(dir / "out.txt");
    std::string line;
    std::vector<std::string> actual;
    while (std::getline(out, line))
        if (!line.empty()) actual.push_back(line);
    EXPECT_EQ(actual, expected);
}

}  // namespace
