// uml_to_cpp.hpp — the fallback branch of Fig. 1: "in case a Simulink
// compiler is not available, the same UML model can be used to generate
// multithreaded code for other languages". The paper names Java; we emit
// modern C++ (std::thread + blocking queues), which exercises the same
// mapping decisions: one worker per <<SASchedRes>> object, one queue per
// inter-thread data channel, environment hooks for <<IO>> devices, plain
// function calls for passive objects.
#pragma once

#include <string>

#include "core/comm.hpp"
#include "diag/diag.hpp"
#include "uml/model.hpp"

namespace uhcg::codegen {

struct CppProgram {
    /// Single translation unit: self-contained, compiles with -std=c++17.
    std::string source;
    std::string file_name;  ///< suggested name, "<model>_threads.cpp"
    std::size_t thread_count = 0;
    std::size_t queue_count = 0;
};

/// Generates the program; `iterations` bounds each thread's main loop so
/// the produced binary terminates (embedded loops are usually endless).
CppProgram generate_cpp_threads(const uml::Model& model,
                                std::size_t iterations = 100);

/// Same generator, reporting lossy decisions (stubbed operation bodies,
/// environment fallbacks for undefined variables, unmatched Set messages)
/// through `engine` under diag::codes::kCodegenThreads. Output is
/// byte-identical to the overload above.
CppProgram generate_cpp_threads(const uml::Model& model, std::size_t iterations,
                                diag::DiagnosticEngine& engine);

/// The one generator body, reading an existing analysis of `model`: one
/// queue per CommModel::links() entry. Every thread and queue gets a C
/// identifier of its own (the System::unique_name rule), so names that
/// sanitize alike never merge. Adds the messages, links and channel
/// probes it touches to the `codegen.threads.visits` counter.
CppProgram generate_cpp_threads(const uml::Model& model, const core::CommModel& comm,
                                std::size_t iterations,
                                diag::DiagnosticEngine& engine);

}  // namespace uhcg::codegen
