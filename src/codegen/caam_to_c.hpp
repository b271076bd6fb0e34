// caam_to_c.hpp — Simulink-branch software generation: CAAM → per-CPU C
// code, the multithread code generation step of the Simulink-based MPSoC
// flow the paper targets (one compilation unit per CPU-SS, threads as step
// functions, SWFIFO/GFIFO channel API).
//
// The generated program is self-contained C99: a runtime header with the
// FIFO primitives, one <cpu>.c per processor, an S-function header whose
// implementations come from the UML operation bodies (§4.1: behaviour
// "described in a C code that is compiled and linked"), and a main that
// round-robins the CPU step functions — the software equivalent of the
// fixed-step schedule uhcg::sim executes natively.
#pragma once

#include <map>
#include <string>

#include "simulink/model.hpp"

namespace uhcg::codegen {

struct GeneratedProgram {
    /// File name → contents ("uhcg_rt.h", "sfunctions.h", "sfunctions.c",
    /// "cpu_<name>.c", "main.c"), each name behind the program's prefix.
    std::map<std::string, std::string> files;
    std::size_t channel_count = 0;
    std::size_t sfunction_count = 0;
};

/// Generates the program. Every file name, and every include line that
/// names a generated header, starts with `prefix`, so the files build as
/// written under any prefix. Throws std::runtime_error on models that are
/// not valid CAAMs (run simulink::validate_caam first for diagnostics) or
/// that still contain combinational cycles across threads.
GeneratedProgram generate_c_program(const simulink::Model& model,
                                    const std::string& prefix = "");

}  // namespace uhcg::codegen
