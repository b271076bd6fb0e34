// Fault-injection harness: pushes deterministic corrupted XMI through the
// full recovering pipeline and asserts the robustness contract — every
// mutant terminates with diagnostics; no exception ever escapes and no
// execution hangs. This is the in-tree twin of `uhcg fuzz-xmi`.
#include <gtest/gtest.h>

#include "cases/cases.hpp"
#include "core/pipeline.hpp"
#include "diag/diag.hpp"
#include "diag/mutate.hpp"
#include "kpn/execute.hpp"
#include "kpn/from_uml.hpp"
#include "simulink/mdl.hpp"
#include "uml/xmi.hpp"

using namespace uhcg;

namespace {

/// Runs one mutant end-to-end: parse → recovering reader → wellformedness
/// → mapping → codegen. Returns false if an exception escaped.
bool run_mutant(const std::string& mutant, diag::DiagnosticEngine& engine) {
    try {
        uml::Model model = uml::from_xmi_string(mutant, engine, "<mutant>");
        if (!engine.has_errors())
            if (auto caam = core::map_to_caam(model, {}, engine))
                (void)simulink::write_mdl(*caam);
        return true;
    } catch (const std::exception&) {
        return false;
    }
}

void sweep(const std::string& base, std::size_t count, std::uint64_t seed) {
    auto plan = diag::plan_mutations(count, seed);
    std::size_t diagnosed = 0;
    for (diag::Mutation& m : plan) {
        std::string mutant = diag::apply_mutation(base, m);
        diag::DiagnosticEngine engine;
        EXPECT_TRUE(run_mutant(mutant, engine))
            << "exception escaped for " << diag::to_string(m.kind) << " seed "
            << m.seed << ": " << m.description;
        if (engine.has_errors()) ++diagnosed;
    }
    // The sweep must actually exercise the error paths, not no-op.
    EXPECT_GT(diagnosed, 0u);
}

}  // namespace

TEST(FaultInjection, PlanIsDeterministic) {
    auto a = diag::plan_mutations(20, 42);
    auto b = diag::plan_mutations(20, 42);
    ASSERT_EQ(a.size(), 20u);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].kind, b[i].kind);
        EXPECT_EQ(a[i].seed, b[i].seed);
    }
    // All mutation kinds appear in a big enough plan.
    bool seen[7] = {};
    for (const diag::Mutation& m : a) seen[static_cast<int>(m.kind)] = true;
    for (bool s : seen) EXPECT_TRUE(s);
}

TEST(FaultInjection, MutationsAreReproducible) {
    std::string base = uml::to_xmi_string(cases::crane_model());
    auto plan = diag::plan_mutations(14, 7);
    for (diag::Mutation& m : plan) {
        diag::Mutation again = m;
        EXPECT_EQ(diag::apply_mutation(base, m), diag::apply_mutation(base, again));
    }
}

TEST(FaultInjection, CraneCorpusNeverEscapes) {
    sweep(uml::to_xmi_string(cases::crane_model()), 70, 1);
}

TEST(FaultInjection, SyntheticCorpusNeverEscapes) {
    sweep(uml::to_xmi_string(cases::synthetic_model()), 70, 2);
}

TEST(FaultInjection, DidacticCorpusNeverEscapes) {
    sweep(uml::to_xmi_string(cases::didactic_model()), 35, 3);
}

// Injected cycles must terminate in a *diagnostic* (or a clean watchdogged
// run), never a hang: the KPN retarget executes every structurally intact
// mutant under a firing budget.
TEST(FaultInjection, MutantsExecuteUnderWatchdog) {
    std::string base = uml::to_xmi_string(cases::crane_model());
    auto plan = diag::plan_mutations(21, 11);
    for (diag::Mutation& m : plan) {
        std::string mutant = diag::apply_mutation(base, m);
        diag::DiagnosticEngine engine;
        try {
            uml::Model model = uml::from_xmi_string(mutant, engine, "<mutant>");
            if (engine.has_errors()) continue;
            kpn::KpnMappingOutput out = kpn::map_to_kpn(model);
            kpn::KernelRegistry reg;
            for (const auto& p : out.network.processes())
                reg.register_kernel(p->name(), [](auto, auto outs, auto&) {
                    for (double& v : outs) v = 1.0;
                });
            kpn::Executor exec(out.network, reg);
            kpn::WatchdogBudget budget;
            budget.max_firings = 10000;
            kpn::KpnResult r = exec.run(100, engine, budget);
            // Terminated: either ran to completion, stalled with a
            // diagnostic, or the watchdog cut it — all acceptable; a hang
            // would fail the test by timeout.
            if (r.deadlocked) {
                EXPECT_GE(engine.count_code(diag::codes::kKpnReadBlocked), 1u);
            }
        } catch (const std::exception&) {
            // Mapper/executor rejecting a mangled model is termination too.
        }
    }
}
