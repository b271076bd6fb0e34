#include "replay.hpp"

#include <optional>

#include "caam_checks.hpp"
#include "codegen/caam_to_c.hpp"
#include "codegen/uml_to_cpp.hpp"
#include "core/allocation.hpp"
#include "core/delays.hpp"
#include "core/mapping.hpp"
#include "core/optimize.hpp"
#include "flow/partition.hpp"
#include "fsm/codegen.hpp"
#include "fsm/from_uml.hpp"
#include "kpn/from_uml.hpp"
#include "sim/backend.hpp"
#include "sim/engine.hpp"
#include "simulink/caam.hpp"
#include "simulink/dot.hpp"
#include "simulink/generic.hpp"
#include "simulink/mdl.hpp"
#include "uml/wellformed.hpp"
#include "uml/xmi.hpp"
#include "xml/parser.hpp"

namespace perfbench {

using namespace uhcg;

namespace {

template <typename F>
auto timed_into(Replay& r, const char* name, F&& fn) {
    Clock::time_point start = Clock::now();
    auto value = fn();
    r.ms[name] += ms_since(start);
    return value;
}

/// The CAAM branch: mapping, §4.2 passes, probes and the three CAAM
/// emitters. Returns the bytes emitted.
double replay_caam(const uml::Model& model, const core::CommModel& comm,
                   const core::Allocation& allocation,
                   const std::string& label, Replay& r, Outcome& out) {
    auto timed = [&](const char* name, auto&& fn) {
        return timed_into(r, name, fn);
    };
    core::MappingOutput mapped = timed("core.mapping.ms", [&] {
        return core::run_mapping(model, comm, allocation);
    });
    r.counts["core.mapping.trace_links"] =
        static_cast<double>(mapped.stats.trace_links);
    simulink::Model caam = timed("caam.lift.ms", [&] {
        return simulink::from_generic(mapped.caam);
    });
    r.counts["caam.lift.blocks"] =
        static_cast<double>(simulink::caam_stats(caam).total_blocks);
    core::ChannelReport channels = timed("caam.channels.ms", [&] {
        return core::infer_channels(caam, comm);
    });
    r.channels = channels.intra_channels + channels.inter_channels;
    r.counts["caam.channels.created"] = static_cast<double>(r.channels);
    core::DelayReport delays = timed("caam.delays.ms", [&] {
        return core::insert_temporal_barriers(caam);
    });
    r.counts["caam.delays.inserted"] = static_cast<double>(delays.inserted);
    auto problems =
        timed("caam.validate.ms", [&] { return simulink::validate_caam(caam); });
    out.check(problems.empty(), label + ": replayed CAAM is invalid");
    timed("sim.schedulability.ms", [&] {
        sim::SFunctionRegistry probe;  // as the flow's probe: empty
        try {
            sim::Simulator check(caam, probe);
        } catch (const sim::DeadlockError&) {
            out.fail(label + ": combinational cycle after caam.delays");
        } catch (const std::exception&) {
            // unregistered S-functions: scheduled, not bound
        }
        return 0;
    });
    timed("sim.estimate.ms", [&] {
        try {
            taskgraph::TaskGraph g = core::build_task_graph(model, comm);
            std::vector<int> assignment;
            for (const uml::ObjectInstance* t : model.threads())
                assignment.push_back(
                    static_cast<int>(allocation.processor_of(*t)));
            sim::simulate_backend(
                g, taskgraph::Clustering::from_assignment(std::move(assignment)),
                {}, "", nullptr);
        } catch (const std::exception&) {
            // advisory, as in the flow: a cyclic task graph is not priced
        }
        return 0;
    });
    std::size_t schedule = 0;
    std::string violation = check_caam(caam, model, comm, allocation, &schedule);
    out.check(violation.empty(), label + ": " + violation);
    r.counts["sim.schedulability.blocks"] = static_cast<double>(schedule);

    // Emitters.
    r.mdl = timed("emit.mdl.ms", [&] { return simulink::write_mdl(caam); });
    auto program = timed("emit.c.ms", [&] {
        return codegen::generate_c_program(caam);
    });
    std::string dot = timed("emit.dot.ms", [&] { return simulink::to_dot(caam); });
    double emitted = static_cast<double>(r.mdl.size() + dot.size());
    for (const auto& [name, contents] : program.files)
        emitted += static_cast<double>(contents.size());
    return emitted;
}

}  // namespace

Replay replay(const std::string& xmi, const std::string& label,
              Outcome& out) {
    Replay r;
    auto timed = [&](const char* name, auto&& fn) {
        return timed_into(r, name, fn);
    };

    xml::Document doc = timed("xml.parse.ms", [&] { return xml::parse(xmi); });
    uml::Model model =
        timed("uml.xmi_load.ms", [&] { return uml::read_xmi(doc); });
    r.counts["xml.bytes"] = static_cast<double>(xmi.size());

    // Partition pass: communication analysis, classification, task graph.
    core::CommModel comm = timed("core.comm.ms", [&] {
        return core::analyze_communication(model);
    });
    flow::PartitionReport partitions = timed(
        "flow.partition.ms", [&] { return flow::partition(model, comm); });
    taskgraph::TaskGraph graph = timed("dse.taskgraph.ms", [&] {
        return core::build_task_graph(model, comm);
    });

    // Shared CAAM prep (Fig. 2 steps 2-3 plus probes), then its emitters.
    auto issues = timed("uml.check.ms", [&] { return uml::check(model); });
    out.check(issues.empty() || uml::only_warnings(issues),
              label + ": replayed model is ill-formed");
    comm = timed("core.comm.ms", [&] {
        return core::analyze_communication(model);
    });
    std::optional<core::Allocation> allocation;
    try {
        allocation = timed("core.allocate.ms", [&] {
            return model.deployment_or_null()
                       ? core::allocation_from_deployment(model)
                       : core::auto_allocate(model, comm, 0);
        });
    } catch (const std::exception&) {
        // As in the flow, a model without a valid allocation (automatic
        // allocation of a cyclic task graph) loses only its CAAM branch.
    }
    double emitted = 0;
    if (allocation) emitted = replay_caam(model, comm, *allocation, label, r, out);
    diag::DiagnosticEngine engine;
    codegen::CppProgram threads = timed("emit.threads.ms", [&] {
        return codegen::generate_cpp_threads(model, 100, engine);
    });
    r.counts["emit.bytes"] = emitted + static_cast<double>(threads.source.size());
    timed("kpn.map.ms", [&] { return kpn::map_to_kpn(model); });
    double states = 0;
    timed("fsm.emit.ms", [&] {
        for (const uml::StateMachine* sm : model.state_machines()) {
            fsm::Machine machine = fsm::from_uml(*sm);
            states += static_cast<double>(machine.state_count());
            fsm::generate_c(machine);
        }
        return 0;
    });
    r.counts["fsm.states"] = states;
    return r;
}

}  // namespace perfbench
