#include "flow/partition.hpp"

#include <map>
#include <set>

namespace uhcg::flow {

std::string_view to_string(SubsystemKind kind) {
    return kind == SubsystemKind::Dataflow ? "dataflow" : "control-flow";
}

namespace {

/// Counts the feedback back-edges of the inter-thread channel graph with an
/// iterative colored DFS (white/grey/black), deterministic in thread order.
std::size_t count_feedback_cycles(
    const std::vector<uml::ObjectInstance*>& threads,
    const core::CommModel& comm) {
    enum class Color { White, Grey, Black };
    std::map<const uml::ObjectInstance*, Color> color;
    for (const uml::ObjectInstance* t : threads) color[t] = Color::White;

    std::size_t back_edges = 0;
    for (const uml::ObjectInstance* root : threads) {
        if (color[root] != Color::White) continue;
        // Stack frame: node, its outgoing channels (fetched once) and the
        // next one to visit.
        struct Frame {
            const uml::ObjectInstance* node;
            std::vector<const core::Channel*> outgoing;
            std::size_t next = 0;
        };
        std::vector<Frame> stack;
        stack.push_back({root, comm.outgoing(*root)});
        color[root] = Color::Grey;
        while (!stack.empty()) {
            Frame& frame = stack.back();
            if (frame.next >= frame.outgoing.size()) {
                color[frame.node] = Color::Black;
                stack.pop_back();
                continue;
            }
            const uml::ObjectInstance* succ =
                frame.outgoing[frame.next++]->consumer;
            auto it = color.find(succ);
            if (it == color.end()) continue;  // not a thread of this model
            if (it->second == Color::Grey)
                ++back_edges;
            else if (it->second == Color::White) {
                it->second = Color::Grey;
                stack.push_back({succ, comm.outgoing(*succ)});
            }
        }
    }
    return back_edges;
}

}  // namespace

PartitionReport partition(const uml::Model& model) {
    return partition(model, core::analyze_communication(model));
}

PartitionReport partition(const uml::Model& model, const core::CommModel& comm) {
    PartitionReport report;

    std::vector<uml::ObjectInstance*> threads = model.threads();

    // Index the state machines by name so thread/classifier matches bind.
    std::set<std::string> machine_names;
    for (const uml::StateMachine* sm : model.state_machines())
        machine_names.insert(sm->name());

    // Control-flow subsystems: one per state machine.
    for (const uml::StateMachine* sm : model.state_machines()) {
        Subsystem unit;
        unit.name = "control:" + sm->name();
        unit.kind = SubsystemKind::ControlFlow;
        unit.machine = sm;
        unit.rationale.push_back("state machine '" + sm->name() +
                                 "' models reactive control flow (" +
                                 std::to_string(sm->all_states().size()) +
                                 " states, " +
                                 std::to_string(sm->transitions().size()) +
                                 " transitions)");
        for (const uml::ObjectInstance* t : threads) {
            bool name_match =
                t->name() == sm->name() ||
                (t->classifier() && t->classifier()->name() == sm->name());
            if (name_match)
                unit.rationale.push_back("bound to thread '" + t->name() +
                                         "' by name");
        }
        report.subsystems.push_back(std::move(unit));
    }

    // The thread subsystem (at most one; threads share channels, so they
    // partition together and the allocation decides the rest).
    if (!threads.empty()) {
        Subsystem unit;
        unit.name = "threads";
        unit.threads.assign(threads.begin(), threads.end());
        report.feedback_cycles = count_feedback_cycles(threads, comm);

        std::size_t data_channels = comm.channels().size();
        if (report.feedback_cycles > 0) {
            unit.kind = SubsystemKind::ControlFlow;
            unit.rationale.push_back(
                "closed feedback loop detected (" +
                std::to_string(report.feedback_cycles) +
                " back edge(s) in the inter-thread channel graph) — a "
                "control loop in the §5.1 crane sense; the CAAM branch "
                "handles it via §4.2.2 temporal barriers");
        } else {
            unit.kind = SubsystemKind::Dataflow;
            unit.rationale.push_back(
                "feed-forward thread topology with " +
                std::to_string(data_channels) +
                " data channel(s) — a dataflow pipeline in the Fig. 3 sense");
        }
        if (data_channels == 0 && threads.size() > 1)
            unit.rationale.push_back(
                "threads exchange no data — only the multithreaded fallback "
                "branch applies");
        report.subsystems.push_back(std::move(unit));
    } else {
        report.notes.push_back("model has no <<SASchedRes>> threads");
    }

    // Model-level character.
    bool any_control = false;
    for (const Subsystem& s : report.subsystems)
        if (s.kind == SubsystemKind::ControlFlow) any_control = true;
    report.dominant =
        any_control ? SubsystemKind::ControlFlow : SubsystemKind::Dataflow;
    return report;
}

}  // namespace uhcg::flow
