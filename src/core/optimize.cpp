#include "core/optimize.hpp"

#include <map>
#include <string_view>
#include <tuple>
#include <unordered_map>

#include "core/mapping.hpp"
#include "simulink/caam.hpp"

namespace uhcg::core {

using simulink::Block;
using simulink::BlockType;
using simulink::CaamRole;
using simulink::PortRef;
using simulink::System;

int add_subsystem_input(Block& sub, const std::string& name, PortRef inner_dst) {
    System& sys = *sub.system();
    int index = sub.input_count() + 1;
    sub.set_ports(index, sub.output_count());
    sub.set_input_name(index, name);
    Block& in = sys.add_block(sys.unique_name(name), BlockType::Inport);
    in.set_parameter("Port", std::to_string(index));
    sys.add_line({&in, 1}, inner_dst, name);
    return index;
}

int add_subsystem_output(Block& sub, const std::string& name, PortRef inner_src) {
    System& sys = *sub.system();
    int index = sub.output_count() + 1;
    sub.set_ports(sub.input_count(), index);
    sub.set_output_name(index, name);
    Block& out = sys.add_block(sys.unique_name(name + "_out"), BlockType::Outport);
    out.set_parameter("Port", std::to_string(index));
    sys.add_line(inner_src, {&out, 1}, name);
    return index;
}

ChannelReport infer_channels(simulink::Model& model, const CommModel& comm) {
    ChannelReport report;
    System& root = model.root();

    // CPU-SS boundary ports created so far: (cpu block, var, direction) →
    // port index, so fan-out across consumers reuses the producer port.
    std::map<std::tuple<Block*, std::string, bool>, int> cpu_ports;

    auto cpu_of = [](Block& thread_ss) { return thread_ss.parent()->owner_block(); };

    auto get_cpu_output = [&](Block& producer_tss, const std::string& var) -> int {
        Block* cpu = cpu_of(producer_tss);
        auto key = std::make_tuple(cpu, var, false);
        if (auto it = cpu_ports.find(key); it != cpu_ports.end()) return it->second;
        int tss_port = producer_tss.output_named(var);
        int index = add_subsystem_output(*cpu, var, {&producer_tss, tss_port});
        cpu_ports[key] = index;
        return index;
    };

    // Thread-SS block per thread name; the first CPU-SS holding one wins.
    std::unordered_map<std::string_view, Block*> thread_ss;
    for (Block* cpu : simulink::cpu_subsystems(model))
        for (Block* tss : simulink::thread_subsystems(*cpu))
            thread_ss.emplace(tss->name(), tss);
    auto find_thread_ss = [&](const std::string& thread) -> Block* {
        auto it = thread_ss.find(thread);
        return it == thread_ss.end() ? nullptr : it->second;
    };

    // --- §4.2.1 channel inference -------------------------------------------
    // Set on one side and Get on the other both describe the same data
    // link; CommModel::links() holds each (producer, consumer, var) once.
    for (const Channel* link : comm.links()) {
        const Channel& c = *link;
        Block* p_tss = find_thread_ss(c.producer->name());
        Block* c_tss = find_thread_ss(c.consumer->name());
        if (!p_tss || !c_tss) {
            report.warnings.push_back("channel " + c.producer->name() + "->" +
                                      c.consumer->name() + " [" + c.variable +
                                      "]: thread subsystem missing");
            continue;
        }
        int src_port = p_tss->output_named(c.variable);
        int dst_port = c_tss->input_named(c.variable);
        if (src_port == 0) {
            report.warnings.push_back("channel variable '" + c.variable +
                                      "' is never produced by thread '" +
                                      c.producer->name() + "'");
            continue;
        }
        if (dst_port == 0) {
            report.warnings.push_back("channel variable '" + c.variable +
                                      "' is never consumed by thread '" +
                                      c.consumer->name() + "'");
            continue;
        }

        // Defensive: a contended consumer port (two producers for one
        // variable — rejected by uml::check E7, but tolerated here when
        // enforcement is off) is reported instead of crashing the wiring.
        if (c_tss->parent()->line_into({c_tss, dst_port})) {
            report.warnings.push_back(
                "channel variable '" + c.variable + "' of thread '" +
                c.consumer->name() + "' already driven; skipping producer '" +
                c.producer->name() + "'");
            continue;
        }

        Block* p_cpu = cpu_of(*p_tss);
        Block* c_cpu = cpu_of(*c_tss);
        if (p_cpu == c_cpu) {
            // Intra-SS channel (SWFIFO) inside the shared CPU-SS.
            System& sys = *p_cpu->system();
            Block& chan = sys.add_block(
                sys.unique_name("chan_" + c.producer->name() + "_" +
                                c.consumer->name() + "_" + c.variable),
                BlockType::CommChannel);
            chan.set_role(CaamRole::IntraCpuChannel);
            chan.set_parameter("Protocol", simulink::kProtocolSwFifo);
            chan.set_parameter("Var", c.variable);
            sys.add_line({p_tss, src_port}, {&chan, 1}, c.variable);
            sys.add_line({&chan, 1}, {c_tss, dst_port}, c.variable);
            ++report.intra_channels;
        } else {
            // Inter-SS channel (GFIFO) at the architecture layer.
            int p_cpu_out = get_cpu_output(*p_tss, c.variable);
            int c_cpu_in = add_subsystem_input(*c_cpu, c.variable, {c_tss, dst_port});
            Block& chan = root.add_block(
                root.unique_name("chan_" + c.producer->name() + "_" +
                                 c.consumer->name() + "_" + c.variable),
                BlockType::CommChannel);
            chan.set_role(CaamRole::InterCpuChannel);
            chan.set_parameter("Protocol", simulink::kProtocolGFifo);
            chan.set_parameter("Var", c.variable);
            root.add_line({p_cpu, p_cpu_out}, {&chan, 1}, c.variable);
            root.add_line({&chan, 1}, {c_cpu, c_cpu_in}, c.variable);
            ++report.inter_channels;
        }
    }

    // --- environment plumbing (<<IO>> and open inputs → system ports) --------
    int next_in = 1, next_out = 1;
    for (Block* cpu : simulink::cpu_subsystems(model)) {
        for (Block* tss : simulink::thread_subsystems(*cpu)) {
            for (Block* boundary : tss->system()->blocks()) {
                const std::string* kind = boundary->find_parameter("CommKind");
                if (!kind || *kind == kCommKindChannel) continue;
                const std::string var = boundary->parameter_or("Var", "?");
                int tss_port = simulink::port_number(*boundary);
                if (boundary->type() == BlockType::Inport) {
                    // Thread input ← CPU input ← system Inport block.
                    int cpu_in = add_subsystem_input(*cpu, var, {tss, tss_port});
                    Block& sys_in = root.add_block(
                        root.unique_name("In" + std::to_string(next_in)),
                        BlockType::Inport);
                    sys_in.set_parameter("Port", std::to_string(next_in));
                    sys_in.set_parameter("Var", var);
                    root.add_line({&sys_in, 1}, {cpu, cpu_in}, var);
                    ++next_in;
                    ++report.system_inputs;
                } else if (boundary->type() == BlockType::Outport &&
                           *kind == kCommKindIo) {
                    int cpu_out = add_subsystem_output(*cpu, var, {tss, tss_port});
                    Block& sys_out = root.add_block(
                        root.unique_name("Out" + std::to_string(next_out)),
                        BlockType::Outport);
                    sys_out.set_parameter("Port", std::to_string(next_out));
                    sys_out.set_parameter("Var", var);
                    root.add_line({cpu, cpu_out}, {&sys_out, 1}, var);
                    ++next_out;
                    ++report.system_outputs;
                }
            }
        }
    }

    return report;
}

}  // namespace uhcg::core
