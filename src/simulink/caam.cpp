#include "simulink/caam.hpp"

#include <functional>

namespace uhcg::simulink {
namespace {

void walk(const System& system,
          const std::function<void(const Block&, const System&)>& visit) {
    for (const Block* b : system.block_view()) {
        visit(*b, system);
        if (b->system()) walk(*b->system(), visit);
    }
}

}  // namespace

std::vector<Block*> cpu_subsystems(Model& model) {
    return model.root().blocks_with_role(CaamRole::CpuSubsystem);
}

std::vector<const Block*> cpu_subsystems(const Model& model) {
    std::vector<const Block*> out;
    for (const Block* b : model.root().block_view())
        if (b->role() == CaamRole::CpuSubsystem) out.push_back(b);
    return out;
}

std::vector<Block*> thread_subsystems(Block& cpu) {
    if (!cpu.system()) return {};
    return cpu.system()->blocks_with_role(CaamRole::ThreadSubsystem);
}

std::vector<const Block*> thread_subsystems(const Block& cpu) {
    std::vector<const Block*> out;
    if (!cpu.system()) return out;
    for (const Block* b : cpu.system()->block_view())
        if (b->role() == CaamRole::ThreadSubsystem) out.push_back(b);
    return out;
}

std::vector<const Block*> inter_cpu_channels(const Model& model) {
    std::vector<const Block*> out;
    walk(model.root(), [&](const Block& b, const System&) {
        if (b.role() == CaamRole::InterCpuChannel) out.push_back(&b);
    });
    return out;
}

std::vector<const Block*> intra_cpu_channels(const Model& model) {
    std::vector<const Block*> out;
    walk(model.root(), [&](const Block& b, const System&) {
        if (b.role() == CaamRole::IntraCpuChannel) out.push_back(&b);
    });
    return out;
}

CaamStats caam_stats(const Model& model) {
    CaamStats s;
    s.total_blocks = model.root().total_blocks();
    s.total_lines = model.root().total_lines();
    for (const Block* b : model.root().block_view()) {
        if (b->type() == BlockType::Inport) ++s.system_inports;
        if (b->type() == BlockType::Outport) ++s.system_outports;
    }
    walk(model.root(), [&](const Block& b, const System&) {
        switch (b.role()) {
            case CaamRole::CpuSubsystem: ++s.cpus; break;
            case CaamRole::ThreadSubsystem: ++s.threads; break;
            case CaamRole::InterCpuChannel: ++s.inter_channels; break;
            case CaamRole::IntraCpuChannel: ++s.intra_channels; break;
            case CaamRole::None: break;
        }
        switch (b.type()) {
            case BlockType::SFunction: ++s.sfunctions; break;
            case BlockType::UnitDelay: ++s.unit_delays; break;
            case BlockType::Product:
            case BlockType::Sum:
            case BlockType::Gain:
            case BlockType::Constant:
            case BlockType::Scope: ++s.predefined_blocks; break;
            default: break;
        }
    });
    return s;
}

std::vector<std::string> validate_caam(const Model& model) {
    std::vector<std::string> problems;

    walk(model.root(), [&](const Block& b, const System& owner) {
        bool at_root = (&owner == &model.root());
        bool in_cpu = owner.owner_block() != nullptr &&
                      owner.owner_block()->role() == CaamRole::CpuSubsystem;
        switch (b.role()) {
            case CaamRole::CpuSubsystem:
                if (!at_root)
                    problems.push_back("C1: CPU-SS '" + b.name() +
                                       "' is nested inside '" + owner.name() + "'");
                break;
            case CaamRole::ThreadSubsystem:
                if (!in_cpu)
                    problems.push_back("C1: Thread-SS '" + b.name() +
                                       "' is not directly inside a CPU-SS");
                break;
            case CaamRole::InterCpuChannel:
                if (!at_root)
                    problems.push_back("C2: inter-CPU channel '" + b.name() +
                                       "' is not at the architecture layer");
                if (b.parameter_or("Protocol", "") != kProtocolGFifo)
                    problems.push_back("C2: inter-CPU channel '" + b.name() +
                                       "' protocol is not GFIFO");
                break;
            case CaamRole::IntraCpuChannel:
                if (!in_cpu)
                    problems.push_back("C3: intra-CPU channel '" + b.name() +
                                       "' is not inside a CPU-SS");
                if (b.parameter_or("Protocol", "") != kProtocolSwFifo)
                    problems.push_back("C3: intra-CPU channel '" + b.name() +
                                       "' protocol is not SWFIFO");
                break;
            case CaamRole::None:
                break;
        }
        if (b.is_channel() && (b.input_count() != 1 || b.output_count() != 1))
            problems.push_back("C6: channel '" + b.name() +
                               "' must have exactly one input and one output");
        // C4: subsystem port counts match the Inport/Outport blocks inside.
        if (b.is_subsystem()) {
            int inports = 0;
            int outports = 0;
            for (const Block* child : b.system()->block_view()) {
                if (child->type() == BlockType::Inport) ++inports;
                if (child->type() == BlockType::Outport) ++outports;
            }
            if (inports != b.input_count() || outports != b.output_count())
                problems.push_back(
                    "C4: subsystem '" + b.name() + "' declares (" +
                    std::to_string(b.input_count()) + "," +
                    std::to_string(b.output_count()) + ") ports but contains (" +
                    std::to_string(inports) + "," + std::to_string(outports) +
                    ") Inport/Outport blocks");
        }
        // C5: all inputs driven.
        for (int port = 1; port <= b.input_count(); ++port) {
            if (!owner.line_into({const_cast<Block*>(&b), port}))
                problems.push_back("C5: input " + std::to_string(port) +
                                   " of block '" + b.name() + "' in system '" +
                                   owner.name() + "' is undriven");
        }
    });

    return problems;
}

}  // namespace uhcg::simulink
