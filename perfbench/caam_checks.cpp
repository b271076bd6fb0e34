#include "caam_checks.hpp"

#include <set>
#include <tuple>

#include "sim/engine.hpp"
#include "simulink/caam.hpp"

namespace perfbench {

using uhcg::simulink::Block;
using uhcg::simulink::BlockType;
using uhcg::simulink::CaamRole;
using uhcg::simulink::PortRef;
using uhcg::simulink::System;

namespace {

using Link = std::tuple<std::string, std::string, std::string>;

PortRef port(const Block* block, int index) {
    return {const_cast<Block*>(block), index};
}

void collect_sfunctions(const System& system, std::set<std::string>& names) {
    for (const Block* b : system.blocks()) {
        if (b->type() == BlockType::SFunction)
            names.insert(b->parameter_or("FunctionName", b->name()));
        if (b->system()) collect_sfunctions(*b->system(), names);
    }
}

/// Source of the line feeding `dst` in `sys`, looking through inserted
/// UnitDelay barriers.
PortRef upstream(const System& sys, PortRef dst) {
    const auto* line = sys.line_into(dst);
    while (line && line->source().block->type() == BlockType::UnitDelay)
        line = sys.line_into(port(line->source().block, 1));
    return line ? line->source() : PortRef{nullptr, 0};
}

/// First destination of the line leaving `src` in `sys`, looking through
/// inserted UnitDelay barriers.
PortRef downstream(const System& sys, PortRef src) {
    const auto* line = sys.line_from(src);
    while (line && !line->destinations().empty() &&
           line->destinations().front().block->type() == BlockType::UnitDelay)
        line = sys.line_from(port(line->destinations().front().block, 1));
    return line && !line->destinations().empty() ? line->destinations().front()
                                                 : PortRef{nullptr, 0};
}

/// Marker block of `type` carrying Port=`index` inside subsystem `sub`.
const Block* marker(const Block& sub, BlockType type, int index) {
    for (const Block* b : sub.system()->blocks())
        if (b->type() == type &&
            b->parameter_or("Port", "") == std::to_string(index))
            return b;
    return nullptr;
}

/// Thread-SS behind port `index` of CPU-SS `cpu`: the one feeding it for
/// an output, the one it feeds for an input.
const Block* thread_behind(const Block* cpu, int index, bool output) {
    if (!cpu || !cpu->system()) return nullptr;
    const Block* m =
        marker(*cpu, output ? BlockType::Outport : BlockType::Inport, index);
    if (!m) return nullptr;
    return output ? upstream(*cpu->system(), port(m, 1)).block
                  : downstream(*cpu->system(), port(m, 1)).block;
}

bool is_thread(const Block* b) {
    return b && b->role() == CaamRole::ThreadSubsystem;
}

}  // namespace

std::size_t schedule_length(const uhcg::simulink::Model& caam) {
    std::set<std::string> names;
    collect_sfunctions(caam.root(), names);
    uhcg::sim::SFunctionRegistry registry;
    for (const std::string& name : names)
        registry.register_function(
            name, [](auto, auto outputs, double, auto&) {
                for (double& v : outputs) v = 0.0;
            });
    uhcg::sim::Simulator simulator(caam, registry);
    return simulator.schedule().size();
}

std::string check_caam(const uhcg::simulink::Model& caam,
                       const uhcg::uml::Model& model,
                       const uhcg::core::CommModel& comm,
                       const uhcg::core::Allocation& allocation,
                       std::size_t* schedule_blocks) {
    try {
        std::size_t length = schedule_length(caam);
        if (schedule_blocks) *schedule_blocks = length;
    } catch (const uhcg::sim::DeadlockError& e) {
        return "combinational cycle remains through " +
               std::to_string(e.cycle().size()) + " block(s)";
    } catch (const std::exception& e) {
        return std::string("engine cannot schedule the CAAM: ") + e.what();
    }

    std::set<Link> links;
    for (const uhcg::core::Channel& c : comm.channels())
        links.insert({c.producer->name(), c.consumer->name(), c.variable});

    auto same_cpu = [&](const Block* p, const Block* c) {
        const auto* producer = model.find_object(p->name());
        const auto* consumer = model.find_object(c->name());
        if (!producer || !consumer)
            throw std::runtime_error("channel thread not in the model");
        return allocation.same_processor(*producer, *consumer);
    };

    std::set<Link> found;
    std::size_t channels = 0;
    for (const Block* chan : uhcg::simulink::intra_cpu_channels(caam)) {
        ++channels;
        const System& sys = *chan->parent();
        const Block* p = upstream(sys, port(chan, 1)).block;
        const Block* c = downstream(sys, port(chan, 1)).block;
        if (!is_thread(p) || !is_thread(c))
            return "intra-CPU channel " + chan->name() +
                   " does not join two threads";
        if (chan->parameter_or("Protocol", "") !=
            uhcg::simulink::kProtocolSwFifo)
            return "intra-CPU channel " + chan->name() + " is not SWFIFO";
        if (!same_cpu(p, c))
            return "intra-CPU channel " + chan->name() +
                   " joins threads on different processors";
        found.insert({p->name(), c->name(), chan->parameter_or("Var", "")});
    }
    for (const Block* chan : uhcg::simulink::inter_cpu_channels(caam)) {
        ++channels;
        PortRef from = upstream(caam.root(), port(chan, 1));
        PortRef to = downstream(caam.root(), port(chan, 1));
        const Block* p = thread_behind(from.block, from.port, true);
        const Block* c = thread_behind(to.block, to.port, false);
        if (!is_thread(p) || !is_thread(c))
            return "inter-CPU channel " + chan->name() +
                   " does not join two threads";
        if (chan->parameter_or("Protocol", "") !=
            uhcg::simulink::kProtocolGFifo)
            return "inter-CPU channel " + chan->name() + " is not GFIFO";
        if (same_cpu(p, c))
            return "inter-CPU channel " + chan->name() +
                   " joins threads on one processor";
        found.insert({p->name(), c->name(), chan->parameter_or("Var", "")});
    }
    if (channels != links.size())
        return std::to_string(channels) + " channel blocks for " +
               std::to_string(links.size()) + " communication links";
    if (found != links)
        return "channel blocks do not match the communication links";
    return "";
}

}  // namespace perfbench
