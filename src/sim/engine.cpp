#include "sim/engine.hpp"

#include <algorithm>
#include <sstream>
#include <unordered_map>

#include "obs/obs.hpp"

namespace uhcg::sim {

using simulink::Block;
using simulink::BlockType;
using simulink::Line;
using simulink::PortRef;
using simulink::System;
using simulink::full_path;
using simulink::port_number;

void SFunctionRegistry::register_function(std::string name, SFunction fn,
                                          std::size_t state_size) {
    entries_[std::move(name)] = {std::move(fn), state_size};
}

bool SFunctionRegistry::contains(const std::string& name) const {
    return entries_.count(name) != 0;
}

const SFunction& SFunctionRegistry::function(const std::string& name) const {
    auto it = entries_.find(name);
    if (it == entries_.end())
        throw std::runtime_error("no S-function registered for '" + name + "'");
    return it->second.fn;
}

std::size_t SFunctionRegistry::state_size(const std::string& name) const {
    auto it = entries_.find(name);
    return it == entries_.end() ? 0 : it->second.state_size;
}

DeadlockError::DeadlockError(std::vector<std::string> cycle,
                             std::vector<CycleEdge> edges)
    : std::runtime_error([&cycle] {
          std::ostringstream msg;
          msg << "combinational cycle — dataflow deadlock through:";
          for (const auto& b : cycle) msg << ' ' << b;
          return msg.str();
      }()),
      cycle_(std::move(cycle)),
      edges_(std::move(edges)) {}

void report_deadlock(const DeadlockError& error,
                     diag::DiagnosticEngine& engine) {
    std::string joined;
    for (const std::string& b : error.cycle())
        joined += (joined.empty() ? "" : ", ") + b;
    std::vector<std::string> notes;
    notes.push_back("blocked block(s): " + joined);
    for (const CycleEdge& edge : error.edges())
        notes.push_back("combinational dependency: " + edge.from + " -> " +
                        edge.to);
    notes.push_back("insert a temporal barrier (UnitDelay) on the loop — §4.2.2");
    engine.report(diag::Severity::Error, diag::codes::kSimDeadlock,
                  "generated CAAM has a combinational cycle through " +
                      std::to_string(error.cycle().size()) +
                      " block(s) — dataflow deadlock",
                  {}, std::move(notes));
}

namespace {

bool is_marker(const Block& b, const System& root) {
    // Inport/Outport blocks below the root are hierarchy markers; at the
    // root they are the model's external interface.
    if (b.type() != BlockType::Inport && b.type() != BlockType::Outport)
        return false;
    return b.parent() != &root;
}

/// Numeric block parameters parsed with context: a corrupt model file must
/// name the block and parameter at fault, not die in a bare std::stod.
double param_double(const Block& b, const char* name, const char* fallback) {
    std::string v = b.parameter_or(name, fallback);
    try {
        std::size_t used = 0;
        double parsed = std::stod(v, &used);
        if (used != v.size()) throw std::invalid_argument(v);
        return parsed;
    } catch (const std::exception&) {
        throw std::runtime_error("block '" + full_path(b) + "' parameter '" +
                                 name + "' is not a number (got '" + v + "')");
    }
}

}  // namespace

/// Flattened network: atomic blocks, resolved drivers, static schedule.
struct Simulator::Net {
    struct AtomicBlock {
        const Block* block = nullptr;
        std::string path;
        // Resolved driver of each input: index into values_ (>=0), external
        // input (-2 - external index), or unconnected (-1, reads 0).
        std::vector<int> input_slots;
        int first_output_slot = 0;
        std::vector<double> state;  // UnitDelay / S-function state
        const SFunction* sfun = nullptr;
    };

    const simulink::Model* model = nullptr;
    std::vector<AtomicBlock> blocks;         // schedule order
    std::vector<std::string> external_names; // root Inport names
    std::map<std::string, int> external_index;
    std::size_t value_count = 0;
    std::vector<std::size_t> delay_indices;  // blocks[] indices of UnitDelays
    std::vector<std::size_t> recorder_indices;  // root Outports + Scopes

    /// Resolved atomic driver of an output endpoint, or external input.
    struct Driver {
        int slot = -1;  // semantics as AtomicBlock::input_slots
    };

    std::map<const Block*, int> first_slot_of;  // atomic block → output slot

    /// A subsystem's Outports by Port, as a block-order scan finds them:
    /// the first Outport per Port, up to the first whose Port does not
    /// parse (the scan would stop there with that error).
    struct Outports {
        std::unordered_map<int, Block*> by_port;
        const Block* bad_port = nullptr;
    };
    std::unordered_map<const System*, Outports> outports;
    /// Blocks visited resolving drivers: each resolution step plus each
    /// block scanned building an Outport table (`sim.resolve.visits`).
    std::uint64_t visits = 0;

    const Outports& outports_of(System& sys) {
        auto [it, fresh] = outports.try_emplace(&sys);
        if (!fresh) return it->second;
        for (Block* b : sys.block_view()) {
            ++visits;
            if (b->type() != BlockType::Outport) continue;
            try {
                it->second.by_port.try_emplace(port_number(*b), b);
            } catch (const std::runtime_error&) {
                it->second.bad_port = b;
                break;
            }
        }
        return it->second;
    }

    Driver resolve_output(const System& sys, PortRef src, const System& root) {
        (void)sys;  // kept for symmetry with callers resolving within a system
        ++visits;
        Block& b = *src.block;
        if (b.type() == BlockType::SubSystem) {
            // Dive: the first inner Outport with Port == src.port.
            const Outports& table = outports_of(*b.system());
            auto hit = table.by_port.find(src.port);
            if (hit == table.by_port.end()) {
                if (table.bad_port) port_number(*table.bad_port);  // throws
                throw std::runtime_error("subsystem '" + full_path(b) +
                                         "' lacks Outport " +
                                         std::to_string(src.port));
            }
            Block* inner = hit->second;
            const Line* line = b.system()->line_into({inner, 1});
            if (!line)
                throw std::runtime_error("undriven Outport '" + full_path(*inner) +
                                         "'");
            return resolve_output(*b.system(), line->source(), root);
        }
        if (b.type() == BlockType::Inport && is_marker(b, root)) {
            // Surface: the owning subsystem's input port in the parent.
            Block* owner = b.parent()->owner_block();
            const System* parent = owner->parent();
            const Line* line = parent->line_into({owner, port_number(b)});
            if (!line)
                throw std::runtime_error("undriven subsystem input " +
                                         std::to_string(port_number(b)) + " of '" +
                                         full_path(*owner) + "'");
            return resolve_output(*parent, line->source(), root);
        }
        if (b.type() == BlockType::Inport) {
            // Root Inport: external input.
            std::string name = b.parameter_or("Var", b.name());
            auto [it, inserted] =
                external_index.emplace(name, static_cast<int>(external_names.size()));
            if (inserted) external_names.push_back(name);
            return {-2 - it->second};
        }
        auto slot = first_slot_of.find(&b);
        if (slot == first_slot_of.end())
            throw std::logic_error("driver block '" + full_path(b) +
                                   "' was not collected");
        return {slot->second + src.port - 1};
    }
};

Simulator::Simulator(const simulink::Model& model,
                     const SFunctionRegistry& registry)
    : net_(std::make_shared<Net>()) {
    Net& net = *net_;
    net.model = &model;
    const System& root = model.root();

    // Pass 1: collect atomic blocks (everything functional, plus root
    // Inports/Outports and Scopes) and assign output value slots.
    std::vector<const Block*> atomics;
    auto collect = [&](const System& sys, auto&& self) -> void {
        for (const Block* b : sys.block_view()) {
            if (b->type() == BlockType::SubSystem) {
                self(*b->system(), self);
                continue;
            }
            if (is_marker(*b, root)) continue;
            atomics.push_back(b);
        }
    };
    collect(root, collect);

    for (const Block* b : atomics) {
        net.first_slot_of[b] = static_cast<int>(net.value_count);
        net.value_count += static_cast<std::size_t>(std::max(1, b->output_count()));
    }

    // Pass 2: resolve every atomic input to its driver.
    struct Pending {
        const Block* block;
        std::vector<int> input_slots;
    };
    std::vector<Pending> pending;
    for (const Block* b : atomics) {
        Pending p{b, {}};
        for (int port = 1; port <= b->input_count(); ++port) {
            const System& sys = *b->parent();
            const Line* line = sys.line_into({const_cast<Block*>(b), port});
            if (!line) {
                p.input_slots.push_back(-1);
                continue;
            }
            p.input_slots.push_back(
                net.resolve_output(sys, line->source(), root).slot);
        }
        pending.push_back(std::move(p));
    }
    obs::counter("sim.resolve.visits").add(net.visits);
    net.outports = {};

    // Pass 3: topological order of the combinational dependency graph.
    // UnitDelay outputs are state, so they impose no ordering as drivers.
    std::map<const Block*, std::size_t> index_of;
    for (std::size_t i = 0; i < atomics.size(); ++i) index_of[atomics[i]] = i;
    std::vector<std::vector<std::size_t>> consumers(atomics.size());
    std::vector<std::size_t> unmet(atomics.size(), 0);
    // Slot → owning block, built once (slots are contiguous per block).
    std::vector<const Block*> slot_owner(net.value_count, nullptr);
    for (const auto& [b, first] : net.first_slot_of) {
        int count = std::max(1, b->output_count());
        for (int s = 0; s < count; ++s)
            slot_owner[static_cast<std::size_t>(first + s)] = b;
    }
    auto block_of_slot = [&](int slot) -> const Block* {
        return slot_owner[static_cast<std::size_t>(slot)];
    };
    for (std::size_t i = 0; i < pending.size(); ++i) {
        for (int slot : pending[i].input_slots) {
            if (slot < 0) continue;
            const Block* driver = block_of_slot(slot);
            if (!driver || driver->type() == BlockType::UnitDelay) continue;
            consumers[index_of[driver]].push_back(i);
            ++unmet[i];
        }
    }
    std::vector<std::size_t> order;
    std::vector<std::size_t> ready;
    for (std::size_t i = 0; i < atomics.size(); ++i)
        if (unmet[i] == 0) ready.push_back(i);
    while (!ready.empty()) {
        // Deterministic: lowest index first.
        auto it = std::min_element(ready.begin(), ready.end());
        std::size_t i = *it;
        ready.erase(it);
        order.push_back(i);
        for (std::size_t c : consumers[i])
            if (--unmet[c] == 0) ready.push_back(c);
    }
    if (order.size() != atomics.size()) {
        std::vector<std::string> cycle;
        std::vector<CycleEdge> edges;
        for (std::size_t i = 0; i < atomics.size(); ++i) {
            if (unmet[i] == 0) continue;
            cycle.push_back(full_path(*atomics[i]));
            // Edges among the stuck blocks show the actual loop.
            for (int slot : pending[i].input_slots) {
                if (slot < 0) continue;
                const Block* driver = block_of_slot(slot);
                if (!driver || driver->type() == BlockType::UnitDelay) continue;
                auto di = index_of.find(driver);
                if (di != index_of.end() && unmet[di->second] != 0)
                    edges.push_back({full_path(*driver), full_path(*atomics[i])});
            }
        }
        throw DeadlockError(std::move(cycle), std::move(edges));
    }

    // Pass 4: materialize schedule-ordered atomic records.
    for (std::size_t i : order) {
        const Block* b = atomics[i];
        Net::AtomicBlock rec;
        rec.block = b;
        rec.path = full_path(*b);
        rec.input_slots = pending[i].input_slots;
        rec.first_output_slot = net.first_slot_of[b];
        if (b->type() == BlockType::UnitDelay) {
            rec.state.assign(1, param_double(*b, "InitialCondition", "0"));
            net.delay_indices.push_back(net.blocks.size());
        } else if (b->type() == BlockType::SFunction) {
            std::string fn = b->parameter_or("FunctionName", b->name());
            if (!registry.contains(fn))
                throw std::runtime_error("S-function '" + fn + "' (block '" +
                                         rec.path + "') is not registered");
            rec.sfun = &registry.function(fn);
            rec.state.assign(registry.state_size(fn), 0.0);
        } else if ((b->type() == BlockType::Outport &&
                    b->parent() == &model.root()) ||
                   b->type() == BlockType::Scope) {
            net.recorder_indices.push_back(net.blocks.size());
        }
        net.blocks.push_back(std::move(rec));
    }
}

void Simulator::set_input(const std::string& name, InputSignal signal) {
    inputs_[name] = std::move(signal);
}

std::vector<std::string> Simulator::schedule() const {
    std::vector<std::string> out;
    for (const auto& b : net_->blocks) out.push_back(b.path);
    return out;
}

SimResult Simulator::run() {
    const double step = net_->model->fixed_step;
    auto steps = static_cast<std::size_t>(net_->model->stop_time / step);
    return run(std::max<std::size_t>(steps, 1));
}

SimResult Simulator::run(std::size_t steps, diag::DiagnosticEngine& engine,
                         const WatchdogBudget& budget) {
    // Clamp the request to the budget up front: the sweep is statically
    // scheduled, so bounding the step count bounds all work.
    std::size_t allowed = steps;
    if (budget.max_steps) allowed = std::min(allowed, budget.max_steps);
    if (budget.max_block_evals) {
        std::size_t per_step = std::max<std::size_t>(net_->blocks.size(), 1);
        allowed = std::min(allowed, budget.max_block_evals / per_step);
    }
    SimResult result = run(allowed);
    if (allowed < steps) {
        result.budget_exhausted = true;
        engine.report(
            diag::Severity::Error, diag::codes::kSimWatchdog,
            "simulation of '" + net_->model->name() + "' stopped by watchdog: " +
                std::to_string(steps) + " step(s) requested, budget allows " +
                std::to_string(allowed),
            {},
            {"executed " + std::to_string(result.steps) + " step(s) across " +
             std::to_string(net_->blocks.size()) + " scheduled block(s)"});
    }
    return result;
}

SimResult Simulator::run(std::size_t steps) {
    obs::ObsSpan span("sim.run");
    Net& net = *net_;
    SimResult result;
    std::vector<double> values(net.value_count, 0.0);
    std::vector<double> externals(net.external_names.size(), 0.0);

    auto read = [&](int slot, double fallback = 0.0) {
        if (slot >= 0) return values[static_cast<std::size_t>(slot)];
        if (slot <= -2) return externals[static_cast<std::size_t>(-2 - slot)];
        return fallback;
    };

    const double dt = net.model->fixed_step;
    for (std::size_t k = 0; k < steps; ++k) {
        double t = static_cast<double>(k) * dt;
        result.time.push_back(t);

        for (std::size_t e = 0; e < externals.size(); ++e) {
            auto it = inputs_.find(net.external_names[e]);
            externals[e] = (it != inputs_.end()) ? it->second(t) : 0.0;
        }

        // Delays publish state before the sweep.
        for (std::size_t i : net.delay_indices) {
            auto& d = net.blocks[i];
            values[static_cast<std::size_t>(d.first_output_slot)] = d.state[0];
        }

        for (auto& b : net.blocks) {
            const Block& blk = *b.block;
            double* out = &values[static_cast<std::size_t>(b.first_output_slot)];
            switch (blk.type()) {
                case BlockType::Product: {
                    std::string signs = blk.parameter_or("Inputs", "");
                    double v = 1.0;
                    for (std::size_t i = 0; i < b.input_slots.size(); ++i) {
                        double x = read(b.input_slots[i]);
                        if (i < signs.size() && signs[i] == '/')
                            v /= x;
                        else
                            v *= x;
                    }
                    out[0] = v;
                    break;
                }
                case BlockType::Sum: {
                    std::string signs = blk.parameter_or("Inputs", "");
                    double v = 0.0;
                    for (std::size_t i = 0; i < b.input_slots.size(); ++i) {
                        double x = read(b.input_slots[i]);
                        if (i < signs.size() && signs[i] == '-')
                            v -= x;
                        else
                            v += x;
                    }
                    out[0] = v;
                    break;
                }
                case BlockType::Gain:
                    out[0] = param_double(blk, "Gain", "1") *
                             read(b.input_slots.empty() ? -1 : b.input_slots[0]);
                    break;
                case BlockType::Constant:
                    out[0] = param_double(blk, "Value", "0");
                    break;
                case BlockType::UnitDelay:
                    break;  // published above, latched below
                case BlockType::CommChannel: {
                    out[0] = read(b.input_slots[0]);
                    ++result.channel_traffic[blk.parameter_or("Protocol", "RAW")];
                    break;
                }
                case BlockType::SFunction: {
                    std::vector<double> ins(b.input_slots.size());
                    for (std::size_t i = 0; i < ins.size(); ++i)
                        ins[i] = read(b.input_slots[i]);
                    std::span<double> outs(
                        out, static_cast<std::size_t>(
                                 std::max(1, blk.output_count())));
                    (*b.sfun)(ins, outs, t, b.state);
                    break;
                }
                case BlockType::Inport:
                    // Root Inport: mirror the external value into its slot.
                    out[0] = externals[static_cast<std::size_t>(
                        net.external_index.at(blk.parameter_or("Var", blk.name())))];
                    break;
                case BlockType::Outport:
                case BlockType::Scope: {
                    double v = read(b.input_slots.empty() ? -1 : b.input_slots[0]);
                    out[0] = v;
                    break;
                }
                case BlockType::SubSystem:
                    break;  // never atomic
            }
        }

        // Record and latch.
        for (std::size_t i : net.recorder_indices) {
            auto& r = net.blocks[i];
            double v = values[static_cast<std::size_t>(r.first_output_slot)];
            if (r.block->type() == BlockType::Scope)
                result.scopes[r.path].push_back(v);
            else
                result.outputs[r.block->parameter_or("Var", r.block->name())]
                    .push_back(v);
        }
        for (std::size_t i : net.delay_indices) {
            auto& d = net.blocks[i];
            d.state[0] = read(d.input_slots.empty() ? -1 : d.input_slots[0]);
        }
        ++result.steps;
    }
    static obs::Counter& sim_steps = obs::counter("sim.steps");
    sim_steps.add(result.steps);
    return result;
}

}  // namespace uhcg::sim
