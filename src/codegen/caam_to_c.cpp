#include "codegen/caam_to_c.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>
#include <vector>

#include "codegen/identifiers.hpp"
#include "simulink/caam.hpp"
#include "transform/text.hpp"

namespace uhcg::codegen {

using simulink::Block;
using simulink::BlockType;
using simulink::CaamRole;
using simulink::Line;
using simulink::PortRef;
using simulink::System;
using simulink::port_number;
using transform::CodeWriter;
using transform::sanitize_identifier;

namespace {

/// Where a thread boundary port connects outside the Thread-SS.
struct Endpoint {
    enum Kind { Channel, Env, Delay } kind = Env;
    const Block* channel = nullptr;  // when kind == Channel
    std::string var;                 // when kind == Env
    std::size_t delay = 0;           // when kind == Delay (boundary index)
};

struct ThreadCode {
    const Block* tss = nullptr;
    std::string fn_name;  // e.g. "CPU1_T1_step"
    std::map<int, Endpoint> input_sources;            // tss input port → source
    std::map<int, std::vector<Endpoint>> output_sinks;  // tss output port → sinks
};

class Generator {
public:
    explicit Generator(const simulink::Model& model) : model_(&model) {}

    GeneratedProgram run() {
        // CPU step names are claimed first, so a model without colliding
        // names keeps every name unsuffixed.
        for (const Block* cpu : simulink::cpu_subsystems(*model_))
            cpu_fn_[cpu] = symbols_.make(sanitize_identifier(cpu->name()) + "_step");
        collect_channels();
        collect_threads();
        GeneratedProgram out;
        out.channel_count = channels_.size();
        out.files["uhcg_rt.h"] = runtime_header();
        auto [sf_h, sf_c, count] = sfunction_files();
        out.sfunction_count = count;
        out.files["sfunctions.h"] = sf_h;
        out.files["sfunctions.c"] = sf_c;
        for (const Block* cpu : simulink::cpu_subsystems(*model_))
            out.files["cpu_" + sanitize_identifier(cpu->name()) + ".c"] =
                cpu_file(*cpu);
        out.files["main.c"] = main_file();
        return out;
    }

private:
    // --- structural analysis -------------------------------------------------

    void collect_channels() {
        auto scan = [&](const System& sys, auto&& self) -> void {
            // Boundary delays: UnitDelays at the CPU or architecture layer
            // (§4.2.2 temporal barriers inserted on channel links). Delays
            // inside Thread-SS layers are handled by the thread emitter.
            bool thread_layer = sys.owner_block() != nullptr &&
                                sys.owner_block()->role() ==
                                    CaamRole::ThreadSubsystem;
            for (const Block* b : sys.blocks()) {
                if (b->type() == BlockType::CommChannel)
                    channel_index_[b] = channels_.size(), channels_.push_back(b);
                if (b->type() == BlockType::UnitDelay && !thread_layer)
                    delay_index_[b] = delays_.size(), delays_.push_back(b);
                if (b->system()) self(*b->system(), self);
            }
        };
        scan(model_->root(), scan);
    }

    Endpoint resolve_source(const System& sys, PortRef src) const {
        const Block& b = *src.block;
        if (b.type() == BlockType::CommChannel) return {Endpoint::Channel, &b, ""};
        if (b.type() == BlockType::UnitDelay)
            return {Endpoint::Delay, nullptr, "", delay_index_.at(&b)};
        if (b.type() == BlockType::Inport) {
            if (b.parent() == &model_->root())
                return {Endpoint::Env, nullptr, b.parameter_or("Var", b.name())};
            // CPU boundary marker: surface to the root.
            const Block* cpu = b.parent()->owner_block();
            const Line* line = model_->root().line_into(
                {const_cast<Block*>(cpu), port_number(b)});
            if (!line)
                throw std::runtime_error("undriven CPU input feeding codegen");
            return resolve_source(model_->root(), line->source());
        }
        (void)sys;
        throw std::runtime_error("unexpected driver block '" + b.name() +
                                 "' for a thread input");
    }

    void resolve_sinks(const System& sys, PortRef src,
                       std::vector<Endpoint>& out) const {
        const Line* line = sys.line_from(src);
        if (!line) return;  // dangling output: legal, value unused
        for (const PortRef& dst : line->destinations()) {
            const Block& b = *dst.block;
            if (b.type() == BlockType::CommChannel) {
                out.push_back({Endpoint::Channel, &b, ""});
            } else if (b.type() == BlockType::UnitDelay) {
                out.push_back(
                    {Endpoint::Delay, nullptr, "", delay_index_.at(&b)});
            } else if (b.type() == BlockType::Outport) {
                if (b.parent() == &model_->root()) {
                    out.push_back(
                        {Endpoint::Env, nullptr, b.parameter_or("Var", b.name())});
                } else {
                    const Block* cpu = b.parent()->owner_block();
                    resolve_sinks(*cpu->parent(),
                                  {const_cast<Block*>(cpu), port_number(b)}, out);
                }
            } else if (b.type() == BlockType::SubSystem) {
                // Another CPU fed directly (no channel) — not produced by
                // the mapper, but tolerate by ignoring; sim handles it.
            }
        }
    }

    void collect_threads() {
        for (Block* cpu : simulink::cpu_subsystems(
                 const_cast<simulink::Model&>(*model_))) {
            for (Block* tss : simulink::thread_subsystems(*cpu)) {
                ThreadCode tc;
                tc.tss = tss;
                tc.fn_name = symbols_.make(sanitize_identifier(cpu->name()) +
                                           "_" + sanitize_identifier(tss->name()) +
                                           "_step");
                for (int p = 1; p <= tss->input_count(); ++p)
                    tc.input_sources[p] =
                        resolve_source(*cpu->system(),
                                       source_of_input(*cpu->system(), *tss, p));
                for (int p = 1; p <= tss->output_count(); ++p) {
                    resolve_sinks(*cpu->system(), {tss, p}, tc.output_sinks[p]);
                    for (const Endpoint& e : tc.output_sinks[p])
                        if (e.kind == Endpoint::Delay)
                            delay_fed_by_thread_.insert(delays_[e.delay]);
                }
                threads_.push_back(std::move(tc));
            }
        }
    }

    static PortRef source_of_input(const System& sys, Block& tss, int port) {
        const Line* line = sys.line_into({&tss, port});
        if (!line)
            throw std::runtime_error("thread input " + std::to_string(port) +
                                     " of '" + tss.name() + "' is undriven");
        return line->source();
    }

    // --- emission -------------------------------------------------------------

    std::string runtime_header() const {
        CodeWriter w;
        w.line("/* Generated by uml-hcg CAAM code generator — do not edit. */");
        w.line("#ifndef UHCG_RT_H");
        w.line("#define UHCG_RT_H");
        w.blank();
        w.line("#define UHCG_FIFO_DEPTH 64");
        w.open("typedef struct {");
        w.line("double buf[UHCG_FIFO_DEPTH];");
        w.line("int head, tail, count;");
        w.line("double last;");
        w.close("} uhcg_fifo_t;");
        w.blank();
        w.line("/* Register-backed FIFO: reading an empty FIFO repeats the last");
        w.line(" * value (0.0 initially), matching the single-rate semantics of");
        w.line(" * the execution engine. */");
        w.open("static inline void uhcg_fifo_write(uhcg_fifo_t* f, double v) {");
        w.open("if (f->count < UHCG_FIFO_DEPTH) {");
        w.line("f->buf[f->tail] = v;");
        w.line("f->tail = (f->tail + 1) % UHCG_FIFO_DEPTH;");
        w.line("f->count++;");
        w.close();
        w.close();
        w.blank();
        w.open("static inline double uhcg_fifo_read(uhcg_fifo_t* f) {");
        w.open("if (f->count > 0) {");
        w.line("f->last = f->buf[f->head];");
        w.line("f->head = (f->head + 1) % UHCG_FIFO_DEPTH;");
        w.line("f->count--;");
        w.close();
        w.line("return f->last;");
        w.close();
        w.blank();
        w.line("double uhcg_env_read(const char* var);");
        w.line("void uhcg_env_write(const char* var, double value);");
        w.blank();
        w.line("/* Boundary temporal barriers (UnitDelays on channel links):");
        w.line(" * dstate is the published output, dpend the value latched at");
        w.line(" * the end of each global step. */");
        w.line("extern double uhcg_dstate[];");
        w.line("extern double uhcg_dpend[];");
        w.blank();
        w.line("#endif /* UHCG_RT_H */");
        return w.take();
    }

    std::tuple<std::string, std::string, std::size_t> sfunction_files() const {
        // One prototype per distinct FunctionName; bodies come from the
        // Source parameter (the UML operation's C code) or a stub.
        std::map<std::string, const Block*> sfuns;
        auto scan = [&](const System& sys, auto&& self) -> void {
            for (const Block* b : sys.blocks()) {
                if (b->type() == BlockType::SFunction)
                    sfuns.emplace(b->parameter_or("FunctionName", b->name()), b);
                if (b->system()) self(*b->system(), self);
            }
        };
        scan(model_->root(), scan);

        CodeWriter h;
        h.line("/* Generated by uml-hcg CAAM code generator — do not edit. */");
        h.line("#ifndef UHCG_SFUNCTIONS_H");
        h.line("#define UHCG_SFUNCTIONS_H");
        h.blank();
        for (const auto& [name, block] : sfuns)
            h.line("void sfun_" + sanitize_identifier(name) +
                   "(const double* in, int nin, double* out, int nout);");
        h.blank();
        h.line("#endif /* UHCG_SFUNCTIONS_H */");

        CodeWriter c;
        c.line("/* S-function behaviours (from UML operation bodies). */");
        c.line("#include \"sfunctions.h\"");
        c.blank();
        for (const auto& [name, block] : sfuns) {
            c.line("void sfun_" + sanitize_identifier(name) +
                   "(const double* in, int nin, double* out, int nout)");
            c.open("{");
            c.line("(void)in; (void)nin; (void)out; (void)nout;");
            if (const std::string* src = block->find_parameter("Source")) {
                c.raw(*src);
                c.raw("\n");
            } else {
                c.line("/* TODO: behaviour for '" + name + "' was not modeled */");
                c.line("if (nout > 0) out[0] = (nin > 0) ? in[0] : 0.0;");
            }
            c.close();
            c.blank();
        }
        return {h.take(), c.take(), sfuns.size()};
    }

    std::string channel_ref(const Block& chan) const {
        return "&uhcg_channels[" +
               std::to_string(channel_index_.at(&chan)) + "]";
    }

    /// Emits one thread step function into `w`.
    void emit_thread(CodeWriter& w, const ThreadCode& tc) const {
        const System& sys = *tc.tss->system();

        // Topological order of the thread layer (UnitDelay = source).
        std::vector<const Block*> blocks = sys.blocks();
        std::map<const Block*, std::size_t> idx;
        for (std::size_t i = 0; i < blocks.size(); ++i) idx[blocks[i]] = i;
        std::vector<std::size_t> unmet(blocks.size(), 0);
        std::vector<std::vector<std::size_t>> consumers(blocks.size());
        for (const Line* line : sys.lines()) {
            const Block* src = line->source().block;
            // UnitDelay outputs are state — no ordering constraint. Inport
            // reads DO order: they must be emitted before their consumers.
            if (src->type() == BlockType::UnitDelay) continue;
            for (const PortRef& dst : line->destinations()) {
                consumers[idx[src]].push_back(idx[dst.block]);
                ++unmet[idx[dst.block]];
            }
        }
        std::vector<const Block*> order;
        std::vector<std::size_t> ready;
        for (std::size_t i = 0; i < blocks.size(); ++i)
            if (unmet[i] == 0) ready.push_back(i);
        while (!ready.empty()) {
            auto it = std::min_element(ready.begin(), ready.end());
            std::size_t i = *it;
            ready.erase(it);
            order.push_back(blocks[i]);
            for (std::size_t c : consumers[i])
                if (--unmet[c] == 0) ready.push_back(c);
        }
        if (order.size() != blocks.size())
            throw std::runtime_error("thread '" + tc.tss->name() +
                                     "' still contains a combinational cycle; "
                                     "run insert_temporal_barriers first");

        auto value_name = [&](const Block& b, int port) {
            std::string n = "v_" + sanitize_identifier(b.name());
            if (b.output_count() > 1) n += "_" + std::to_string(port);
            return n;
        };
        auto input_expr = [&](const Block& b, int port) -> std::string {
            const Line* line = sys.line_into({const_cast<Block*>(&b), port});
            if (!line) return "0.0";
            return value_name(*line->source().block, line->source().port);
        };

        w.line("void " + tc.fn_name + "(void)");
        w.open("{");
        for (const Block* b : order) {
            switch (b->type()) {
                case BlockType::Inport: {
                    int tss_port = port_number(*b);
                    const Endpoint& src = tc.input_sources.at(tss_port);
                    std::string rhs;
                    switch (src.kind) {
                        case Endpoint::Channel:
                            rhs = "uhcg_fifo_read(" + channel_ref(*src.channel) +
                                  ")";
                            break;
                        case Endpoint::Delay:
                            rhs = "uhcg_dstate[" + std::to_string(src.delay) + "]";
                            break;
                        case Endpoint::Env:
                            rhs = "uhcg_env_read(\"" + src.var + "\")";
                            break;
                    }
                    w.line("double " + value_name(*b, 1) + " = " + rhs + ";");
                    break;
                }
                case BlockType::Constant:
                    w.line("double " + value_name(*b, 1) + " = " +
                           b->parameter_or("Value", "0") + ";");
                    break;
                case BlockType::Gain:
                    w.line("double " + value_name(*b, 1) + " = " +
                           b->parameter_or("Gain", "1") + " * " +
                           input_expr(*b, 1) + ";");
                    break;
                case BlockType::Product: {
                    std::string signs = b->parameter_or("Inputs", "");
                    std::string expr;
                    for (int p = 1; p <= b->input_count(); ++p) {
                        std::string op =
                            (static_cast<std::size_t>(p - 1) < signs.size() &&
                             signs[p - 1] == '/')
                                ? " / "
                                : " * ";
                        expr += (p == 1 ? (signs.size() > 0 && signs[0] == '/'
                                               ? "1.0 / "
                                               : "")
                                        : op) +
                                input_expr(*b, p);
                    }
                    w.line("double " + value_name(*b, 1) + " = " + expr + ";");
                    break;
                }
                case BlockType::Sum: {
                    std::string signs = b->parameter_or("Inputs", "");
                    std::string expr;
                    for (int p = 1; p <= b->input_count(); ++p) {
                        bool minus = static_cast<std::size_t>(p - 1) < signs.size() &&
                                     signs[p - 1] == '-';
                        expr += (p == 1 ? (minus ? "-" : "")
                                        : (minus ? " - " : " + ")) +
                                input_expr(*b, p);
                    }
                    w.line("double " + value_name(*b, 1) + " = " + expr + ";");
                    break;
                }
                case BlockType::UnitDelay: {
                    // State published at entry; latched at function exit.
                    std::string state = "state_" + tc.fn_name + "_" +
                                        sanitize_identifier(b->name());
                    w.line("double " + value_name(*b, 1) + " = " + state + ";");
                    break;
                }
                case BlockType::SFunction: {
                    std::string fn = "sfun_" +
                                     sanitize_identifier(
                                         b->parameter_or("FunctionName", b->name()));
                    int nin = b->input_count();
                    int nout = std::max(1, b->output_count());
                    std::string ins = "{ ";
                    for (int p = 1; p <= nin; ++p)
                        ins += input_expr(*b, p) + (p == nin ? " }" : ", ");
                    if (nin == 0) ins = "{ 0.0 }";
                    for (int p = 1; p <= b->output_count(); ++p)
                        w.line("double " + value_name(*b, p) + ";");
                    w.open("{");
                    w.line("const double in[] = " + ins + ";");
                    w.line("double out[" + std::to_string(nout) + "] = {0};");
                    w.line(fn + "(in, " + std::to_string(nin) + ", out, " +
                           std::to_string(nout) + ");");
                    for (int p = 1; p <= b->output_count(); ++p)
                        w.line(value_name(*b, p) + " = out[" +
                               std::to_string(p - 1) + "];");
                    w.close();
                    // Unconsumed outputs are legal in the model; keep the
                    // generated unit warning-clean.
                    for (int p = 1; p <= b->output_count(); ++p)
                        if (!sys.line_from({const_cast<Block*>(b), p}))
                            w.line("(void)" + value_name(*b, p) + ";");
                    break;
                }
                case BlockType::Scope:
                    w.line("uhcg_env_write(\"scope:" + b->name() + "\", " +
                           input_expr(*b, 1) + ");");
                    break;
                case BlockType::Outport: {
                    int tss_port = port_number(*b);
                    std::string expr = input_expr(*b, 1);
                    auto sinks = tc.output_sinks.find(tss_port);
                    if (sinks != tc.output_sinks.end()) {
                        for (const Endpoint& s : sinks->second) {
                            if (s.kind == Endpoint::Channel)
                                w.line("uhcg_fifo_write(" +
                                       channel_ref(*s.channel) + ", " + expr +
                                       ");");
                            else if (s.kind == Endpoint::Delay)
                                w.line("uhcg_dpend[" + std::to_string(s.delay) +
                                       "] = " + expr + ";");
                            else
                                w.line("uhcg_env_write(\"" + s.var + "\", " +
                                       expr + ");");
                        }
                    }
                    break;
                }
                case BlockType::CommChannel:
                case BlockType::SubSystem:
                    throw std::runtime_error(
                        "unexpected block type inside a thread layer: " +
                        b->name());
            }
        }
        // Latch delays.
        for (const Block* b : order) {
            if (b->type() != BlockType::UnitDelay) continue;
            std::string state =
                "state_" + tc.fn_name + "_" + sanitize_identifier(b->name());
            w.line(state + " = " + input_expr(*b, 1) + ";");
        }
        w.close();
        w.blank();
    }

    std::string cpu_file(const Block& cpu) const {
        CodeWriter w;
        w.line("/* Generated by uml-hcg CAAM code generator — do not edit. */");
        w.line("#include \"uhcg_rt.h\"");
        w.line("#include \"sfunctions.h\"");
        w.blank();
        w.line("extern uhcg_fifo_t uhcg_channels[];");
        w.blank();
        // Delay state (file scope, one per UnitDelay in this CPU's threads).
        for (const ThreadCode& tc : threads_) {
            if (tc.tss->parent()->owner_block() != &cpu) continue;
            for (const Block* b : tc.tss->system()->blocks())
                if (b->type() == BlockType::UnitDelay)
                    w.line("static double state_" + tc.fn_name + "_" +
                           sanitize_identifier(b->name()) + " = " +
                           b->parameter_or("InitialCondition", "0.0") + ";");
        }
        w.blank();
        for (const ThreadCode& tc : threads_) {
            if (tc.tss->parent()->owner_block() != &cpu) continue;
            emit_thread(w, tc);
        }
        w.line("void " + cpu_fn_.at(&cpu) + "(void)");
        w.open("{");
        for (const ThreadCode& tc : threads_)
            if (tc.tss->parent()->owner_block() == &cpu)
                w.line(tc.fn_name + "();");
        w.close();
        return w.take();
    }

    std::string main_file() const {
        CodeWriter w;
        w.line("/* Generated by uml-hcg CAAM code generator — do not edit. */");
        w.line("#include <stdio.h>");
        w.line("#include \"uhcg_rt.h\"");
        w.blank();
        w.line("uhcg_fifo_t uhcg_channels[" +
               std::to_string(std::max<std::size_t>(1, channels_.size())) +
               "] = {0};");
        w.line("double uhcg_dstate[" +
               std::to_string(std::max<std::size_t>(1, delays_.size())) +
               "] = {0};");
        w.line("double uhcg_dpend[" +
               std::to_string(std::max<std::size_t>(1, delays_.size())) +
               "] = {0};");
        w.blank();
        w.line("/* Default environment: inputs read 0, outputs print. */");
        w.open("double uhcg_env_read(const char* var) {");
        w.line("(void)var;");
        w.line("return 0.0;");
        w.close();
        w.open("void uhcg_env_write(const char* var, double value) {");
        w.line("printf(\"%s = %f\\n\", var, value);");
        w.close();
        w.blank();
        for (const Block* cpu : simulink::cpu_subsystems(*model_))
            w.line("void " + cpu_fn_.at(cpu) + "(void);");
        w.blank();
        auto steps = static_cast<long>(model_->stop_time / model_->fixed_step);
        w.line("int main(void)");
        w.open("{");
        w.open("for (long k = 0; k < " + std::to_string(std::max(1L, steps)) +
               "; ++k) {");
        for (const Block* cpu : simulink::cpu_subsystems(*model_))
            w.line(cpu_fn_.at(cpu) + "();");
        // Latch every boundary temporal barrier after the sweep.
        for (std::size_t i = 0; i < delays_.size(); ++i) {
            const Block* d = delays_[i];
            const Line* into = d->parent()->line_into({const_cast<Block*>(d), 1});
            std::string expr = "0.0";
            if (into) {
                Endpoint src = resolve_source(*d->parent(), into->source());
                switch (src.kind) {
                    case Endpoint::Channel:
                        expr = "uhcg_fifo_read(" + channel_ref(*src.channel) + ")";
                        break;
                    case Endpoint::Delay:
                        expr = "uhcg_dstate[" + std::to_string(src.delay) + "]";
                        break;
                    case Endpoint::Env:
                        // Fed by a thread/CPU output: the producer stored the
                        // pending value... or a system input.
                        expr = "uhcg_env_read(\"" + src.var + "\")";
                        break;
                }
            }
            // Thread-output-fed delays use their pending slot instead.
            if (delay_fed_by_thread_.count(d) != 0)
                expr = "uhcg_dpend[" + std::to_string(i) + "]";
            w.line("uhcg_dstate[" + std::to_string(i) + "] = " + expr + ";");
        }
        w.close();
        w.line("return 0;");
        w.close();
        return w.take();
    }

    const simulink::Model* model_;
    std::vector<const Block*> channels_;
    std::map<const Block*, std::size_t> channel_index_;
    std::vector<const Block*> delays_;
    std::map<const Block*, std::size_t> delay_index_;
    std::set<const Block*> delay_fed_by_thread_;
    std::vector<ThreadCode> threads_;
    /// The program's global step functions: one per CPU, one per thread.
    IdentifierTable symbols_;
    std::map<const Block*, std::string> cpu_fn_;
};

}  // namespace

GeneratedProgram generate_c_program(const simulink::Model& model) {
    return Generator(model).run();
}

}  // namespace uhcg::codegen
