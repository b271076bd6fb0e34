#include "core/mapping.hpp"

#include <map>
#include <set>
#include <stdexcept>

#include "simulink/generic.hpp"
#include "simulink/library.hpp"
#include "transform/text.hpp"
#include "uml/generic.hpp"

namespace uhcg::core {
namespace {

using model::Object;
using model::ObjectModel;

/// Where a value is available inside a thread layer: a block output port.
struct PortLoc {
    Object* block = nullptr;
    int port = 1;
};

/// Helper for building generic CAAM graphs (ids unique model-wide, block
/// names unique per system).
class Gen {
public:
    explicit Gen(ObjectModel& m) : m_(&m) {}

    Object& block(Object& sys, const std::string& hint, const std::string& type,
                  int inputs, int outputs, const std::string& role = "None") {
        std::string name = unique_name(sys, hint);
        Object& b = m_->create("Block", fresh_id("b." + name));
        b.set("name", name);
        b.set("type", type);
        b.set("role", role);
        b.set("inputs", static_cast<std::int64_t>(inputs));
        b.set("outputs", static_cast<std::int64_t>(outputs));
        sys.add_ref("blocks", b);
        return b;
    }

    Object& subsystem(Object& sys, const std::string& hint,
                      const std::string& role) {
        Object& b = block(sys, hint, "SubSystem", 0, 0, role);
        Object& nested = m_->create("System", fresh_id("s." + b.get_string("name")));
        nested.set("name", b.get_string("name"));
        b.add_ref("system", nested);
        return b;
    }

    static Object& system_of(Object& subsystem_block) {
        Object* sys = subsystem_block.ref("system");
        if (!sys) throw std::logic_error("subsystem block without nested system");
        return *sys;
    }

    void set_param(Object& block, const std::string& key, const std::string& value) {
        Object& p = m_->create("Param", fresh_id("p"));
        p.set("key", key);
        p.set("value", value);
        block.add_ref("params", p);
    }

    void name_port(Object& block, int index, bool is_input,
                   const std::string& name) {
        Object& pn = m_->create("PortName", fresh_id("pn"));
        pn.set("index", static_cast<std::int64_t>(index));
        pn.set("isInput", is_input);
        pn.set("name", name);
        block.add_ref("portNames", pn);
    }

    int grow_inputs(Object& block) {
        auto n = block.get_int("inputs") + 1;
        block.set("inputs", n);
        return static_cast<int>(n);
    }

    int grow_outputs(Object& block) {
        auto n = block.get_int("outputs") + 1;
        block.set("outputs", n);
        return static_cast<int>(n);
    }

    void connect(Object& sys, Object& src, int src_port, Object& dst, int dst_port,
                 const std::string& signal = {}) {
        Object& line = m_->create("Line", fresh_id("l"));
        line.set("name", signal);
        Object& s = m_->create("Endpoint", fresh_id("e"));
        s.set("port", static_cast<std::int64_t>(src_port));
        s.set_ref("block", &src);
        line.add_ref("src", s);
        Object& d = m_->create("Endpoint", fresh_id("e"));
        d.set("port", static_cast<std::int64_t>(dst_port));
        d.set_ref("block", &dst);
        line.add_ref("dsts", d);
        sys.add_ref("lines", line);
    }

private:
    std::string fresh_id(const std::string& hint) {
        return hint + "#" + std::to_string(counter_++);
    }

    std::string unique_name(Object& sys, const std::string& hint) {
        auto& used = names_[&sys];
        auto [it, inserted] = used.emplace(hint, 0);
        if (inserted) return hint;
        return hint + "_" + std::to_string(++it->second);
    }

    ObjectModel* m_;
    std::size_t counter_ = 0;
    std::map<Object*, std::map<std::string, int>> names_;
};

/// Mutable per-thread mapping state.
struct ThreadLayer {
    Object* tss = nullptr;   // Thread-SS block
    Object* tsys = nullptr;  // its nested system
    std::map<std::string, PortLoc> defs;         // var → producing port
    std::map<std::string, Object*> inports;      // var → Inport block
    std::map<std::string, Object*> outports;     // var → Outport block
    const uml::ObjectInstance* typed = nullptr;  // typed thread (comm lookups)
};

/// Everything the rule bodies share.
struct MappingState {
    const uml::Model* um = nullptr;
    const CommModel* comm = nullptr;
    const Allocation* alloc = nullptr;
    std::unique_ptr<Gen> gen;
    Object* root_sys = nullptr;
    std::vector<Object*> cpu_blocks;  // index = processor index
    std::map<const Object*, ThreadLayer> layers;  // generic thread → layer
    std::vector<std::string> warnings;

    const uml::ObjectInstance* typed_thread(const Object& generic_thread) const {
        return um->find_object(generic_thread.get_string("name"));
    }

    ThreadLayer* layer_of(transform::Context& ctx, const Object& generic_thread) {
        auto it = layers.find(&generic_thread);
        if (it != layers.end()) return &it->second;
        (void)ctx;
        return nullptr;
    }
};

/// §4.1 boundary-port synthesis: Thread-SS Inport for an incoming value.
PortLoc thread_input(MappingState& st, ThreadLayer& layer, const std::string& var,
                     const std::string& kind) {
    if (auto it = layer.inports.find(var); it != layer.inports.end())
        return {it->second, 1};
    Gen& g = *st.gen;
    Object& in = g.block(*layer.tsys, var, "Inport", 0, 1);
    int index = g.grow_inputs(*layer.tss);
    g.set_param(in, "Port", std::to_string(index));
    g.set_param(in, "Var", var);
    g.set_param(in, "CommKind", kind);
    g.name_port(*layer.tss, index, true, var);
    layer.inports[var] = &in;
    layer.defs[var] = {&in, 1};
    return {&in, 1};
}

/// Thread-SS Outport for an outgoing value, wired from its definition.
/// A variable can leave a thread through several kinds at once (e.g. sent
/// to a peer thread *and* written to an <<IO>> device); each kind gets its
/// own boundary port — the CPU/system-level fan-out happens above.
void thread_output(MappingState& st, ThreadLayer& layer, const std::string& var,
                   const std::string& kind, PortLoc source) {
    std::string key = var + "|" + kind;
    if (layer.outports.count(key) != 0) return;  // fan-out resolved upstream
    Gen& g = *st.gen;
    Object& out = g.block(*layer.tsys, var + "_out", "Outport", 1, 0);
    int index = g.grow_outputs(*layer.tss);
    g.set_param(out, "Port", std::to_string(index));
    g.set_param(out, "Var", var);
    g.set_param(out, "CommKind", kind);
    // Port names must stay unique per block because channel inference looks
    // the producer port up by variable name: the channel port owns the
    // plain name, other kinds are suffixed.
    g.name_port(*layer.tss, index, false,
                kind == kCommKindChannel ? var : var + "_" + kind);
    g.connect(*layer.tsys, *source.block, source.port, out, 1, var);
    layer.outports[key] = &out;
}

/// Resolves a value name inside a thread: an existing definition, a numeric
/// literal (materialized as a Constant block), or — when neither — a fresh
/// Thread-SS input whose kind is derived from the communication analysis.
PortLoc resolve_value(MappingState& st, ThreadLayer& layer,
                      const std::string& var) {
    if (auto it = layer.defs.find(var); it != layer.defs.end()) return it->second;
    Gen& g = *st.gen;
    if (transform::is_numeric_literal(var)) {
        Object& c = g.block(*layer.tsys, "const_" + var, "Constant", 0, 1);
        g.set_param(c, "Value", var);
        layer.defs[var] = {&c, 1};
        return {&c, 1};
    }
    std::string kind = kCommKindSystem;
    if (st.comm->receives(*layer.typed, var)) {
        kind = kCommKindChannel;
    } else {
        for (const IoAccess* a : st.comm->io_inputs(*layer.typed)) {
            if (a->variable == var) {
                kind = kCommKindIo;
                break;
            }
        }
    }
    return thread_input(st, layer, var, kind);
}

// ---------------------------------------------------------------------------
// Message translation (the body of rule Interaction2Layer)
// ---------------------------------------------------------------------------

/// Call on the special Platform object: pre-defined block or S-function.
void map_platform_call(MappingState& st, ThreadLayer& layer, const Object& msg) {
    Gen& g = *st.gen;
    const std::string& op = msg.get_string("operation");
    const auto& args = msg.refs("arguments");
    const std::string& result = msg.get_string("result");

    auto entry = simulink::lookup_platform_method(op);
    std::string type = entry ? std::string(to_string(entry->type)) : "S-Function";
    int inputs = static_cast<int>(args.size());
    int outputs = result.empty() ? (entry ? entry->outputs : 0) : 1;
    Object& b = g.block(*layer.tsys, op, type, inputs, outputs);
    if (!entry) g.set_param(b, "FunctionName", op);
    if (entry && op == "sub") g.set_param(b, "Inputs", "+-");

    int port = 1;
    for (const Object* a : args) {
        const std::string& var = a->get_string("name");
        PortLoc src = resolve_value(st, layer, var);
        g.connect(*layer.tsys, *src.block, src.port, b, port, var);
        ++port;
    }
    if (!result.empty()) {
        g.name_port(b, 1, false, result);
        layer.defs[result] = {&b, 1};
    }
}

/// Call on a passive object: always an S-function (§4.1), shaped by the
/// declared operation signature when one exists.
void map_passive_call(MappingState& st, ThreadLayer& layer, const Object& msg,
                      const Object& receiver) {
    Gen& g = *st.gen;
    const std::string& op_name = msg.get_string("operation");
    const auto& args = msg.refs("arguments");
    const std::string& result = msg.get_string("result");

    // Find the declared operation on the receiver's classifier, if any.
    const Object* decl = nullptr;
    if (const Object* cls = receiver.ref("classifier")) {
        for (const Object* o : cls->refs("operations"))
            if (o->get_string("name") == op_name) decl = o;
    }

    if (!decl) {
        // Undeclared: treat like an S-function with args in, result out.
        Object& b = g.block(*layer.tsys, op_name, "S-Function",
                            static_cast<int>(args.size()), result.empty() ? 0 : 1);
        g.set_param(b, "FunctionName", op_name);
        int port = 1;
        for (const Object* a : args) {
            const std::string& var = a->get_string("name");
            PortLoc src = resolve_value(st, layer, var);
            g.connect(*layer.tsys, *src.block, src.port, b, port++, var);
        }
        if (!result.empty()) {
            g.name_port(b, 1, false, result);
            layer.defs[result] = {&b, 1};
        }
        return;
    }

    // Count ports from the signature: in/inout → inputs; out/inout/return →
    // outputs.
    int inputs = 0, outputs = 0;
    for (const Object* p : decl->refs("parameters")) {
        const std::string& dir = p->get_string("direction");
        if (dir == "in" || dir == "inout") ++inputs;
        if (dir == "out" || dir == "inout" || dir == "return") ++outputs;
    }
    Object& b = g.block(*layer.tsys, op_name, "S-Function", inputs, outputs);
    g.set_param(b, "FunctionName", op_name);
    if (!decl->get_string("body").empty())
        g.set_param(b, "Source", decl->get_string("body"));

    // Pair message arguments with non-return parameters positionally.
    int in_port = 1, out_port = 1;
    std::size_t arg_index = 0;
    for (const Object* p : decl->refs("parameters")) {
        const std::string& dir = p->get_string("direction");
        const std::string& formal = p->get_string("name");
        if (dir == "return") {
            g.name_port(b, out_port, false, result.empty() ? formal : result);
            if (!result.empty()) layer.defs[result] = {&b, out_port};
            ++out_port;
            continue;
        }
        std::string actual;
        if (arg_index < args.size())
            actual = args[arg_index]->get_string("name");
        ++arg_index;
        if (dir == "in" || dir == "inout") {
            g.name_port(b, in_port, true, formal);
            if (!actual.empty()) {
                PortLoc src = resolve_value(st, layer, actual);
                g.connect(*layer.tsys, *src.block, src.port, b, in_port, actual);
            } else {
                st.warnings.push_back("call to " + op_name +
                                      ": missing argument for parameter '" +
                                      formal + "'");
            }
            ++in_port;
        }
        if (dir == "out" || dir == "inout") {
            std::string bound = actual.empty() ? formal : actual;
            g.name_port(b, out_port, false, bound);
            layer.defs[bound] = {&b, out_port};
            ++out_port;
        }
    }
}

void map_message(MappingState& st, transform::Context& ctx, const Object& msg) {
    const Object* from_ll = msg.ref("from");
    const Object* to_ll = msg.ref("to");
    if (!from_ll || !to_ll) return;
    const Object* sender = from_ll->ref("represents");
    const Object* receiver = to_ll->ref("represents");
    if (!sender || !receiver) return;
    if (!sender->get_bool("isThread")) return;  // only threads have behaviour

    ThreadLayer* layer = st.layer_of(ctx, *sender);
    if (!layer) {
        st.warnings.push_back("message from unallocated thread '" +
                              sender->get_string("name") + "' skipped");
        return;
    }

    const std::string& op = msg.get_string("operation");
    const std::string& result = msg.get_string("result");

    if (receiver->get_bool("isThread")) {
        if (receiver == sender) {
            st.warnings.push_back("self message '" + op + "' on thread '" +
                                  sender->get_string("name") + "' ignored");
            return;
        }
        if (op.rfind("Set", 0) == 0) {
            // Send: every argument becomes an outgoing channel value.
            for (const Object* a : msg.refs("arguments")) {
                const std::string& var = a->get_string("name");
                PortLoc src = resolve_value(st, *layer, var);
                thread_output(st, *layer, var, kCommKindChannel, src);
            }
        } else if (op.rfind("Get", 0) == 0 && !result.empty()) {
            // Receive: the bound result arrives over a channel.
            thread_input(st, *layer, result, kCommKindChannel);
        } else {
            st.warnings.push_back("inter-thread message '" + op +
                                  "' ignores the Set/Get convention");
        }
        return;
    }

    if (receiver->get_bool("isIO")) {
        if (op.rfind("get", 0) == 0 && !result.empty()) {
            thread_input(st, *layer, result, kCommKindIo);
        } else if (op.rfind("set", 0) == 0) {
            for (const Object* a : msg.refs("arguments")) {
                const std::string& var = a->get_string("name");
                PortLoc src = resolve_value(st, *layer, var);
                thread_output(st, *layer, var, kCommKindIo, src);
            }
        } else {
            st.warnings.push_back("<<IO>> message '" + op +
                                  "' ignores the get/set convention");
        }
        return;
    }

    if (receiver->get_string("name") == "Platform") {
        map_platform_call(st, *layer, msg);
    } else {
        map_passive_call(st, *layer, msg, *receiver);
    }
}

}  // namespace

MappingOutput run_mapping(const uml::Model& model, const CommModel& comm,
                          const Allocation& allocation) {
    model::ObjectModel source = uml::to_generic(model);

    auto state = std::make_shared<MappingState>();
    state->um = &model;
    state->comm = &comm;
    state->alloc = &allocation;

    transform::Engine engine(simulink::caam_metamodel());

    // Rule 1: Model → CAAM model, root system, one CPU-SS per processor.
    engine.add_rule(
        {"Model2Caam", "Model", nullptr,
         [state](transform::Context& ctx, const Object& src) {
             state->gen = std::make_unique<Gen>(ctx.target());
             Object& m = ctx.create(src, "Model2Caam", "Model",
                                    "caam." + src.get_string("name"));
             m.set("name", src.get_string("name"));
             Object& root = ctx.target().create("System", "caam.root");
             root.set("name", src.get_string("name"));
             m.add_ref("system", root);
             state->root_sys = &root;
             for (std::size_t p = 0; p < state->alloc->processor_count(); ++p) {
                 Object& cpu = state->gen->subsystem(
                     root, state->alloc->processor_name(p), "CPU-SS");
                 state->cpu_blocks.push_back(&cpu);
             }
         }});

    // Rule 2: <<SASchedRes>> object → Thread-SS inside its CPU-SS.
    engine.add_rule(
        {"Thread2ThreadSS", "ObjectInstance",
         [](const Object& o) { return o.get_bool("isThread"); },
         [state](transform::Context& ctx, const Object& src) {
             const uml::ObjectInstance* typed = state->typed_thread(src);
             if (!typed || !state->alloc->is_assigned(*typed)) {
                 state->warnings.push_back("thread '" + src.get_string("name") +
                                           "' is not allocated; skipped");
                 return;
             }
             std::size_t p = state->alloc->processor_of(*typed);
             Object& cpu_sys = Gen::system_of(*state->cpu_blocks.at(p));
             Object& tss = state->gen->subsystem(cpu_sys, src.get_string("name"),
                                                 "Thread-SS");
             ctx.trace().record(src, "Thread2ThreadSS", tss);
             ThreadLayer layer;
             layer.tss = &tss;
             layer.tsys = &Gen::system_of(tss);
             layer.typed = typed;
             state->layers.emplace(&src, std::move(layer));
         }});

    // Rule 3: sequence diagram → thread layer contents.
    engine.add_rule({"Interaction2Layer", "Interaction", nullptr,
                     [state](transform::Context& ctx, const Object& src) {
                         for (const Object* msg : src.refs("messages"))
                             map_message(*state, ctx, *msg);
                     }});

    // Rule 4: producer obligations. A channel created by the *consumer's*
    // Get message obliges the producer to expose the variable through an
    // Outport even though no Set message exists on the producer's side.
    engine.add_rule(
        {"ProducerOutports", "ObjectInstance",
         [](const Object& o) { return o.get_bool("isThread"); },
         [state](transform::Context& ctx, const Object& src) {
             ThreadLayer* layer = state->layer_of(ctx, src);
             if (!layer) return;
             for (const Channel* c : state->comm->outgoing(*layer->typed)) {
                 if (layer->outports.count(c->variable + "|" +
                                           kCommKindChannel) != 0)
                     continue;
                 auto def = layer->defs.find(c->variable);
                 if (def == layer->defs.end()) continue;  // reported later
                 thread_output(*state, *layer, c->variable, kCommKindChannel,
                               def->second);
             }
         }});

    MappingOutput out{model::ObjectModel(simulink::caam_metamodel()), {}, {}};
    transform::Trace trace;
    out.caam = engine.run(source, &trace, &out.stats);

    // Producer obligations: every channel variable must have an outport on
    // its producing thread.
    for (const auto& [generic_thread, layer] : state->layers) {
        std::set<std::string> reported;
        for (const Channel* c : comm.outgoing(*layer.typed)) {
            if (layer.outports.count(c->variable + "|" + kCommKindChannel) == 0 &&
                reported.insert(c->variable).second)
                out.warnings.push_back("thread '" + layer.typed->name() +
                                       "' never produces channel variable '" +
                                       c->variable + "'");
        }
    }
    out.warnings.insert(out.warnings.end(), state->warnings.begin(),
                        state->warnings.end());
    return out;
}

}  // namespace uhcg::core
