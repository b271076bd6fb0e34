#include "kpn/from_uml.hpp"

#include <map>

#include "kpn/generic.hpp"
#include "uml/generic.hpp"

namespace uhcg::kpn {
namespace {

using model::Object;
using model::ObjectModel;

/// A mapped process and its port index per (direction, variable).
struct MappedProcess {
    Object* process = nullptr;
    std::map<std::string, std::int64_t> inputs, outputs;

    std::int64_t port(const std::string& var, bool is_input) const {
        const auto& ports = is_input ? inputs : outputs;
        auto it = ports.find(var);
        return it == ports.end() ? -1 : it->second;
    }
};

}  // namespace

KpnMappingOutput map_to_kpn(const uml::Model& model,
                            const KpnMappingOptions& options) {
    return map_to_kpn(model, core::analyze_communication(model), options);
}

KpnMappingOutput map_to_kpn(const uml::Model& model, const core::CommModel& comm,
                            const KpnMappingOptions& options) {
    ObjectModel source = uml::to_generic(model);

    struct State {
        const uml::Model* um;
        const core::CommModel* comm;
        std::vector<const core::Channel*> links;
        /// Each thread's links (as producer or consumer), in link order.
        std::map<const uml::ObjectInstance*, std::vector<const core::Channel*>>
            thread_links;
        Object* network = nullptr;
        std::map<const uml::ObjectInstance*, MappedProcess> processes;
        std::size_t counter = 0;
    };
    auto st = std::make_shared<State>();
    st->um = &model;
    st->comm = &comm;
    st->links = comm.links();
    for (const core::Channel* l : st->links) {
        st->thread_links[l->consumer].push_back(l);
        if (l->producer != l->consumer) st->thread_links[l->producer].push_back(l);
    }

    transform::Engine engine(kpn_metamodel());

    // Rule 1: Model → Network.
    engine.add_rule({"Model2Network", "Model", nullptr,
                     [st](transform::Context& ctx, const Object& src) {
                         Object& n = ctx.create(src, "Model2Network", "Network",
                                                "kpn." + src.get_string("name"));
                         n.set("name", src.get_string("name"));
                         st->network = &n;
                     }});

    // Rule 2: <<SASchedRes>> → Process. Ports come from the communication
    // analysis: every distinct received/produced variable plus <<IO>>
    // accesses; the thread's internal block layer abstracts into the
    // kernel.
    engine.add_rule(
        {"Thread2Process", "ObjectInstance",
         [](const Object& o) { return o.get_bool("isThread"); },
         [st](transform::Context& ctx, const Object& src) {
             const uml::ObjectInstance* typed =
                 st->um->find_object(src.get_string("name"));
             if (!typed) return;
             Object& p = ctx.create(src, "Thread2Process", "Process",
                                    "proc." + typed->name());
             p.set("name", typed->name());
             p.set("kernel", typed->name());
             MappedProcess& mapped = st->processes[typed] = {&p, {}, {}};
             std::int64_t in_index = 0, out_index = 0;
             auto add_port = [&](const std::string& var, bool is_input) {
                 std::int64_t& index = is_input ? in_index : out_index;
                 if (!(is_input ? mapped.inputs : mapped.outputs)
                          .emplace(var, index)
                          .second)
                     return;
                 Object& port = ctx.target().create(
                     "Port", p.id() + (is_input ? ".in" : ".out") +
                                 std::to_string(st->counter++));
                 port.set("index", index++);
                 port.set("isInput", is_input);
                 port.set("var", var);
                 p.add_ref("ports", port);
             };
             if (auto it = st->thread_links.find(typed);
                 it != st->thread_links.end())
                 for (const core::Channel* l : it->second) {
                     if (l->consumer == typed) add_port(l->variable, true);
                     if (l->producer == typed) add_port(l->variable, false);
                 }
             for (const core::IoAccess* a : st->comm->io_inputs(*typed))
                 add_port(a->variable, true);
             for (const core::IoAccess* a : st->comm->io_outputs(*typed))
                 add_port(a->variable, false);
         }});

    // Rule 3: data links → channels; <<IO>> accesses → network ports.
    engine.add_rule(
        {"Links2Channels", "Model", nullptr,
         [st](transform::Context& ctx, const Object& src) {
             std::size_t index = 0;
             for (const core::Channel* l : st->links) {
                 const MappedProcess& producer = st->processes.at(l->producer);
                 const MappedProcess& consumer = st->processes.at(l->consumer);
                 Object& c = ctx.create(src, "Links2Channels", "Channel",
                                        "chan." + std::to_string(index++));
                 c.set("variable", l->variable);
                 c.set("producerPort", producer.port(l->variable, false));
                 c.set("consumerPort", consumer.port(l->variable, true));
                 c.set_ref("producer", producer.process);
                 c.set_ref("consumer", consumer.process);
                 st->network->add_ref("channels", c);
             }
             std::size_t nport = 0;
             for (const core::IoAccess& a : st->comm->io_accesses()) {
                 auto it = st->processes.find(a.thread);
                 if (it == st->processes.end()) continue;
                 Object& p = ctx.create(src, "Links2Channels", "NetworkPort",
                                        "nport." + std::to_string(nport++));
                 p.set("var", a.variable);
                 p.set("isInput", a.is_input);
                 p.set("port", it->second.port(a.variable, a.is_input));
                 p.set_ref("process", it->second.process);
                 st->network->add_ref("ports", p);
             }
             // Deterministic network order: model thread declaration order
             // (pointer-keyed map order would vary run to run, changing
             // DFS seeds and diffs).
             for (const uml::ObjectInstance* t : st->um->threads()) {
                 auto it = st->processes.find(t);
                 if (it != st->processes.end())
                     st->network->add_ref("processes", *it->second.process);
             }
         }});

    KpnMappingOutput out{Network("unset"), {}, 0, {}};
    ObjectModel generic = engine.run(source, nullptr, &out.stats);
    out.network = from_generic(generic);

    // §4.2.2 analogue: seed initial tokens on cycle-breaking channels of
    // the process graph (DFS back edges). Each producer's channels are
    // visited in channel order.
    if (options.auto_initial_tokens) {
        auto procs = out.network.processes();
        std::map<const Process*, std::size_t> index;
        for (std::size_t i = 0; i < procs.size(); ++i) index[procs[i]] = i;
        std::vector<ChannelDecl>& channels = out.network.channels();
        std::vector<std::vector<ChannelDecl*>> outgoing(procs.size());
        for (ChannelDecl& c : channels)
            outgoing[index.at(c.producer)].push_back(&c);
        enum Color { White, Gray, Black };
        std::vector<Color> color(procs.size(), White);
        auto dfs = [&](auto&& self, std::size_t p) -> void {
            color[p] = Gray;
            for (ChannelDecl* c : outgoing[p]) {
                std::size_t q = index.at(c->consumer);
                if (color[q] == Gray) {
                    if (c->initial_tokens == 0) {
                        c->initial_tokens = 1;  // break the cycle
                        ++out.initial_tokens_inserted;
                    }
                } else if (color[q] == White) {
                    self(self, q);
                }
            }
            color[p] = Black;
        };
        for (std::size_t p = 0; p < procs.size(); ++p)
            if (color[p] == White) dfs(dfs, p);
    }

    auto problems = out.network.check();
    for (const std::string& p : problems) out.warnings.push_back("kpn: " + p);
    return out;
}

}  // namespace uhcg::kpn
