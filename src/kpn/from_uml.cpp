#include "kpn/from_uml.hpp"

#include <string_view>
#include <unordered_map>

#include "obs/obs.hpp"

namespace uhcg::kpn {
namespace {

/// A mapped process and its port index per variable, one table per
/// direction. Keys view the CommModel's variable strings.
struct MappedProcess {
    Process* process = nullptr;
    std::unordered_map<std::string_view, std::size_t> inputs, outputs;

    /// Adds the port carrying `var` unless this direction has one.
    void add_port(std::string_view var, bool is_input) {
        auto& ports = is_input ? inputs : outputs;
        if (!ports.emplace(var, ports.size()).second) return;
        if (is_input)
            process->add_input(std::string(var));
        else
            process->add_output(std::string(var));
    }
    std::size_t port(std::string_view var, bool is_input) const {
        return (is_input ? inputs : outputs).at(var);
    }
};

}  // namespace

KpnMappingOutput map_to_kpn(const uml::Model& model,
                            const KpnMappingOptions& options) {
    return map_to_kpn(model, core::analyze_communication(model), options);
}

KpnMappingOutput map_to_kpn(const uml::Model& model, const core::CommModel& comm,
                            const KpnMappingOptions& options) {
    // Links, link-list entries, IO accesses and DFS edges touched; added
    // to the counter once.
    std::size_t visits = 0;
    KpnMappingOutput out{Network(model.name())};

    // One process per <<SASchedRes>> object, in model declaration order
    // (the DFS below seeds from it, so the order fixes the token places).
    const std::vector<uml::ObjectInstance*> threads = model.threads();
    std::unordered_map<const uml::ObjectInstance*, std::size_t> index;
    index.reserve(threads.size());
    std::vector<MappedProcess> processes(threads.size());
    for (std::size_t t = 0; t < threads.size(); ++t) {
        index.emplace(threads[t], t);
        processes[t].process = &out.network.add_process(threads[t]->name());
    }

    // Each thread's links (as producer or consumer), in link order.
    const std::vector<const core::Channel*> links = comm.links();
    std::vector<std::vector<const core::Channel*>> thread_links(threads.size());
    for (const core::Channel* l : links) {
        thread_links[index.at(l->consumer)].push_back(l);
        if (l->producer != l->consumer)
            thread_links[index.at(l->producer)].push_back(l);
    }
    visits += links.size();

    // Ports: every distinct received/produced variable, then the <<IO>>
    // accesses; the thread's internal block layer abstracts into the
    // process kernel.
    for (std::size_t t = 0; t < threads.size(); ++t) {
        const uml::ObjectInstance* thread = threads[t];
        MappedProcess& mapped = processes[t];
        visits += thread_links[t].size();
        for (const core::Channel* l : thread_links[t]) {
            if (l->consumer == thread) mapped.add_port(l->variable, true);
            if (l->producer == thread) mapped.add_port(l->variable, false);
        }
        for (const core::IoAccess* a : comm.io_inputs(*thread))
            mapped.add_port(a->variable, true);
        for (const core::IoAccess* a : comm.io_outputs(*thread))
            mapped.add_port(a->variable, false);
    }

    // Data links become channels; <<IO>> accesses become network ports.
    // `producer_of[i]` is the producing process of channel i.
    std::vector<std::size_t> producer_of;
    producer_of.reserve(links.size());
    for (const core::Channel* l : links) {
        const std::size_t p = index.at(l->producer);
        const MappedProcess& producer = processes[p];
        const MappedProcess& consumer = processes[index.at(l->consumer)];
        out.network.connect(*producer.process, producer.port(l->variable, false),
                            *consumer.process, consumer.port(l->variable, true),
                            l->variable);
        producer_of.push_back(p);
    }
    visits += comm.io_accesses().size();
    for (const core::IoAccess& a : comm.io_accesses()) {
        auto it = index.find(a.thread);
        if (it == index.end()) continue;
        const MappedProcess& mapped = processes[it->second];
        const std::size_t port = mapped.port(a.variable, a.is_input);
        if (a.is_input)
            out.network.add_network_input(*mapped.process, port, a.variable);
        else
            out.network.add_network_output(*mapped.process, port, a.variable);
    }

    // §4.2.2 analogue: seed initial tokens on cycle-breaking channels of
    // the process graph (DFS back edges). Each producer's channels are
    // visited in channel order.
    if (options.auto_initial_tokens) {
        std::vector<ChannelDecl>& channels = out.network.channels();
        std::vector<std::vector<std::size_t>> outgoing(threads.size());
        for (std::size_t c = 0; c < channels.size(); ++c)
            outgoing[producer_of[c]].push_back(c);
        enum Color { White, Gray, Black };
        std::vector<Color> color(threads.size(), White);
        auto dfs = [&](auto&& self, std::size_t p) -> void {
            color[p] = Gray;
            visits += outgoing[p].size();
            for (std::size_t c : outgoing[p]) {
                const std::size_t q = index.at(links[c]->consumer);
                if (color[q] == Gray) {
                    if (channels[c].initial_tokens == 0) {
                        channels[c].initial_tokens = 1;  // break the cycle
                        ++out.initial_tokens_inserted;
                    }
                } else if (color[q] == White) {
                    self(self, q);
                }
            }
            color[p] = Black;
        };
        for (std::size_t p = 0; p < threads.size(); ++p)
            if (color[p] == White) dfs(dfs, p);
    }

    auto problems = out.network.check();
    for (const std::string& p : problems) out.warnings.push_back("kpn: " + p);
    static obs::Counter& visit_counter = obs::counter("kpn.map.visits");
    visit_counter.add(visits);
    return out;
}

}  // namespace uhcg::kpn
