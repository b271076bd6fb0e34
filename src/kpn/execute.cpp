#include "kpn/execute.hpp"

#include <algorithm>
#include <sstream>

#include "obs/obs.hpp"

namespace uhcg::kpn {

void KernelRegistry::register_kernel(std::string name, Kernel kernel,
                                     std::size_t state_size) {
    entries_[std::move(name)] = {std::move(kernel), state_size};
}

const KernelRegistry::Entry* KernelRegistry::find(
    const std::string& name) const {
    auto it = entries_.find(name);
    return it == entries_.end() ? nullptr : &it->second;
}

const Kernel& KernelRegistry::kernel(const std::string& name) const {
    const Entry* entry = find(name);
    if (!entry)
        throw std::runtime_error("no kernel registered for '" + name + "'");
    return entry->kernel;
}

std::size_t KernelRegistry::state_size(const std::string& name) const {
    const Entry* entry = find(name);
    return entry ? entry->state_size : 0;
}

ReadBlockedError::ReadBlockedError(std::vector<std::string> blocked,
                                   std::vector<ChannelState> channels)
    : std::runtime_error([&blocked] {
          std::ostringstream msg;
          msg << "KPN read-blocked — no process can fire; blocked:";
          for (const auto& p : blocked) msg << ' ' << p;
          msg << " (cyclic network without initial tokens?)";
          return msg.str();
      }()),
      blocked_(std::move(blocked)),
      channels_(std::move(channels)) {}

Executor::Executor(const Network& network, const KernelRegistry& registry)
    : network_(&network), registry_(&registry) {
    auto problems = network.check();
    if (!problems.empty()) {
        // Report every problem, not just the first: a malformed network
        // usually has several, and refixing one per run wastes cycles.
        std::ostringstream msg;
        msg << "malformed KPN (" << problems.size() << " problem(s)):";
        for (const auto& p : problems) msg << "\n  " << p;
        throw std::runtime_error(msg.str());
    }
    kernels_.reserve(network.processes().size());
    for (const Process* p : network.processes()) {
        const KernelRegistry::Entry* entry = registry.find(p->kernel());
        if (!entry)
            throw std::runtime_error("process '" + p->name() +
                                     "' needs unregistered kernel '" +
                                     p->kernel() + "'");
        kernels_.push_back(entry);
    }
}

void Executor::set_input(const std::string& var,
                         std::function<double(std::size_t)> signal) {
    inputs_[var] = std::move(signal);
}

KpnResult Executor::run(std::size_t rounds) {
    return run_impl(rounds, nullptr, {});
}

KpnResult Executor::run(std::size_t rounds, diag::DiagnosticEngine& engine,
                        const WatchdogBudget& budget) {
    return run_impl(rounds, &engine, budget);
}

KpnResult Executor::run_impl(std::size_t rounds, diag::DiagnosticEngine* engine,
                             const WatchdogBudget& budget) {
    obs::ObsSpan span("kpn.run");
    const auto processes = network_->processes();
    const auto& channels = network_->channels();
    const auto& network_inputs = network_->network_inputs();
    constexpr std::size_t kNone = static_cast<std::size_t>(-1);

    // Dense process ids; per process, its input ports are slots
    // [in_begin[i], in_begin[i+1]) and its output ports slots
    // [out_begin[i], out_begin[i+1]) of flat per-port arrays.
    std::unordered_map<const Process*, std::size_t> id;
    std::vector<std::size_t> in_begin{0}, out_begin{0};
    for (std::size_t i = 0; i < processes.size(); ++i) {
        id.emplace(processes[i], i);
        in_begin.push_back(in_begin.back() + processes[i]->input_count());
        out_begin.push_back(out_begin.back() + processes[i]->output_count());
    }
    auto slot_of = [&](const Process* p, std::size_t port, bool input) {
        auto it = id.find(p);
        if (it == id.end() || port >= (input ? p->input_count() : p->output_count()))
            return kNone;
        return (input ? in_begin : out_begin)[it->second] + port;
    };

    // Queues: one per channel (seeded with initial tokens, value 0.0),
    // then one per network input. Each input slot reads exactly one queue
    // (Network::check); queue ids below channels.size() are channels.
    std::vector<std::deque<double>> queues(channels.size() + network_inputs.size());
    std::vector<std::size_t> source(in_begin.back(), kNone);
    for (std::size_t c = 0; c < channels.size(); ++c) {
        queues[c].resize(channels[c].initial_tokens, 0.0);
        std::size_t slot = slot_of(channels[c].consumer, channels[c].consumer_port, true);
        if (slot != kNone) source[slot] = c;
    }
    // Per network input: its queue (kNone when it feeds no port) and its
    // bound signal (nullptr feeds 0.0).
    std::vector<std::size_t> env_queue(network_inputs.size(), kNone);
    std::vector<const std::function<double(std::size_t)>*> signal(
        network_inputs.size(), nullptr);
    for (std::size_t k = 0; k < network_inputs.size(); ++k) {
        const NetworkPort& p = network_inputs[k];
        if (std::size_t slot = slot_of(p.process, p.port, true); slot != kNone)
            source[slot] = env_queue[k] = channels.size() + k;
        if (auto it = inputs_.find(p.variable); it != inputs_.end())
            signal[k] = &it->second;
    }

    // Per output slot: the channels it fans out to (slots
    // [fan_begin[o], fan_begin[o+1]) of `fan`), and whether it is a sink —
    // a network output or unconnected — whose values land in
    // result.outputs under the port name (entry bound on first use).
    std::vector<std::size_t> fan_begin(out_begin.back() + 1, 0), fan;
    std::vector<std::size_t> out_slot(channels.size());
    for (std::size_t c = 0; c < channels.size(); ++c) {
        out_slot[c] = slot_of(channels[c].producer, channels[c].producer_port, false);
        if (out_slot[c] != kNone) ++fan_begin[out_slot[c] + 1];
    }
    for (std::size_t o = 0; o < out_begin.back(); ++o) fan_begin[o + 1] += fan_begin[o];
    fan.resize(fan_begin.back());
    {
        std::vector<std::size_t> next(fan_begin.begin(), fan_begin.end() - 1);
        for (std::size_t c = 0; c < channels.size(); ++c)
            if (out_slot[c] != kNone) fan[next[out_slot[c]]++] = c;
    }
    std::vector<char> is_sink(out_begin.back(), 0);
    for (std::size_t o = 0; o < out_begin.back(); ++o)
        is_sink[o] = fan_begin[o] == fan_begin[o + 1];
    for (const NetworkPort& p : network_->network_outputs())
        if (std::size_t slot = slot_of(p.process, p.port, false); slot != kNone)
            is_sink[slot] = 1;
    std::vector<std::vector<double>*> sink(out_begin.back(), nullptr);

    std::vector<std::vector<double>> state(processes.size());
    for (std::size_t i = 0; i < processes.size(); ++i)
        state[i].assign(kernels_[i]->state_size, 0.0);

    KpnResult result;
    // Exact work (input ports checked plus tokens moved) and firings go to
    // their counters once per run, on every exit path.
    std::uint64_t visits = 0;
    auto count_work = [&] {
        static obs::Counter& visit_counter = obs::counter("kpn.run.visits");
        static obs::Counter& firing_counter = obs::counter("kpn.firings");
        visit_counter.add(visits);
        firing_counter.add(result.firings);
    };
    // Tokens moved per channel, folded into channel_tokens by variable
    // when the run returns.
    std::vector<std::size_t> moved(channels.size(), 0);
    auto finish = [&] {
        count_work();
        for (std::size_t c = 0; c < channels.size(); ++c)
            if (moved[c]) result.channel_tokens[channels[c].variable] += moved[c];
        return std::move(result);
    };
    auto snapshot_channels = [&] {
        std::vector<ChannelState> states;
        states.reserve(channels.size());
        for (std::size_t c = 0; c < channels.size(); ++c)
            states.push_back({channels[c].variable, channels[c].producer->name(),
                              channels[c].consumer->name(), queues[c].size()});
        return states;
    };

    std::vector<char> fired(processes.size());
    std::vector<double> ins, outs;
    for (std::size_t round = 0; round < rounds; ++round) {
        // Environment delivers one token per network input.
        for (std::size_t k = 0; k < network_inputs.size(); ++k) {
            double value = signal[k] ? (*signal[k])(round) : 0.0;
            if (env_queue[k] != kNone) queues[env_queue[k]].push_back(value);
        }

        std::fill(fired.begin(), fired.end(), 0);
        std::size_t fired_count = 0;
        while (fired_count < processes.size()) {
            bool progress = false;
            for (std::size_t i = 0; i < processes.size(); ++i) {
                if (fired[i]) continue;
                // Blocking-read semantics: fire only when every input has
                // a token available.
                bool ready = true;
                for (std::size_t slot = in_begin[i]; slot < in_begin[i + 1]; ++slot) {
                    ++visits;
                    if (queues[source[slot]].empty()) {
                        ready = false;
                        break;
                    }
                }
                if (!ready) continue;

                ins.resize(in_begin[i + 1] - in_begin[i]);
                for (std::size_t slot = in_begin[i]; slot < in_begin[i + 1]; ++slot) {
                    std::deque<double>& q = queues[source[slot]];
                    ins[slot - in_begin[i]] = q.front();
                    q.pop_front();
                    if (source[slot] < channels.size()) ++moved[source[slot]];
                    ++visits;
                }
                outs.assign(out_begin[i + 1] - out_begin[i], 0.0);
                kernels_[i]->kernel(ins, outs, state[i]);
                // Pushes follow every pop of the firing, so a queue's size
                // after its last push is its size at the end of the firing:
                // tracking pushes yields the per-firing maximum.
                for (std::size_t o = out_begin[i]; o < out_begin[i + 1]; ++o) {
                    const double value = outs[o - out_begin[i]];
                    for (std::size_t f = fan_begin[o]; f < fan_begin[o + 1]; ++f) {
                        std::deque<double>& q = queues[fan[f]];
                        q.push_back(value);
                        result.max_queue_depth =
                            std::max(result.max_queue_depth, q.size());
                        ++visits;
                    }
                    if (is_sink[o]) {
                        if (!sink[o])
                            sink[o] = &result.outputs[processes[i]->output_name(
                                o - out_begin[i])];
                        sink[o]->push_back(value);
                    }
                }
                fired[i] = 1;
                ++fired_count;
                ++result.firings;
                progress = true;
                // Seeded queues no firing has pushed to yet count from the
                // end of the first firing on.
                if (result.firings == 1)
                    for (std::size_t c = 0; c < channels.size(); ++c)
                        result.max_queue_depth =
                            std::max(result.max_queue_depth, queues[c].size());
                if (budget.max_firings && result.firings >= budget.max_firings &&
                    engine) {
                    // Livelock watchdog: the budget bounds total work even
                    // if the schedule keeps finding fireable processes.
                    result.budget_exhausted = true;
                    result.channel_states = snapshot_channels();
                    engine->report(
                        diag::Severity::Error, diag::codes::kKpnWatchdog,
                        "KPN execution exceeded the firing budget (" +
                            std::to_string(budget.max_firings) +
                            " firings) — stopping after round " +
                            std::to_string(result.rounds),
                        {}, {"network '" + network_->name() + "'"});
                    return finish();
                }
            }
            if (!progress) {
                std::vector<std::string> blocked;
                for (std::size_t i = 0; i < processes.size(); ++i)
                    if (!fired[i]) blocked.push_back(processes[i]->name());
                std::vector<ChannelState> states = snapshot_channels();
                if (!engine) {
                    count_work();
                    throw ReadBlockedError(std::move(blocked), std::move(states));
                }
                // Watchdogged mode: degrade to a structured diagnostic and
                // hand back the partial result.
                result.deadlocked = true;
                result.blocked = blocked;
                result.channel_states = states;
                std::vector<std::string> notes;
                {
                    std::ostringstream b;
                    b << "blocked process(es):";
                    for (const auto& p : blocked) b << ' ' << p;
                    notes.push_back(b.str());
                }
                for (const ChannelState& cs : states)
                    notes.push_back("channel '" + cs.variable + "' (" +
                                    cs.producer + " -> " + cs.consumer + "): " +
                                    std::to_string(cs.tokens) + " token(s)");
                notes.push_back("cyclic network without initial tokens?");
                engine->report(diag::Severity::Error, diag::codes::kKpnReadBlocked,
                               "KPN read-blocked in round " +
                                   std::to_string(result.rounds + 1) + " — " +
                                   std::to_string(blocked.size()) +
                                   " process(es) cannot fire",
                               {}, std::move(notes));
                return finish();
            }
        }
        ++result.rounds;
    }
    return finish();
}

}  // namespace uhcg::kpn
