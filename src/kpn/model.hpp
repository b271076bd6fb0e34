// model.hpp — Kahn Process Network metamodel.
//
// §3 promises the transformation approach "can be extended to support
// mappings to other languages, such as UML state diagrams, other FSM-like
// languages, or KPN (Kahn Process Network)". This module delivers the KPN
// target: a network of deterministic processes connected by unbounded
// (here: boundedly-simulated) FIFO channels with blocking reads.
//
// The correspondence with the CAAM target is deliberate and testable:
// threads ↔ processes, inferred data channels ↔ KPN channels, §4.2.2
// UnitDelay barriers ↔ initial tokens on cycle-breaking channels.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace uhcg::kpn {

class Network;

/// One process of the network. Ports are named (the UML variable names);
/// indices are stable and 0-based.
class Process {
public:
    friend class Network;
    Process(std::string name, Network* owner)
        : name_(std::move(name)), owner_(owner) {}

    const std::string& name() const { return name_; }

    std::size_t add_input(std::string var);
    std::size_t add_output(std::string var);
    std::size_t input_count() const { return inputs_.size(); }
    std::size_t output_count() const { return outputs_.size(); }
    const std::string& input_name(std::size_t i) const { return inputs_.at(i); }
    const std::string& output_name(std::size_t i) const { return outputs_.at(i); }
    /// Index of the port carrying `var`, if any.
    std::optional<std::size_t> input_named(std::string_view var) const;
    std::optional<std::size_t> output_named(std::string_view var) const;

    /// Kernel identifier dispatched through the KernelRegistry at
    /// execution time (defaults to the process name).
    const std::string& kernel() const { return kernel_; }
    void set_kernel(std::string name) { kernel_ = std::move(name); }

private:
    std::string name_;
    Network* owner_;
    std::string kernel_;
    std::vector<std::string> inputs_;
    std::vector<std::string> outputs_;
};

/// A FIFO channel between two process ports. `initial_tokens` seed the
/// channel (the KPN equivalent of a UnitDelay temporal barrier).
struct ChannelDecl {
    Process* producer = nullptr;
    std::size_t producer_port = 0;
    Process* consumer = nullptr;
    std::size_t consumer_port = 0;
    std::string variable;
    std::size_t initial_tokens = 0;
};

/// Environment-facing ports of the network.
struct NetworkPort {
    Process* process = nullptr;
    std::size_t port = 0;  // input index for outputs-to-env? see is_input
    bool is_input = false; ///< true: environment feeds process input
    std::string variable;
};

class Network {
public:
    explicit Network(std::string name) : name_(std::move(name)) {}
    Network(const Network&) = delete;
    Network& operator=(const Network&) = delete;
    Network(Network&& other) noexcept { *this = std::move(other); }
    Network& operator=(Network&& other) noexcept;

    const std::string& name() const { return name_; }

    Process& add_process(std::string name);
    Process* find_process(std::string_view name);
    const Process* find_process(std::string_view name) const;
    std::vector<const Process*> processes() const;
    std::vector<Process*> processes();

    ChannelDecl& connect(Process& producer, std::size_t out_port,
                         Process& consumer, std::size_t in_port,
                         std::string variable);
    const std::vector<ChannelDecl>& channels() const { return channels_; }
    std::vector<ChannelDecl>& channels() { return channels_; }

    void add_network_input(Process& process, std::size_t port, std::string var);
    void add_network_output(Process& process, std::size_t port, std::string var);
    const std::vector<NetworkPort>& network_inputs() const { return inputs_; }
    const std::vector<NetworkPort>& network_outputs() const { return outputs_; }

    /// Structural checks: every process input is fed by exactly one
    /// channel or network input; channel ports in range; port/variable
    /// names consistent. Empty = well-formed.
    std::vector<std::string> check() const;

private:
    std::string name_;
    std::vector<std::unique_ptr<Process>> processes_;
    /// Keyed by views into `Process::name_`, which never changes.
    std::unordered_map<std::string_view, Process*> by_name_;
    std::vector<ChannelDecl> channels_;
    std::vector<NetworkPort> inputs_;
    std::vector<NetworkPort> outputs_;
};

}  // namespace uhcg::kpn
