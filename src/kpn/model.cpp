#include "kpn/model.hpp"

#include <set>
#include <stdexcept>

namespace uhcg::kpn {

std::size_t Process::add_input(std::string var) {
    inputs_.push_back(std::move(var));
    return inputs_.size() - 1;
}

std::size_t Process::add_output(std::string var) {
    outputs_.push_back(std::move(var));
    return outputs_.size() - 1;
}

std::optional<std::size_t> Process::input_named(std::string_view var) const {
    for (std::size_t i = 0; i < inputs_.size(); ++i)
        if (inputs_[i] == var) return i;
    return std::nullopt;
}

std::optional<std::size_t> Process::output_named(std::string_view var) const {
    for (std::size_t i = 0; i < outputs_.size(); ++i)
        if (outputs_[i] == var) return i;
    return std::nullopt;
}

Network& Network::operator=(Network&& other) noexcept {
    name_ = std::move(other.name_);
    processes_ = std::move(other.processes_);
    by_name_ = std::move(other.by_name_);
    channels_ = std::move(other.channels_);
    inputs_ = std::move(other.inputs_);
    outputs_ = std::move(other.outputs_);
    for (auto& p : processes_) p->owner_ = this;
    return *this;
}

Process& Network::add_process(std::string name) {
    if (find_process(name))
        throw std::invalid_argument("duplicate process '" + name + "'");
    processes_.push_back(std::make_unique<Process>(std::move(name), this));
    Process& p = *processes_.back();
    by_name_.emplace(p.name(), &p);
    if (p.kernel().empty()) p.set_kernel(p.name());
    return p;
}

Process* Network::find_process(std::string_view name) {
    auto it = by_name_.find(name);
    return it == by_name_.end() ? nullptr : it->second;
}

const Process* Network::find_process(std::string_view name) const {
    auto it = by_name_.find(name);
    return it == by_name_.end() ? nullptr : it->second;
}

std::vector<const Process*> Network::processes() const {
    std::vector<const Process*> out;
    for (const auto& p : processes_) out.push_back(p.get());
    return out;
}

std::vector<Process*> Network::processes() {
    std::vector<Process*> out;
    for (const auto& p : processes_) out.push_back(p.get());
    return out;
}

ChannelDecl& Network::connect(Process& producer, std::size_t out_port,
                              Process& consumer, std::size_t in_port,
                              std::string variable) {
    if (out_port >= producer.output_count())
        throw std::out_of_range("producer port out of range on " +
                                producer.name());
    if (in_port >= consumer.input_count())
        throw std::out_of_range("consumer port out of range on " +
                                consumer.name());
    channels_.push_back(
        {&producer, out_port, &consumer, in_port, std::move(variable), 0});
    return channels_.back();
}

void Network::add_network_input(Process& process, std::size_t port,
                                std::string var) {
    inputs_.push_back({&process, port, true, std::move(var)});
}

void Network::add_network_output(Process& process, std::size_t port,
                                 std::string var) {
    outputs_.push_back({&process, port, false, std::move(var)});
}

std::vector<std::string> Network::check() const {
    std::vector<std::string> problems;
    // Every process input fed exactly once (channel or network input).
    std::map<std::pair<const Process*, std::size_t>, int> feeds;
    for (const ChannelDecl& c : channels_)
        ++feeds[{c.consumer, c.consumer_port}];
    for (const NetworkPort& p : inputs_)
        if (p.is_input) ++feeds[{p.process, p.port}];
    for (const auto& proc : processes_) {
        for (std::size_t i = 0; i < proc->input_count(); ++i) {
            int n = feeds[{proc.get(), i}];
            if (n == 0)
                problems.push_back("input '" + proc->input_name(i) + "' of '" +
                                   proc->name() + "' is unfed");
            if (n > 1)
                problems.push_back("input '" + proc->input_name(i) + "' of '" +
                                   proc->name() + "' is fed " +
                                   std::to_string(n) + " times");
        }
    }
    for (const ChannelDecl& c : channels_) {
        if (c.producer_port >= c.producer->output_count() ||
            c.consumer_port >= c.consumer->input_count())
            problems.push_back("channel '" + c.variable + "' has out-of-range ports");
    }
    return problems;
}

}  // namespace uhcg::kpn
