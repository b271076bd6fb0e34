#include "simulink/model.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <utility>

#include "obs/obs.hpp"

namespace uhcg::simulink {

std::string_view to_string(BlockType type) {
    switch (type) {
        case BlockType::SubSystem: return "SubSystem";
        case BlockType::Inport: return "Inport";
        case BlockType::Outport: return "Outport";
        case BlockType::SFunction: return "S-Function";
        case BlockType::Product: return "Product";
        case BlockType::Sum: return "Sum";
        case BlockType::Gain: return "Gain";
        case BlockType::UnitDelay: return "UnitDelay";
        case BlockType::Constant: return "Constant";
        case BlockType::Scope: return "Scope";
        case BlockType::CommChannel: return "CommChannel";
    }
    return "?";
}

std::optional<BlockType> block_type_from_string(std::string_view name) {
    if (name == "SubSystem") return BlockType::SubSystem;
    if (name == "Inport") return BlockType::Inport;
    if (name == "Outport") return BlockType::Outport;
    if (name == "S-Function") return BlockType::SFunction;
    if (name == "Product") return BlockType::Product;
    if (name == "Sum") return BlockType::Sum;
    if (name == "Gain") return BlockType::Gain;
    if (name == "UnitDelay") return BlockType::UnitDelay;
    if (name == "Constant") return BlockType::Constant;
    if (name == "Scope") return BlockType::Scope;
    if (name == "CommChannel") return BlockType::CommChannel;
    return std::nullopt;
}

std::string_view to_string(CaamRole role) {
    switch (role) {
        case CaamRole::None: return "None";
        case CaamRole::CpuSubsystem: return "CPU-SS";
        case CaamRole::ThreadSubsystem: return "Thread-SS";
        case CaamRole::InterCpuChannel: return "InterCPU";
        case CaamRole::IntraCpuChannel: return "IntraCPU";
    }
    return "?";
}

std::optional<CaamRole> caam_role_from_string(std::string_view name) {
    if (name == "None") return CaamRole::None;
    if (name == "CPU-SS") return CaamRole::CpuSubsystem;
    if (name == "Thread-SS") return CaamRole::ThreadSubsystem;
    if (name == "InterCPU") return CaamRole::InterCpuChannel;
    if (name == "IntraCPU") return CaamRole::IntraCpuChannel;
    return std::nullopt;
}

// --- Block -------------------------------------------------------------------

/// Port names by port, with a name → lowest-port index keyed by views into
/// `by_port`.
struct PortNames {
    std::map<int, std::string> by_port;
    std::map<std::string_view, int> by_name;
};

Block::Block(std::string name, BlockType type, System* parent)
    : name_(std::move(name)), type_(type), parent_(parent) {
    // Sensible default port shapes per type; the mapping resizes as needed.
    switch (type_) {
        case BlockType::Inport: inputs_ = 0; outputs_ = 1; break;
        case BlockType::Outport: inputs_ = 1; outputs_ = 0; break;
        case BlockType::Product:
        case BlockType::Sum: inputs_ = 2; outputs_ = 1; break;
        case BlockType::Gain:
        case BlockType::UnitDelay:
        case BlockType::CommChannel: inputs_ = 1; outputs_ = 1; break;
        case BlockType::Constant: inputs_ = 0; outputs_ = 1; break;
        case BlockType::Scope: inputs_ = 1; outputs_ = 0; break;
        case BlockType::SubSystem:
        case BlockType::SFunction: inputs_ = 0; outputs_ = 0; break;
    }
    if (type_ == BlockType::SubSystem)
        system_ = std::make_unique<System>(name_, this,
                                           parent_ ? parent_->model() : nullptr);
}

Block::~Block() = default;

namespace {

using Parameters = std::vector<std::pair<std::string, std::string>>;

/// First parameter whose key is not below `key`.
template <typename Params>
auto key_bound(Params& params, std::string_view key) {
    return std::lower_bound(
        params.begin(), params.end(), key,
        [](const Parameters::value_type& p, std::string_view k) {
            return p.first < k;
        });
}

}  // namespace

void Block::set_parameter(std::string_view key, std::string_view value) {
    auto it = key_bound(params_, key);
    if (it != params_.end() && it->first == key)
        it->second.assign(value);
    else
        params_.emplace(it, std::string(key), std::string(value));
}

const std::string* Block::find_parameter(std::string_view key) const {
    auto it = key_bound(params_, key);
    return it != params_.end() && it->first == key ? &it->second : nullptr;
}

std::string Block::parameter_or(std::string_view key, std::string fallback) const {
    if (const std::string* v = find_parameter(key)) return *v;
    return fallback;
}

void Block::set_ports(int inputs, int outputs) {
    if (inputs < 0 || outputs < 0)
        throw std::invalid_argument("negative port count on block " + name_);
    inputs_ = inputs;
    outputs_ = outputs;
}

namespace {

void name_port(std::unique_ptr<PortNames>& names, int port, std::string name) {
    if (!names) names = std::make_unique<PortNames>();
    auto [it, fresh] = names->by_port.try_emplace(port, std::move(name));
    if (fresh) {
        auto [at, added] = names->by_name.emplace(it->second, port);
        if (!added && port < at->second) at->second = port;
        return;
    }
    // A rename can drop a view into the old name: rebuild (rare).
    it->second = std::move(name);
    names->by_name.clear();
    for (const auto& [p, n] : names->by_port) names->by_name.emplace(n, p);
}

const std::string& name_of(const std::unique_ptr<PortNames>& names, int port) {
    static const std::string unnamed;
    if (!names) return unnamed;
    auto it = names->by_port.find(port);
    return it == names->by_port.end() ? unnamed : it->second;
}

int port_named(const std::unique_ptr<PortNames>& names, std::string_view name) {
    if (!names) return 0;
    auto it = names->by_name.find(name);
    return it == names->by_name.end() ? 0 : it->second;
}

}  // namespace

void Block::set_input_name(int port, std::string name) {
    if (port < 1 || port > inputs_)
        throw std::out_of_range("input port " + std::to_string(port) +
                                " out of range on block " + name_);
    name_port(input_names_, port, std::move(name));
}

void Block::set_output_name(int port, std::string name) {
    if (port < 1 || port > outputs_)
        throw std::out_of_range("output port " + std::to_string(port) +
                                " out of range on block " + name_);
    name_port(output_names_, port, std::move(name));
}

const std::string& Block::input_name(int port) const {
    return name_of(input_names_, port);
}

const std::string& Block::output_name(int port) const {
    return name_of(output_names_, port);
}

int Block::input_named(std::string_view name) const {
    return port_named(input_names_, name);
}

int Block::output_named(std::string_view name) const {
    return port_named(output_names_, name);
}

// --- System ------------------------------------------------------------------

namespace {

/// Counts one name or port lookup in `simulink.lookup_scans` (one relaxed
/// add per call).
void count_lookup() {
    static obs::Counter& lookups = obs::counter("simulink.lookup_scans");
    lookups.add(1);
}

/// The line in the slot of `port`, or nullptr below 1 and past the slots.
Line* line_at(const std::vector<Line*>& slots, int port) {
    if (port < 1 || static_cast<std::size_t>(port) > slots.size()) return nullptr;
    return slots[static_cast<std::size_t>(port) - 1];
}

/// The slot of a 1-based `port` that `slots` is known to hold.
Line*& slot_at(std::vector<Line*>& slots, int port) {
    return slots[static_cast<std::size_t>(port) - 1];
}

/// The slot of `port`, growing `slots` to at least `count` ports first.
Line*& grown_slot(std::vector<Line*>& slots, int port, int count) {
    const auto size = static_cast<std::size_t>(std::max(port, count));
    if (slots.size() < size) slots.resize(size, nullptr);
    return slot_at(slots, port);
}

}  // namespace

Block& System::add_block(std::string name, BlockType type) {
    if (find_block(name))
        throw std::invalid_argument("duplicate block name '" + name +
                                    "' in system " + name_);
    Block& block =
        *blocks_.emplace_back(std::make_unique<Block>(std::move(name), type, this));
    by_name_.emplace(block.name(), &block);
    return block;
}

Block& System::add_subsystem(std::string name, CaamRole role) {
    Block& b = add_block(std::move(name), BlockType::SubSystem);
    b.set_role(role);
    return b;
}

Block* System::find_block(std::string_view name) {
    return const_cast<Block*>(std::as_const(*this).find_block(name));
}

const Block* System::find_block(std::string_view name) const {
    count_lookup();
    auto it = by_name_.find(name);
    return it == by_name_.end() ? nullptr : it->second;
}

std::string System::unique_name(const std::string& hint) {
    return first_free_name(
        hint, [this](std::string_view name) { return find_block(name) != nullptr; },
        next_suffix_);
}

std::vector<Block*> System::blocks() {
    std::vector<Block*> out;
    for (const auto& b : blocks_) out.push_back(b.get());
    return out;
}

std::vector<const Block*> System::blocks() const {
    std::vector<const Block*> out;
    for (const auto& b : blocks_) out.push_back(b.get());
    return out;
}

std::vector<Block*> System::blocks_of(BlockType type) {
    std::vector<Block*> out;
    for (const auto& b : blocks_)
        if (b->type() == type) out.push_back(b.get());
    return out;
}

std::vector<Block*> System::blocks_with_role(CaamRole role) {
    std::vector<Block*> out;
    for (const auto& b : blocks_)
        if (b->role() == role) out.push_back(b.get());
    return out;
}

void System::remove_block(Block& block) {
    auto it = std::find_if(blocks_.begin(), blocks_.end(),
                           [&](const auto& b) { return b.get() == &block; });
    if (it == blocks_.end())
        throw std::invalid_argument("block '" + block.name() +
                                    "' is not in system " + name_);
    // Drop every line endpoint referring to the block first.
    std::erase_if(lines_, [&](const std::unique_ptr<Line>& line) {
        if (line->source().block != &block) {
            std::erase_if(line->dsts_,
                          [&](const PortRef& d) { return d.block == &block; });
            if (!line->dsts_.empty()) return false;
        }
        unindex(*line);
        return true;
    });
    by_name_.erase(block.name());
    next_suffix_.clear();  // the name may free a lower suffix
    blocks_.erase(it);
}

void Line::remove_destination(const PortRef& dst) {
    dsts_.erase(std::find(dsts_.begin(), dsts_.end(), dst));
}

Line& System::add_line(PortRef src, PortRef dst, std::string name) {
    if (!src.block || !dst.block)
        throw std::invalid_argument("line endpoints must reference blocks");
    if (src.block->parent() != this || dst.block->parent() != this)
        throw std::invalid_argument(
            "line endpoints must live in this system (" + name_ + ")");
    if (src.port < 1 || src.port > src.block->output_count())
        throw std::invalid_argument("source port " + std::to_string(src.port) +
                                    " out of range on block " + src.block->name());
    if (dst.port < 1 || dst.port > dst.block->input_count())
        throw std::invalid_argument("destination port " + std::to_string(dst.port) +
                                    " out of range on block " + dst.block->name());
    if (line_into(dst))
        throw std::invalid_argument("input port " + std::to_string(dst.port) +
                                    " of block " + dst.block->name() +
                                    " is already driven");
    // Simulink semantics: one line per source port; further sinks branch.
    Line* line = line_from(src);
    if (line) {
        if (line->name().empty()) line->name_ = std::move(name);
    } else {
        line = lines_.emplace_back(std::make_unique<Line>(src, std::move(name)))
                   .get();
        grown_slot(src.block->out_lines_, src.port, src.block->output_count()) =
            line;
    }
    line->dsts_.push_back(dst);
    grown_slot(dst.block->in_lines_, dst.port, dst.block->input_count()) = line;
    return *line;
}

Line* System::line_from(const PortRef& src) {
    return const_cast<Line*>(std::as_const(*this).line_from(src));
}

const Line* System::line_from(const PortRef& src) const {
    count_lookup();
    if (src.block == nullptr || src.block->parent() != this) return nullptr;
    return line_at(src.block->out_lines_, src.port);
}

Line* System::line_into(const PortRef& dst) {
    return const_cast<Line*>(std::as_const(*this).line_into(dst));
}

const Line* System::line_into(const PortRef& dst) const {
    count_lookup();
    if (dst.block == nullptr || dst.block->parent() != this) return nullptr;
    return line_at(dst.block->in_lines_, dst.port);
}

std::vector<Line*> System::lines() {
    std::vector<Line*> out;
    for (const auto& l : lines_) out.push_back(l.get());
    return out;
}

std::vector<const Line*> System::lines() const {
    std::vector<const Line*> out;
    for (const auto& l : lines_) out.push_back(l.get());
    return out;
}

void System::unindex(const Line& line) {
    slot_at(line.source().block->out_lines_, line.source().port) = nullptr;
    for (const PortRef& d : line.destinations())
        slot_at(d.block->in_lines_, d.port) = nullptr;
}

void System::remove_line(Line& line) {
    auto it = std::find_if(lines_.begin(), lines_.end(),
                           [&](const auto& l) { return l.get() == &line; });
    if (it == lines_.end())
        throw std::invalid_argument("line is not in system " + name_);
    unindex(line);
    lines_.erase(it);
}

std::pair<PortRef, std::string> System::disconnect(const PortRef& dst) {
    Line* line = line_into(dst);
    if (!line)
        throw std::invalid_argument("disconnect: input port " +
                                    std::to_string(dst.port) +
                                    " is not driven in system " + name_);
    std::pair<PortRef, std::string> removed{line->source(), line->name()};
    line->remove_destination(dst);
    slot_at(dst.block->in_lines_, dst.port) = nullptr;
    if (line->destinations().empty()) remove_line(*line);
    return removed;
}

std::size_t System::total_blocks() const {
    std::size_t count = blocks_.size();
    for (const auto& b : blocks_)
        if (b->system()) count += b->system()->total_blocks();
    return count;
}

std::size_t System::total_lines() const {
    std::size_t count = lines_.size();
    for (const auto& b : blocks_)
        if (b->system()) count += b->system()->total_lines();
    return count;
}

std::string full_path(const Block& block) {
    std::string path = block.name();
    for (const System* s = block.parent(); s && s->owner_block();
         s = s->owner_block()->parent())
        path = s->owner_block()->name() + "/" + path;
    return path;
}

int port_number(const Block& block) {
    std::string v = block.parameter_or("Port", "1");
    try {
        std::size_t used = 0;
        int parsed = std::stoi(v, &used);
        if (used != v.size()) throw std::invalid_argument(v);
        return parsed;
    } catch (const std::exception&) {
        throw std::runtime_error("block '" + full_path(block) +
                                 "' has a non-numeric Port (got '" + v + "')");
    }
}

// --- Model -----------------------------------------------------------------

Model::Model(std::string name)
    : name_(std::move(name)),
      root_(std::make_unique<System>(name_, nullptr, this)) {}

void Model::reanchor(System& system) {
    system.model_ = this;
    for (Block* b : system.block_view())
        if (b->system()) reanchor(*b->system());
}

Model& Model::operator=(Model&& other) noexcept {
    name_ = std::move(other.name_);
    root_ = std::move(other.root_);
    stop_time = other.stop_time;
    fixed_step = other.fixed_step;
    solver = std::move(other.solver);
    if (root_) reanchor(*root_);  // System back pointers must follow the move
    return *this;
}

}  // namespace uhcg::simulink
