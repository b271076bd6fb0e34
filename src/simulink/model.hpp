// model.hpp — Simulink model representation, including the CAAM (Combined
// Architecture Algorithm Model) extensions of the Simulink-based MPSoC
// design flow the paper targets (Huang et al., DAC'07).
//
// A Model owns a tree of Systems; each System contains Blocks and Lines.
// SubSystem blocks own a nested System. CAAM adds *roles* to subsystems
// (CPU-SS, Thread-SS) and communication-channel blocks parameterized by a
// protocol (SWFIFO for intra-CPU, GFIFO for inter-CPU) — exactly the
// vocabulary of the paper's Fig. 3(c).
#pragma once

#include <memory>
#include <optional>
#include <ranges>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace uhcg::simulink {

class System;
class Model;

/// Block types used by generated CAAMs. `SFunction` covers user-defined
/// behaviour (C code compiled and linked, §4.1); `CommChannel` is the CAAM
/// communication block whose `Protocol` parameter selects SWFIFO/GFIFO.
enum class BlockType {
    SubSystem,
    Inport,
    Outport,
    SFunction,
    Product,
    Sum,
    Gain,
    UnitDelay,
    Constant,
    Scope,
    CommChannel,
};

std::string_view to_string(BlockType type);
std::optional<BlockType> block_type_from_string(std::string_view name);

/// CAAM structural role of a subsystem or channel block.
enum class CaamRole {
    None,
    CpuSubsystem,     ///< CPU-SS: one per processor
    ThreadSubsystem,  ///< Thread-SS: one per thread, nested in a CPU-SS
    InterCpuChannel,  ///< inter-SS communication (GFIFO)
    IntraCpuChannel,  ///< intra-SS communication (SWFIFO)
};

std::string_view to_string(CaamRole role);
std::optional<CaamRole> caam_role_from_string(std::string_view name);

/// Communication protocols the flow instantiates (§4.2.1).
inline constexpr const char* kProtocolSwFifo = "SWFIFO";
inline constexpr const char* kProtocolGFifo = "GFIFO";

class Block;
class Line;
/// One direction's port names of a block (defined in model.cpp).
struct PortNames;

/// A port reference: block + 1-based port number (Simulink convention).
struct PortRef {
    Block* block = nullptr;
    int port = 1;

    friend bool operator==(const PortRef&, const PortRef&) = default;
};

/// One block inside a System.
class Block {
public:
    friend class System;

    Block(std::string name, BlockType type, System* parent);
    ~Block();
    Block(const Block&) = delete;
    Block& operator=(const Block&) = delete;

    const std::string& name() const { return name_; }
    BlockType type() const { return type_; }
    System* parent() const { return parent_; }

    CaamRole role() const { return role_; }
    void set_role(CaamRole role) { role_ = role; }

    /// Free-form Simulink block parameters ("Gain", "Value", "Protocol",
    /// "FunctionName", "SampleTime", ...), serialized into the mdl file.
    void set_parameter(std::string_view key, std::string_view value);
    const std::string* find_parameter(std::string_view key) const;
    std::string parameter_or(std::string_view key, std::string fallback) const;
    /// Every parameter, sorted by key; one entry per key.
    const std::vector<std::pair<std::string, std::string>>& parameters() const {
        return params_;
    }

    /// Port counts. Inport/Outport blocks have fixed (0,1)/(1,0) shapes;
    /// other blocks are sized by the mapping.
    int input_count() const { return inputs_; }
    int output_count() const { return outputs_; }
    void set_ports(int inputs, int outputs);

    /// Names attached to ports (used for generated Inport/Outport labels
    /// and for S-function argument names). 1-based lookup; empty when the
    /// port is unnamed.
    void set_input_name(int port, std::string name);
    void set_output_name(int port, std::string name);
    const std::string& input_name(int port) const;
    const std::string& output_name(int port) const;
    /// 1-based index of the input/output with this name, or 0.
    int input_named(std::string_view name) const;
    int output_named(std::string_view name) const;

    /// Nested system; non-null exactly for SubSystem blocks.
    System* system() { return system_.get(); }
    const System* system() const { return system_.get(); }

    bool is_subsystem() const { return type_ == BlockType::SubSystem; }
    bool is_channel() const { return type_ == BlockType::CommChannel; }

private:
    std::string name_;
    BlockType type_;
    System* parent_;
    CaamRole role_ = CaamRole::None;
    int inputs_ = 0;
    int outputs_ = 0;
    std::vector<std::pair<std::string, std::string>> params_;
    /// The line feeding each input port and the line each output port
    /// drives, indexed by port - 1; nullptr when unconnected. Grown by
    /// System::add_line, so a slot may outlive a set_ports shrink.
    std::vector<Line*> in_lines_;
    std::vector<Line*> out_lines_;
    /// Allocated on a direction's first port name; most blocks have none.
    std::unique_ptr<PortNames> input_names_;
    std::unique_ptr<PortNames> output_names_;
    std::unique_ptr<System> system_;
};

/// A signal line from one source port to one or more destination ports
/// (Simulink branches). Only its System rewires or renames it.
class Line {
public:
    Line(PortRef src, std::string name) : src_(src), name_(std::move(name)) {}

    const PortRef& source() const { return src_; }
    const std::vector<PortRef>& destinations() const { return dsts_; }

    /// Signal name (the UML argument name that produced the link).
    const std::string& name() const { return name_; }

private:
    friend class System;

    void remove_destination(const PortRef& dst);

    PortRef src_;
    std::vector<PortRef> dsts_;
    std::string name_;
};

/// A container of blocks and lines: the model root or a subsystem body.
/// Every line edit and every fresh block name goes through its methods,
/// which keep the name index and the blocks' line slots behind the O(1)
/// lookups in step.
class System {
public:
    friend class Model;
    System(std::string name, Block* owner_block, Model* model)
        : name_(std::move(name)), owner_(owner_block), model_(model) {}
    System(const System&) = delete;
    System& operator=(const System&) = delete;

    const std::string& name() const { return name_; }
    /// SubSystem block owning this system; nullptr for the model root.
    Block* owner_block() const { return owner_; }
    Model* model() const { return model_; }

    Block& add_block(std::string name, BlockType type);
    /// Convenience: adds a SubSystem block (its nested System is created).
    Block& add_subsystem(std::string name, CaamRole role = CaamRole::None);
    Block* find_block(std::string_view name);
    const Block* find_block(std::string_view name) const;
    /// `hint` if no block has that name, else the first free `hint_<i>`
    /// (i = 1, 2, ...). Remembers where each hint's probing stopped.
    std::string unique_name(const std::string& hint);
    std::vector<Block*> blocks();
    std::vector<const Block*> blocks() const;
    /// The same blocks without a copy: a view over the owning vector, so
    /// add_block and remove_block invalidate it. Loops that edit the
    /// system iterate blocks().
    auto block_view() {
        return blocks_ | std::views::transform(
                             [](const std::unique_ptr<Block>& b) { return b.get(); });
    }
    auto block_view() const {
        return blocks_ | std::views::transform([](const std::unique_ptr<Block>& b) {
                   return static_cast<const Block*>(b.get());
               });
    }
    std::vector<Block*> blocks_of(BlockType type);
    std::vector<Block*> blocks_with_role(CaamRole role);
    /// Removes a block and every line endpoint touching it. Invalidates
    /// pointers to that block.
    void remove_block(Block& block);

    Line& add_line(PortRef src, PortRef dst, std::string name = {});
    /// Line driven by this source port, or nullptr (also for a port < 1,
    /// a port never wired and a block of another system).
    Line* line_from(const PortRef& src);
    const Line* line_from(const PortRef& src) const;
    /// Line feeding this destination port, or nullptr.
    Line* line_into(const PortRef& dst);
    const Line* line_into(const PortRef& dst) const;
    std::vector<Line*> lines();
    std::vector<const Line*> lines() const;
    /// The same lines without a copy; like block_view(), invalidated by
    /// any line edit.
    auto line_view() const {
        return lines_ | std::views::transform([](const std::unique_ptr<Line>& l) {
                   return static_cast<const Line*>(l.get());
               });
    }
    void remove_line(Line& line);
    /// Detaches `dst` from the line feeding it, removing the line once no
    /// destination is left. Returns that line's source and signal name;
    /// throws std::invalid_argument when `dst` is undriven.
    std::pair<PortRef, std::string> disconnect(const PortRef& dst);

    /// Deep counts over this system and all nested subsystems.
    std::size_t total_blocks() const;
    std::size_t total_lines() const;

private:
    /// Clears the slots of every endpoint of `line`.
    static void unindex(const Line& line);

    std::string name_;
    Block* owner_;
    Model* model_;
    std::vector<std::unique_ptr<Block>> blocks_;
    std::vector<std::unique_ptr<Line>> lines_;
    /// Keyed by views into `Block::name_`, which never changes.
    std::unordered_map<std::string_view, Block*> by_name_;
    /// Per `unique_name` hint: the suffix to probe first. Every lower one
    /// is taken until a block is removed, which clears the memo.
    std::unordered_map<std::string, int> next_suffix_;
};

/// The naming rule behind System::unique_name, for any set of names:
/// `hint` when `taken(hint)` is false, else the first free `hint_<i>`
/// (i = 1, 2, ...). `next_suffix` remembers per hint where probing
/// stopped; every lower suffix must stay taken.
template <class Taken>
std::string first_free_name(const std::string& hint, Taken&& taken,
                            std::unordered_map<std::string, int>& next_suffix) {
    if (!taken(hint)) return hint;
    int& i = next_suffix.try_emplace(hint, 1).first->second;
    while (taken(hint + "_" + std::to_string(i))) ++i;
    return hint + "_" + std::to_string(i);
}

/// "Sub/.../Block" path from the model root (the root system's name is
/// left out).
std::string full_path(const Block& block);

/// The `Port` parameter of a subsystem Inport/Outport marker: 1 when it is
/// missing; throws std::runtime_error naming the block's full path when it
/// is not a number.
int port_number(const Block& block);

/// A Simulink model: solver settings + the root system.
class Model {
public:
    explicit Model(std::string name);
    Model(const Model&) = delete;
    Model& operator=(const Model&) = delete;
    Model(Model&& other) noexcept { *this = std::move(other); }
    Model& operator=(Model&& other) noexcept;

    const std::string& name() const { return name_; }
    System& root() { return *root_; }
    const System& root() const { return *root_; }

    /// Fixed-step discrete solver settings serialized into the mdl.
    double stop_time = 10.0;
    double fixed_step = 1.0;
    std::string solver = "FixedStepDiscrete";

private:
    void reanchor(System& system);

    std::string name_;
    std::unique_ptr<System> root_;
};

}  // namespace uhcg::simulink
