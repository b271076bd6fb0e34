// metamodel.hpp — a small EMF/E-core-like reflective model layer.
//
// The paper's prototype was "implemented in Java using the API provided by
// the Eclipse EMF"; model-to-model transformation operates on *typed object
// graphs conforming to a metamodel*, not on hand-written structs. This
// layer reproduces that: a Metamodel declares classes with attributes
// (string/int/double/bool/enum), containment references (ownership) and
// cross references; Objects are instances whose slots are checked against
// the metamodel at mutation time.
//
// Both the UML metamodel and the Simulink CAAM metamodel register
// themselves here, which is what lets the generic transform engine and the
// E-core XML serializer work on either side of the mapping.
//
// Each class resolves its *layout* once, on first use (its first object or
// feature query): the super pointer, every attribute and reference with the
// inherited ones first, each reference's target class and each parsed
// default. Objects index their slots by layout position. The build runs
// under std::call_once, so pool workers sharing a process-wide metamodel
// race safely and later reads take no lock. From then on the class is
// frozen: changing it, or adding a class to its metamodel, throws
// std::logic_error.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace uhcg::model {

class MetaClass;
class Metamodel;

/// Primitive slot types supported by attributes.
enum class AttrType { String, Int, Real, Bool, Enum };

std::string_view to_string(AttrType type);

/// Slot value for attributes. Enum literals are carried as strings and
/// validated against the declaring MetaAttribute.
using Value = std::variant<std::string, std::int64_t, double, bool>;

std::string value_to_string(const Value& value);
/// Parses the whole of `text` according to `type`; throws
/// std::invalid_argument on malformed input, trailing characters included.
Value value_from_string(AttrType type, const std::string& text);

/// Declaration of one attribute of a MetaClass.
struct MetaAttribute {
    std::string name;
    AttrType type = AttrType::String;
    /// For Enum attributes: the closed set of admissible literals.
    std::vector<std::string> literals;
    /// Serialized default; empty optional means "required, no default".
    std::optional<std::string> default_value;
};

/// Declaration of one reference of a MetaClass.
struct MetaReference {
    std::string name;
    /// Target class name (resolved against the owning metamodel).
    std::string target;
    /// Containment references own their targets (tree edges); non-containment
    /// references are cross links serialized by id.
    bool containment = false;
    /// Upper bound: false = at most one target, true = ordered collection.
    bool many = false;
    /// Lower bound of 1 makes validation flag absent targets.
    bool required = false;
};

/// A class in the metamodel: named, optionally abstract, single inheritance.
class MetaClass {
public:
    friend class Metamodel;
    /// Layout position meaning "no such feature".
    static constexpr std::size_t npos = static_cast<std::size_t>(-1);

    MetaClass(std::string name, const Metamodel* owner)
        : name_(std::move(name)), owner_(owner) {}

    const std::string& name() const { return name_; }
    const Metamodel& metamodel() const { return *owner_; }
    bool is_abstract() const { return abstract_; }
    /// The mutators throw std::logic_error once the layout is built.
    void set_abstract(bool value);
    /// Sets the superclass by name (resolved when the layout is built).
    void set_super(std::string name);
    const MetaClass* super() const { return layout().super; }

    MetaAttribute& add_attribute(MetaAttribute attr);
    MetaReference& add_reference(MetaReference ref);

    /// Lookup including inherited features; nullptr when absent.
    const MetaAttribute* find_attribute(std::string_view name) const;
    const MetaReference* find_reference(std::string_view name) const;
    /// Layout position of a feature in all_attributes()/all_references();
    /// npos when absent.
    std::size_t attribute_index(std::string_view name) const;
    std::size_t reference_index(std::string_view name) const;

    /// Own (non-inherited) features, declaration order.
    const std::vector<MetaAttribute>& own_attributes() const { return attrs_; }
    const std::vector<MetaReference>& own_references() const { return refs_; }

    /// All features including inherited, supers first.
    const std::vector<const MetaAttribute*>& all_attributes() const {
        return layout().attributes;
    }
    const std::vector<const MetaReference*>& all_references() const {
        return layout().references;
    }
    /// Target class of all_references()[index]; nullptr when the target
    /// name names no class.
    const MetaClass* reference_target(std::size_t index) const {
        return layout().targets[index];
    }
    /// Parsed default of all_attributes()[index]; nullptr when it declares
    /// none. Rethrows the parse error of a malformed default.
    const Value* attribute_default(std::size_t index) const;

    /// True if this class is `ancestor` or transitively inherits from it.
    bool conforms_to(const MetaClass& ancestor) const;

private:
    struct Layout {
        const MetaClass* super = nullptr;
        std::vector<const MetaAttribute*> attributes;
        std::vector<const MetaReference*> references;
        std::vector<const MetaClass*> targets;          // per reference
        std::vector<std::optional<Value>> defaults;     // per attribute
        std::vector<std::exception_ptr> default_errors; // per attribute
        /// Feature name → layout position, one entry per distinct name, in
        /// the order a most-derived-first search meets them: a redeclared
        /// name resolves to the subclass's feature.
        std::vector<std::pair<std::string_view, std::size_t>> attribute_lookup,
            reference_lookup;
    };

    const Layout& layout() const {
        if (!frozen_.load(std::memory_order_acquire))
            std::call_once(layout_once_, [this] { build_layout(); });
        return layout_;
    }
    void build_layout() const;
    void check_mutable() const;
    /// Name lookup of the superclass; never builds a layout.
    const MetaClass* resolve_super() const;

    std::string name_;
    const Metamodel* owner_;
    bool abstract_ = false;
    std::string super_name_;
    std::vector<MetaAttribute> attrs_;
    std::vector<MetaReference> refs_;
    mutable std::once_flag layout_once_;
    mutable std::atomic<bool> frozen_{false};
    mutable Layout layout_;
};

/// A metamodel: a named package of MetaClasses.
class Metamodel {
public:
    explicit Metamodel(std::string name) : name_(std::move(name)) {}
    Metamodel(const Metamodel&) = delete;
    Metamodel& operator=(const Metamodel&) = delete;
    Metamodel(Metamodel&& other) noexcept { *this = std::move(other); }
    Metamodel& operator=(Metamodel&& other) noexcept {
        name_ = std::move(other.name_);
        classes_ = std::move(other.classes_);
        order_ = std::move(other.order_);
        frozen_.store(other.frozen_.load());
        for (auto& [_, cls] : classes_) cls->owner_ = this;  // re-anchor
        return *this;
    }

    const std::string& name() const { return name_; }

    /// Throws std::logic_error once any class's layout is built.
    MetaClass& add_class(std::string name);
    /// nullptr when absent.
    const MetaClass* find_class(std::string_view name) const;
    MetaClass* find_class(std::string_view name);
    /// Throws std::out_of_range when absent.
    const MetaClass& get_class(std::string_view name) const;

    std::vector<const MetaClass*> classes() const;

    /// Checks internal consistency (supers resolve, reference targets exist,
    /// enum attributes have literals, no inheritance cycles). Returns the
    /// list of problems; empty means well-formed. Builds no layout.
    std::vector<std::string> check() const;

private:
    friend class MetaClass;

    std::string name_;
    // map keeps pointers stable and lookup cheap; declaration order is kept
    // separately for deterministic iteration.
    std::map<std::string, std::unique_ptr<MetaClass>, std::less<>> classes_;
    std::vector<const MetaClass*> order_;
    mutable std::atomic<bool> frozen_{false};  // some class's layout is built
};

}  // namespace uhcg::model
