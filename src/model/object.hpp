// object.hpp — typed object instances conforming to a Metamodel.
//
// Objects live in an ObjectModel, which owns every instance in a stable
// arena (a deque: addresses never change, not even when the model is
// moved). Containment is recorded as parent/child links on top of that
// central ownership, so moving an object between containers never
// invalidates pointers — the property the transformation engine's trace
// links depend on.
//
// An object's attribute and reference slots are arrays indexed by its
// class's layout position (MetaClass::all_attributes/all_references); a
// feature name is found by a short scan over the layout. Ids are indexed
// by one flat open-addressing table of (hash, Object*) slots.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "model/metamodel.hpp"

namespace uhcg::model {

/// One instance of a MetaClass.
class Object {
public:
    Object(const MetaClass& meta, std::string id);
    Object(const Object&) = delete;
    Object& operator=(const Object&) = delete;

    const MetaClass& meta() const { return *meta_; }
    const std::string& id() const { return id_; }
    bool is_a(std::string_view class_name) const;

    // --- attributes -------------------------------------------------------
    /// Sets an attribute slot; throws std::invalid_argument if the class has
    /// no such attribute or the value's type does not match the declaration.
    void set(std::string_view name, Value value);
    void set(std::string_view name, const char* value) {
        set(name, Value(std::string(value)));
    }
    /// True when the slot was explicitly set (defaults do not count).
    bool has(std::string_view name) const;
    /// Returns the slot value, falling back to the declared default; throws
    /// std::out_of_range when the slot is unset and has no default.
    const Value& get(std::string_view name) const;
    const std::string& get_string(std::string_view name) const;
    std::int64_t get_int(std::string_view name) const;
    double get_real(std::string_view name) const;
    bool get_bool(std::string_view name) const;

    // --- references -------------------------------------------------------
    /// Appends to a many-reference / sets a single reference. Containment
    /// references also reparent the target (which must be parentless for
    /// add; set_ref releases any previous child first).
    void add_ref(std::string_view name, Object& target);
    void set_ref(std::string_view name, Object* target);
    void clear_ref(std::string_view name);
    bool remove_ref(std::string_view name, Object& target);
    /// Targets of the reference, declaration order. Empty when unset.
    const std::vector<Object*>& refs(std::string_view name) const;
    /// Single-reference convenience: first target or nullptr.
    Object* ref(std::string_view name) const;

    /// Containing object (via some containment reference) or nullptr.
    Object* parent() const { return parent_; }
    /// The containment reference in parent holding this object, or nullptr.
    const MetaReference* containing_feature() const { return containing_feature_; }

    /// All objects directly contained by this one (all containment refs,
    /// declaration order of the references).
    std::vector<Object*> contained() const;

private:
    /// Layout position of a reference; throws std::invalid_argument naming
    /// the class when it has none called `name`.
    std::size_t checked_reference(std::string_view name) const;

    const MetaClass* meta_;
    std::string id_;
    Object* parent_ = nullptr;
    const MetaReference* containing_feature_ = nullptr;
    /// Indexed by layout position; empty optional = unset.
    std::unique_ptr<std::optional<Value>[]> attrs_;
    std::unique_ptr<std::vector<Object*>[]> refs_;
};

/// Owns all Objects of one model instance and indexes them by id.
class ObjectModel {
public:
    explicit ObjectModel(const Metamodel& meta) : meta_(&meta) {}
    ObjectModel(const ObjectModel&) = delete;
    ObjectModel& operator=(const ObjectModel&) = delete;
    ObjectModel(ObjectModel&& other) noexcept;
    ObjectModel& operator=(ObjectModel&& other) noexcept;
    /// Adds the id slots this model's creates and finds inspected to the
    /// `model.id_probes` counter.
    ~ObjectModel();

    const Metamodel& metamodel() const { return *meta_; }

    /// Creates an instance of `class_name` (must exist and be concrete).
    /// A fresh id is generated when `id` is empty. Throws
    /// std::invalid_argument on a duplicate id and then changes nothing.
    Object& create(std::string_view class_name, std::string id = {});

    /// nullptr when absent.
    Object* find(std::string_view id);
    const Object* find(std::string_view id) const;

    /// Objects with no parent, creation order.
    std::vector<Object*> roots() const;
    /// Every object, creation order.
    std::vector<Object*> objects() const;
    /// All objects whose class conforms to `class_name`, creation order.
    std::vector<Object*> all_of(std::string_view class_name) const;

    std::size_t size() const { return objects_.size(); }

private:
    /// One id table entry; `object == nullptr` marks a free slot.
    struct IdSlot {
        std::size_t hash = 0;
        Object* object = nullptr;
    };

    /// The slot holding `id`, or the free slot where it would go. Only
    /// call with a non-empty table.
    std::size_t probe(std::string_view id, std::size_t hash) const;
    /// Doubles the table (16 slots at first) when one more id would load
    /// it past half. Moves slots by their stored hash.
    void reserve_one();
    void report_probes();

    const Metamodel* meta_;
    /// `roots`, `objects` and `all_of` are const but hand out mutable
    /// objects.
    mutable std::deque<Object> objects_;
    /// Power-of-two open-addressing table, linear probing, at most half
    /// full. Entries point into the deque, which never moves an object.
    std::vector<IdSlot> ids_;
    std::uint64_t next_id_ = 1;
    /// Slots inspected by create/find; relaxed, as const finds may run
    /// concurrently.
    mutable std::atomic<std::uint64_t> probes_{0};
};

}  // namespace uhcg::model
