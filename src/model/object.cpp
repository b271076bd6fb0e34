#include "model/object.hpp"

#include <algorithm>
#include <functional>
#include <utility>

#include "obs/obs.hpp"

namespace uhcg::model {
namespace {

const std::vector<Object*> kNoRefs;

bool type_matches(AttrType type, const Value& value) {
    switch (type) {
        case AttrType::String:
        case AttrType::Enum:
            return std::holds_alternative<std::string>(value);
        case AttrType::Int: return std::holds_alternative<std::int64_t>(value);
        case AttrType::Real:
            // Accept ints for real slots; widen silently.
            return std::holds_alternative<double>(value) ||
                   std::holds_alternative<std::int64_t>(value);
        case AttrType::Bool: return std::holds_alternative<bool>(value);
    }
    return false;
}

/// `new T[n]` for n > 0; classes without attributes or references cost
/// no allocation.
template <typename T>
std::unique_ptr<T[]> slots(std::size_t n) {
    return n == 0 ? nullptr : std::make_unique<T[]>(n);
}

}  // namespace

Object::Object(const MetaClass& meta, std::string id)
    : meta_(&meta),
      id_(std::move(id)),
      attrs_(slots<std::optional<Value>>(meta.all_attributes().size())),
      refs_(slots<std::vector<Object*>>(meta.all_references().size())) {}

bool Object::is_a(std::string_view class_name) const {
    const MetaClass* ancestor = meta_->metamodel().find_class(class_name);
    return ancestor != nullptr && meta_->conforms_to(*ancestor);
}

void Object::set(std::string_view name, Value value) {
    const std::size_t i = meta_->attribute_index(name);
    if (i == MetaClass::npos)
        throw std::invalid_argument("class " + meta_->name() +
                                    " has no attribute '" + std::string(name) + "'");
    const MetaAttribute& decl = *meta_->all_attributes()[i];
    if (!type_matches(decl.type, value))
        throw std::invalid_argument("type mismatch setting " + meta_->name() + "." +
                                    std::string(name));
    if (decl.type == AttrType::Real && std::holds_alternative<std::int64_t>(value))
        value = static_cast<double>(std::get<std::int64_t>(value));
    if (decl.type == AttrType::Enum) {
        const std::string& literal = std::get<std::string>(value);
        if (std::find(decl.literals.begin(), decl.literals.end(), literal) ==
            decl.literals.end())
            throw std::invalid_argument("'" + literal + "' is not a literal of enum " +
                                        meta_->name() + "." + std::string(name));
    }
    attrs_[i] = std::move(value);
}

bool Object::has(std::string_view name) const {
    const std::size_t i = meta_->attribute_index(name);
    return i != MetaClass::npos && attrs_[i].has_value();
}

const Value& Object::get(std::string_view name) const {
    const std::size_t i = meta_->attribute_index(name);
    if (i == MetaClass::npos)
        throw std::out_of_range("class " + meta_->name() + " has no attribute '" +
                                std::string(name) + "'");
    if (attrs_[i]) return *attrs_[i];
    if (const Value* fallback = meta_->attribute_default(i)) return *fallback;
    throw std::out_of_range("attribute " + meta_->name() + "." + std::string(name) +
                            " of object '" + id_ + "' is unset and has no default");
}

const std::string& Object::get_string(std::string_view name) const {
    return std::get<std::string>(get(name));
}
std::int64_t Object::get_int(std::string_view name) const {
    return std::get<std::int64_t>(get(name));
}
double Object::get_real(std::string_view name) const {
    const Value& v = get(name);
    if (std::holds_alternative<std::int64_t>(v))
        return static_cast<double>(std::get<std::int64_t>(v));
    return std::get<double>(v);
}
bool Object::get_bool(std::string_view name) const {
    return std::get<bool>(get(name));
}

std::size_t Object::checked_reference(std::string_view name) const {
    const std::size_t i = meta_->reference_index(name);
    if (i == MetaClass::npos)
        throw std::invalid_argument("class " + meta_->name() + " has no reference '" +
                                    std::string(name) + "'");
    return i;
}

void Object::add_ref(std::string_view name, Object& target) {
    const std::size_t i = checked_reference(name);
    const MetaReference& decl = *meta_->all_references()[i];
    const MetaClass* target_class = meta_->reference_target(i);
    if (target_class && !target.meta().conforms_to(*target_class))
        throw std::invalid_argument("object of class " + target.meta().name() +
                                    " cannot be referenced by " + meta_->name() + "." +
                                    decl.name + " (expects " + decl.target + ")");
    std::vector<Object*>& slot = refs_[i];
    if (!decl.many && !slot.empty())
        throw std::invalid_argument("reference " + meta_->name() + "." + decl.name +
                                    " is single-valued and already set");
    if (decl.containment) {
        if (target.parent_ != nullptr)
            throw std::invalid_argument("object '" + target.id() +
                                        "' is already contained elsewhere");
        target.parent_ = this;
        target.containing_feature_ = &decl;
    }
    slot.push_back(&target);
}

void Object::set_ref(std::string_view name, Object* target) {
    clear_ref(name);
    if (target != nullptr) add_ref(name, *target);
}

void Object::clear_ref(std::string_view name) {
    const std::size_t i = checked_reference(name);
    std::vector<Object*>& slot = refs_[i];
    if (meta_->all_references()[i]->containment) {
        for (Object* child : slot) {
            child->parent_ = nullptr;
            child->containing_feature_ = nullptr;
        }
    }
    slot.clear();
}

bool Object::remove_ref(std::string_view name, Object& target) {
    const std::size_t i = checked_reference(name);
    std::vector<Object*>& slot = refs_[i];
    auto pos = std::find(slot.begin(), slot.end(), &target);
    if (pos == slot.end()) return false;
    if (meta_->all_references()[i]->containment) {
        target.parent_ = nullptr;
        target.containing_feature_ = nullptr;
    }
    slot.erase(pos);
    return true;
}

const std::vector<Object*>& Object::refs(std::string_view name) const {
    return refs_[checked_reference(name)];  // diagnoses typos on unset slots too
}

Object* Object::ref(std::string_view name) const {
    const auto& slot = refs(name);
    return slot.empty() ? nullptr : slot.front();
}

std::vector<Object*> Object::contained() const {
    std::vector<Object*> out;
    const auto& decls = meta_->all_references();
    for (std::size_t i = 0; i < decls.size(); ++i)
        if (decls[i]->containment)
            out.insert(out.end(), refs_[i].begin(), refs_[i].end());
    return out;
}

ObjectModel::ObjectModel(ObjectModel&& other) noexcept
    : meta_(other.meta_),
      objects_(std::move(other.objects_)),
      ids_(std::move(other.ids_)),
      next_id_(other.next_id_),
      probes_(other.probes_.exchange(0, std::memory_order_relaxed)) {}

ObjectModel& ObjectModel::operator=(ObjectModel&& other) noexcept {
    report_probes();
    meta_ = other.meta_;
    objects_ = std::move(other.objects_);
    ids_ = std::move(other.ids_);
    next_id_ = other.next_id_;
    probes_.store(other.probes_.exchange(0, std::memory_order_relaxed),
                  std::memory_order_relaxed);
    return *this;
}

ObjectModel::~ObjectModel() { report_probes(); }

void ObjectModel::report_probes() {
    static obs::Counter& probes = obs::counter("model.id_probes");
    if (std::uint64_t n = probes_.exchange(0, std::memory_order_relaxed))
        probes.add(n);
}

std::size_t ObjectModel::probe(std::string_view id, std::size_t hash) const {
    const std::size_t mask = ids_.size() - 1;
    std::size_t i = hash & mask;
    std::uint64_t inspected = 1;
    for (; ids_[i].object != nullptr; i = (i + 1) & mask, ++inspected)
        if (ids_[i].hash == hash && ids_[i].object->id() == id) break;
    probes_.fetch_add(inspected, std::memory_order_relaxed);
    return i;
}

void ObjectModel::reserve_one() {
    if (2 * (objects_.size() + 1) <= ids_.size()) return;
    std::vector<IdSlot> grown(ids_.empty() ? 16 : 2 * ids_.size());
    const std::size_t mask = grown.size() - 1;
    for (const IdSlot& slot : ids_) {
        if (slot.object == nullptr) continue;
        std::size_t i = slot.hash & mask;
        while (grown[i].object != nullptr) i = (i + 1) & mask;
        grown[i] = slot;
    }
    ids_ = std::move(grown);
}

Object& ObjectModel::create(std::string_view class_name, std::string id) {
    const MetaClass& meta = meta_->get_class(class_name);
    if (meta.is_abstract())
        throw std::invalid_argument("cannot instantiate abstract class " +
                                    meta.name());
    reserve_one();
    const std::hash<std::string_view> hasher;
    std::size_t hash = 0;
    std::size_t at = 0;
    if (id.empty()) {
        do {
            id = "_" + std::to_string(next_id_++);
            hash = hasher(id);
            at = probe(id, hash);
        } while (ids_[at].object != nullptr);
    } else {
        hash = hasher(id);
        at = probe(id, hash);
        if (ids_[at].object != nullptr)
            throw std::invalid_argument("duplicate object id: " + id);
    }
    Object& obj = objects_.emplace_back(meta, std::move(id));
    ids_[at] = {hash, &obj};
    return obj;
}

Object* ObjectModel::find(std::string_view id) {
    return const_cast<Object*>(std::as_const(*this).find(id));
}

const Object* ObjectModel::find(std::string_view id) const {
    if (ids_.empty()) return nullptr;
    return ids_[probe(id, std::hash<std::string_view>{}(id))].object;
}

std::vector<Object*> ObjectModel::roots() const {
    std::vector<Object*> out;
    for (Object& obj : objects_)
        if (obj.parent() == nullptr) out.push_back(&obj);
    return out;
}

std::vector<Object*> ObjectModel::objects() const {
    std::vector<Object*> out;
    out.reserve(objects_.size());
    for (Object& obj : objects_) out.push_back(&obj);
    return out;
}

std::vector<Object*> ObjectModel::all_of(std::string_view class_name) const {
    std::vector<Object*> out;
    const MetaClass* cls = meta_->find_class(class_name);
    if (cls == nullptr) return out;
    for (Object& obj : objects_)
        if (obj.meta().conforms_to(*cls)) out.push_back(&obj);
    return out;
}

}  // namespace uhcg::model
