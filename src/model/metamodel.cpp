#include "model/metamodel.hpp"

#include <set>

namespace uhcg::model {

std::string_view to_string(AttrType type) {
    switch (type) {
        case AttrType::String: return "string";
        case AttrType::Int: return "int";
        case AttrType::Real: return "real";
        case AttrType::Bool: return "bool";
        case AttrType::Enum: return "enum";
    }
    return "?";
}

std::string value_to_string(const Value& value) {
    return std::visit(
        [](const auto& v) -> std::string {
            using T = std::decay_t<decltype(v)>;
            if constexpr (std::is_same_v<T, std::string>) {
                return v;
            } else if constexpr (std::is_same_v<T, bool>) {
                return v ? "true" : "false";
            } else {
                return std::to_string(v);
            }
        },
        value);
}

Value value_from_string(AttrType type, const std::string& text) {
    // `used` is how much of `text` the number took; "12abc" is not an int.
    auto whole = [&text](auto parsed, std::size_t used) {
        if (used != text.size()) throw std::invalid_argument("trailing characters");
        return parsed;
    };
    try {
        std::size_t used = 0;
        switch (type) {
            case AttrType::String:
            case AttrType::Enum:
                return text;
            case AttrType::Int: {
                auto parsed = static_cast<std::int64_t>(std::stoll(text, &used));
                return whole(parsed, used);
            }
            case AttrType::Real: {
                double parsed = std::stod(text, &used);
                return whole(parsed, used);
            }
            case AttrType::Bool:
                if (text == "true" || text == "1") return true;
                if (text == "false" || text == "0") return false;
                throw std::invalid_argument("not a bool");
        }
    } catch (const std::exception&) {
        throw std::invalid_argument("cannot parse '" + text + "' as " +
                                    std::string(to_string(type)));
    }
    throw std::invalid_argument("unknown attribute type");
}

void MetaClass::check_mutable() const {
    if (frozen_.load(std::memory_order_acquire))
        throw std::logic_error("metaclass " + name_ +
                               " is in use and can no longer change");
}

void MetaClass::set_abstract(bool value) {
    check_mutable();
    abstract_ = value;
}

void MetaClass::set_super(std::string name) {
    check_mutable();
    super_name_ = std::move(name);
}

const MetaClass* MetaClass::resolve_super() const {
    if (super_name_.empty()) return nullptr;
    return owner_->find_class(super_name_);
}

MetaAttribute& MetaClass::add_attribute(MetaAttribute attr) {
    check_mutable();
    attrs_.push_back(std::move(attr));
    return attrs_.back();
}

MetaReference& MetaClass::add_reference(MetaReference ref) {
    check_mutable();
    refs_.push_back(std::move(ref));
    return refs_.back();
}

namespace {

using Lookup = std::vector<std::pair<std::string_view, std::size_t>>;

std::size_t find_in(const Lookup& lookup, std::string_view name) {
    for (const auto& [n, index] : lookup)
        if (n == name) return index;
    return MetaClass::npos;
}

/// `own` (first declaration per name, `own[j]` at layout position
/// `first + j`) ahead of the `base` entries it does not redeclare.
template <typename Feature>
Lookup make_lookup(const std::vector<Feature>& own, std::size_t first,
                   const Lookup& base) {
    Lookup out;
    for (std::size_t j = 0; j < own.size(); ++j)
        if (find_in(out, own[j].name) == MetaClass::npos)
            out.emplace_back(own[j].name, first + j);
    for (const auto& entry : base)
        if (find_in(out, entry.first) == MetaClass::npos) out.push_back(entry);
    return out;
}

}  // namespace

void MetaClass::build_layout() const {
    static const Layout kNoBase;
    const MetaClass* super = resolve_super();
    // A cyclic chain would re-enter a call_once that is still running.
    std::size_t steps = 0;
    for (const MetaClass* c = super; c != nullptr; c = c->resolve_super())
        if (c == this || ++steps > owner_->order_.size())
            throw std::logic_error("inheritance cycle through class " + name_);
    const Layout& base = super != nullptr ? super->layout() : kNoBase;
    Layout out = base;  // inherited features first
    out.super = super;
    out.attribute_lookup =
        make_lookup(attrs_, base.attributes.size(), base.attribute_lookup);
    out.reference_lookup =
        make_lookup(refs_, base.references.size(), base.reference_lookup);
    for (const MetaAttribute& a : attrs_) {
        out.attributes.push_back(&a);
        std::optional<Value>& parsed = out.defaults.emplace_back();
        std::exception_ptr& error = out.default_errors.emplace_back();
        if (!a.default_value) continue;
        try {
            parsed = value_from_string(a.type, *a.default_value);
        } catch (const std::invalid_argument&) {
            error = std::current_exception();  // rethrown by every read
        }
    }
    for (const MetaReference& r : refs_) {
        out.references.push_back(&r);
        out.targets.push_back(owner_->find_class(r.target));
    }
    layout_ = std::move(out);
    owner_->frozen_.store(true, std::memory_order_release);
    frozen_.store(true, std::memory_order_release);
}

const MetaAttribute* MetaClass::find_attribute(std::string_view name) const {
    std::size_t i = attribute_index(name);
    return i == npos ? nullptr : all_attributes()[i];
}

const MetaReference* MetaClass::find_reference(std::string_view name) const {
    std::size_t i = reference_index(name);
    return i == npos ? nullptr : all_references()[i];
}

std::size_t MetaClass::attribute_index(std::string_view name) const {
    return find_in(layout().attribute_lookup, name);
}

std::size_t MetaClass::reference_index(std::string_view name) const {
    return find_in(layout().reference_lookup, name);
}

const Value* MetaClass::attribute_default(std::size_t index) const {
    const Layout& l = layout();
    if (l.default_errors[index]) std::rethrow_exception(l.default_errors[index]);
    return l.defaults[index] ? &*l.defaults[index] : nullptr;
}

bool MetaClass::conforms_to(const MetaClass& ancestor) const {
    for (const MetaClass* c = this; c != nullptr; c = c->super())
        if (c == &ancestor) return true;
    return false;
}

MetaClass& Metamodel::add_class(std::string name) {
    if (frozen_.load(std::memory_order_acquire))
        throw std::logic_error("metamodel '" + name_ + "' is in use; cannot add class " +
                               name);
    auto [it, inserted] =
        classes_.emplace(name, std::make_unique<MetaClass>(name, this));
    if (!inserted)
        throw std::invalid_argument("duplicate metaclass: " + name);
    order_.push_back(it->second.get());
    return *it->second;
}

const MetaClass* Metamodel::find_class(std::string_view name) const {
    auto it = classes_.find(name);
    return it == classes_.end() ? nullptr : it->second.get();
}

MetaClass* Metamodel::find_class(std::string_view name) {
    auto it = classes_.find(name);
    return it == classes_.end() ? nullptr : it->second.get();
}

const MetaClass& Metamodel::get_class(std::string_view name) const {
    if (const MetaClass* c = find_class(name)) return *c;
    throw std::out_of_range("metamodel '" + name_ + "' has no class '" +
                            std::string(name) + "'");
}

std::vector<const MetaClass*> Metamodel::classes() const { return order_; }

std::vector<std::string> Metamodel::check() const {
    std::vector<std::string> problems;
    for (const MetaClass* c : order_) {
        // Inheritance chain must resolve and be acyclic.
        std::set<const MetaClass*> seen;
        for (const MetaClass* s = c; s != nullptr; s = s->resolve_super()) {
            if (!seen.insert(s).second) {
                problems.push_back("inheritance cycle through class " + c->name());
                break;
            }
        }
        for (const auto& a : c->own_attributes()) {
            if (a.type == AttrType::Enum && a.literals.empty())
                problems.push_back("enum attribute " + c->name() + "." + a.name +
                                   " has no literals");
        }
        for (const auto& r : c->own_references()) {
            if (!find_class(r.target))
                problems.push_back("reference " + c->name() + "." + r.name +
                                   " targets unknown class " + r.target);
        }
    }
    return problems;
}

}  // namespace uhcg::model
