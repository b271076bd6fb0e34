// identifiers.hpp — unique C identifiers for one generated program or file.
#pragma once

#include <string>
#include <unordered_map>
#include <unordered_set>

#include "simulink/model.hpp"

namespace uhcg::codegen {

/// Each request gets a name no earlier request got, by the
/// System::unique_name rule (`hint`, else the first free `hint_<i>`).
class IdentifierTable {
public:
    std::string make(const std::string& hint) {
        std::string name = simulink::first_free_name(
            hint, [this](const std::string& n) { return used_.count(n) != 0; },
            next_suffix_);
        used_.insert(name);
        return name;
    }

private:
    std::unordered_set<std::string> used_;
    std::unordered_map<std::string, int> next_suffix_;
};

}  // namespace uhcg::codegen
