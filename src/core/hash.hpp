// hash.hpp — 64-bit FNV-1a, the repo's one fingerprint primitive.
//
// Every persisted or cached identity hashes through here: checkpoint keys,
// campaign job ids and journal self-hashes, serve model-cache keys and the
// DSE's graph/clustering/cost-model fingerprints. Callers chain fields by
// passing the previous hash as the seed. Two seeds are in use and must
// never change, or every stored key changes with them:
//
//   kFnvOffset     the standard FNV-1a offset basis (checkpoint, campaign,
//                  journal and serve cache keys);
//   kDseFnvOffset  the DSE fingerprint seed (its historical value, one
//                  digit short of the standard basis).
#pragma once

#include <bit>
#include <cstdint>
#include <string_view>

namespace uhcg::core {

inline constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;
inline constexpr std::uint64_t kDseFnvOffset = 1469598103934665603ull;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/// FNV-1a over `bytes`, continuing from `hash`.
constexpr std::uint64_t fnv1a(std::string_view bytes,
                              std::uint64_t hash = kFnvOffset) {
    for (unsigned char byte : bytes) {
        hash ^= byte;
        hash *= kFnvPrime;
    }
    return hash;
}

/// FNV-1a over the 8 little-endian bytes of `value`, continuing from `hash`.
constexpr std::uint64_t fnv1a_u64(std::uint64_t value, std::uint64_t hash) {
    char bytes[8] = {};
    for (int i = 0; i < 8; ++i)
        bytes[i] = static_cast<char>((value >> (i * 8)) & 0xffu);
    return fnv1a(std::string_view(bytes, 8), hash);
}

/// FNV-1a over the bit pattern of `value` (see fnv1a_u64).
constexpr std::uint64_t fnv1a_f64(double value, std::uint64_t hash) {
    return fnv1a_u64(std::bit_cast<std::uint64_t>(value), hash);
}

}  // namespace uhcg::core
