// FNV-1a 64: the one content hash of the repository.
//
// It names fixture keys and fixture-store files (runtime/fixture_cache),
// checks store files (runtime/fixture_store), digests campaign specs
// (runtime/campaign_spec), keys the online world's per-app arrival
// streams (online/world) and fingerprints daemon answers (cps_query).
// Every one of those values is persisted or compared across builds, so
// the hash and its 16-digit rendering must never change; the values are
// pinned by tests/util_test.cpp and the suites of each user.
//
// Header-only so the byte loop inlines into its callers (FixtureKey::str
// hashes the key material once per fixture lookup).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace cps::util {

/// FNV-1a 64 of `bytes`.
inline std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;  // FNV offset basis
  for (const char byte : bytes) {
    hash ^= static_cast<unsigned char>(byte);
    hash *= 0x100000001b3ULL;  // FNV prime
  }
  return hash;
}

/// Write `value` as 16 lowercase hex digits, zero-padded, to out[0, 16).
inline void write_hex64(std::uint64_t value, char* out) {
  static constexpr char kDigits[] = "0123456789abcdef";
  for (std::size_t i = 0; i < 16; ++i) out[15 - i] = kDigits[(value >> (4 * i)) & 0xF];
}

/// `value` as 16 lowercase hex digits, zero-padded.
inline std::string hex64(std::uint64_t value) {
  std::string out(16, '0');
  write_hex64(value, &out[0]);
  return out;
}

}  // namespace cps::util
