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
// Header-only so the byte loop inlines into FixtureKey::add, which runs
// on every fixture lookup.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace cps::util {

/// Streaming FNV-1a 64: add() byte ranges in order, read value().
class Fnv1a64 {
 public:
  /// Mix `size` bytes at `data`.
  void add(const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ ^= bytes[i];
      hash_ *= 0x100000001b3ULL;  // FNV prime
    }
  }
  void add(std::string_view bytes) { add(bytes.data(), bytes.size()); }

  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;  // FNV offset basis
};

/// FNV-1a 64 of `bytes` in one call.
inline std::uint64_t fnv1a64(std::string_view bytes) {
  Fnv1a64 hash;
  hash.add(bytes);
  return hash.value();
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
