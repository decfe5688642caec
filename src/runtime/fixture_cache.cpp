#include "runtime/fixture_cache.hpp"

#include <cstring>

namespace cps::runtime {

FixtureKey::FixtureKey(std::string domain) : domain_(std::move(domain)) {}

void FixtureKey::mix_bytes(const void* data, std::size_t size) {
  hash_.add(data, size);
  material_.append(static_cast<const char*>(data), size);
}

FixtureKey& FixtureKey::add(double value) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value), "IEEE-754 double expected");
  std::memcpy(&bits, &value, sizeof(bits));
  mix_bytes(&bits, sizeof(bits));
  return *this;
}

FixtureKey& FixtureKey::add(std::uint64_t value) {
  mix_bytes(&value, sizeof(value));
  return *this;
}

FixtureKey& FixtureKey::add(std::string_view text) {
  const std::uint64_t size = text.size();  // length prefix: "ab"+"c" != "a"+"bc"
  mix_bytes(&size, sizeof(size));
  mix_bytes(text.data(), text.size());
  return *this;
}

FixtureKey& FixtureKey::add(const linalg::Matrix& m) {
  add(static_cast<std::uint64_t>(m.rows()));
  add(static_cast<std::uint64_t>(m.cols()));
  const double* data = m.data();
  for (std::size_t i = 0; i < m.element_count(); ++i) add(data[i]);
  return *this;
}

FixtureKey& FixtureKey::add(const linalg::Vector& v) {
  add(static_cast<std::uint64_t>(v.size()));
  const double* data = v.data();
  for (std::size_t i = 0; i < v.size(); ++i) add(data[i]);
  return *this;
}

std::string FixtureKey::str() const {
  // Rendered once per fixture lookup: build it in a single allocation.
  std::string out(domain_.size() + 17, '/');
  domain_.copy(&out[0], domain_.size());
  util::write_hex64(hash_.value(), &out[domain_.size() + 1]);
  return out;
}

FixtureCache& FixtureCache::instance() {
  static FixtureCache cache;
  return cache;
}

FixtureCache::Stats FixtureCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return Stats{hits_, misses_, entries_.size()};
}

void FixtureCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
}

void FixtureCache::set_store(std::shared_ptr<FixtureStore> store) {
  std::lock_guard<std::mutex> lock(mutex_);
  store_ = std::move(store);
}

std::shared_ptr<FixtureStore> FixtureCache::store() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return store_;
}

}  // namespace cps::runtime
