#include "runtime/fixture_cache.hpp"

namespace cps::runtime {

std::string FixtureKey::str() const {
  // Rendered once per fixture lookup: build it in a single allocation.
  std::string out(domain_.size() + 17, '/');
  domain_.copy(&out[0], domain_.size());
  util::write_hex64(util::fnv1a64(material()), &out[domain_.size() + 1]);
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
