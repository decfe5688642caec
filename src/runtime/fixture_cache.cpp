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

FixtureCache::Claim FixtureCache::claim(const std::string& key, const std::string& material,
                                        std::type_index type,
                                        std::promise<std::shared_ptr<const void>>& promise) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(key);
  if (it != entries_.end()) {
    Entry& entry = it->second;
    CPS_ENSURE(entry.type == type, "FixtureCache: type mismatch for key '" + key + "'");
    CPS_ENSURE(entry.material == material,
               "FixtureCache: digest collision for key '" + key + "'");
    ++hits_;
    if (entry.ticket == 0 && newest_ != &*it) {
      unlink(*it);
      link_front(*it);
    }
    return Claim{entry.future, 0};
  }
  // misses_ never resets, so the miss ordinal names this entry uniquely.
  const std::uint64_t ticket = ++misses_;
  Future future = promise.get_future().share();
  entries_.emplace(key, Entry{future, type, material, ticket});
  return Claim{std::move(future), ticket};
}

void FixtureCache::publish(const std::string& key, std::uint64_t ticket) {
  Map::node_type evicted;  // destroyed after the lock is released
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(key);
  if (it == entries_.end() || it->second.ticket != ticket) return;  // cleared meanwhile
  it->second.ticket = 0;
  link_front(*it);
  // One entry joined a recency order that was within the cap, so at most
  // one leaves it.
  if (ready_ > kMaxEntries) {
    Slot& oldest = *oldest_;
    unlink(oldest);
    evicted = entries_.extract(oldest.first);
    ++evictions_;
  }
}

void FixtureCache::release(const std::string& key, std::uint64_t ticket) {
  Map::node_type dropped;  // destroyed after the lock is released
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(key);
  if (it != entries_.end() && it->second.ticket == ticket) dropped = entries_.extract(it);
}

void FixtureCache::link_front(Slot& slot) {
  slot.second.older = newest_;
  slot.second.newer = nullptr;
  if (newest_ != nullptr) newest_->second.newer = &slot;
  newest_ = &slot;
  if (oldest_ == nullptr) oldest_ = &slot;
  ++ready_;
}

void FixtureCache::unlink(Slot& slot) {
  Entry& entry = slot.second;
  if (entry.newer != nullptr)
    entry.newer->second.older = entry.older;
  else
    newest_ = entry.older;
  if (entry.older != nullptr)
    entry.older->second.newer = entry.newer;
  else
    oldest_ = entry.newer;
  entry.newer = entry.older = nullptr;
  --ready_;
}

FixtureCache::Stats FixtureCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return Stats{hits_, misses_, entries_.size(), evictions_};
}

void FixtureCache::clear() {
  Map dropped;  // destroyed after the lock is released
  std::lock_guard<std::mutex> lock(mutex_);
  dropped.swap(entries_);
  newest_ = oldest_ = nullptr;
  ready_ = 0;
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
