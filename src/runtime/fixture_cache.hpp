// Content-addressed fixture cache for the experiment-runner subsystem.
//
// A cps_run campaign executes many experiments that share expensive
// deterministic inputs — the servo dwell/wait curve (fig3, fig4, benches),
// the synthesized six-plant fleet and its hybrid loop designs (table1,
// fig5, ablation_envelope), the per-application envelope curves.  The
// first requester computes a fixture once and every later requester (on
// any ThreadPool worker) shares the immutable result.  Every lookup goes
// through one entry point:
//
//   FixtureHandle<T>(key)[.with_codec(format)].get(compute[, cache])
//
// Keys are content-addressed: FixtureKey hashes every input that
// determines the fixture (matrices entry by entry, scalars bit by bit),
// so two requests share a slot exactly when their inputs are identical.
// The full key material is stored alongside the digest and re-verified on
// every hit, so a 64-bit hash collision surfaces as a loud error instead
// of silently aliasing a stale fixture.  Values are
// immutable (shared_ptr<const T>), which is what makes sharing across
// SweepRunner tasks safe and keeps the determinism contract intact: a
// cache hit returns the very object a miss would have computed.
//
// The cache is bounded: it holds at most FixtureCache::kMaxEntries
// computed fixtures and evicts the least recently used one past that, so
// a long-lived process (cps_serve asked for ever new fleet seeds) stops
// growing.  Eviction is invisible in every output: a later request for
// an evicted key recomputes it — or loads it from the store — to a value
// bit-identical to the one evicted, because the key content-addresses it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <typeindex>
#include <unordered_map>
#include <utility>

#include "runtime/fixture_store.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/serialize.hpp"

namespace cps::runtime {

/// Builder of content-addressed cache keys: the fields added, encoded
/// as util::BinaryWriter writes them (little-endian, doubles by bit
/// pattern, strings and containers length-prefixed), hashed with FNV-1a
/// 64 (util/hash.hpp).  The rendered key is "<domain>/<16-hex-digits>",
/// so the domain keeps keys debuggable while the hash carries the
/// content.
class FixtureKey {
 public:
  /// Start a key in `domain` (a short fixture-family name, e.g.
  /// "dwell_wait_curve").
  explicit FixtureKey(std::string domain) : domain_(std::move(domain)) {}

  /// Mix every value in order (doubles, integers, strings, matrices,
  /// vectors: anything BinaryWriter writes).
  template <typename... Ts>
  FixtureKey& add(const Ts&... values) {
    material_(values...);
    return *this;
  }

  /// The rendered key; stable across processes and platforms with IEEE-754
  /// doubles.
  std::string str() const;

  /// Every byte mixed into the hash, in order — stored by the cache and
  /// compared on hits so a digest collision cannot alias fixtures.
  const std::string& material() const { return material_.bytes(); }

 private:
  std::string domain_;
  util::BinaryWriter material_;
};

template <typename T>
class FixtureHandle;

/// Process-wide, thread-safe store of computed fixtures.
///
/// Concurrency contract: the first thread to request a key computes the
/// fixture *outside* the cache lock; every concurrent requester of the
/// same key blocks on a shared future and receives the same shared_ptr
/// (compute-once, share-everywhere).  A compute that throws propagates
/// the exception to every waiter and releases the key so a later request
/// can retry.
///
/// Bounded, least recently used: at most kMaxEntries computed fixtures
/// stay resident.  A hit moves its entry to the front of the recency
/// order and a finished compute enters at the front; past the cap the
/// entry at the back is evicted.  Entries still computing are never
/// evicted (their waiters hold the future).  Evicted values are released
/// outside the cache lock, and a shared_ptr already handed out stays
/// valid.  A hit therefore returns the identical object a miss produced
/// only while the entry is resident; after an eviction the key is
/// computed (or loaded from the store) again, to an equal value.
///
/// Two-level operation: attach a FixtureStore (set_store) and
/// codec-carrying requests consult the disk layer on a memory miss — a
/// valid store file is decoded instead of computed, and a fresh compute
/// is persisted for the next process.  Without a store (or for
/// codec-less requests) it is a memory-only cache.
///
/// A codec is T's one field list (util/serialize.hpp) under a versioned
/// format tag (e.g. "dwell_wait_curve/v1"): bump the version whenever
/// the layout changes, so stale files are recomputed instead of misread.
/// The walk reproduces every double from its IEEE-754 bit pattern, so a
/// value decoded from disk is bit-identical to a fresh compute.
///
/// API: FixtureHandle<T> (below) is the single entry point — it binds
/// the key (content-addressed FixtureKey or recipe-name string) and the
/// optional format tag once, and get() runs the lookup.
class FixtureCache {
 public:
  /// Computed fixtures kept resident.  Every measured working set is far
  /// smaller (a whole `cps_run all` holds 50), so only a process asked
  /// for ever new keys — a daemon serving never-seen fleet seeds — evicts.
  static constexpr std::size_t kMaxEntries = 4096;

  /// The singleton shared by every experiment in the process.
  static FixtureCache& instance();

  /// Hit/miss/entry/eviction counters (monotonic within a process, except
  /// entries which clear() resets).  A "miss" counts the requester that
  /// computes.
  struct Stats {
    std::size_t hits = 0;       ///< requests served from the cache
    std::size_t misses = 0;     ///< requests that computed the fixture
    std::size_t entries = 0;    ///< fixtures stored or being computed
    std::size_t evictions = 0;  ///< least recently used fixtures dropped at the cap
  };

  /// Attach (or detach, with nullptr) the persistent second level.  Set
  /// once at process start — cps_run wires --fixture-store here before
  /// any experiment runs.
  void set_store(std::shared_ptr<FixtureStore> store);

  /// The attached store, or nullptr.
  std::shared_ptr<FixtureStore> store() const;

 private:
  /// Wrap `compute` with the disk layer: on a memory miss the owner
  /// thread first tries the store, and persists what it computes.
  template <typename T, typename Fn>
  auto stored_compute(const std::string& key, const std::string& material,
                      const std::string& format, Fn&& compute) {
    return [this, key, material, format, compute = std::forward<Fn>(compute)]() -> T {
      const auto store = this->store();
      if (store) {
        if (auto payload = store->load(key, format, material)) {
          try {
            return util::BinaryReader(*payload).read_all<T>();
          } catch (const std::exception& error) {
            // Truncation (SerializeError) or a value-invariant violation
            // thrown by a constructor inside the read: either way the file
            // is unusable — same warn-and-recompute contract as a failed
            // checksum, never a failed campaign.
            store->record_undecodable();
            std::fprintf(stderr,
                         "[fixture-store] WARNING: %s: payload undecodable (%s) — "
                         "recomputing\n",
                         key.c_str(), error.what());
          }
        }
      }
      T value = compute();
      if (store) {
        util::BinaryWriter writer;
        writer(value);
        store->save(key, format, material, writer.bytes());
      }
      return value;
    };
  }

  template <typename T, typename Fn>
  std::shared_ptr<const T> get_or_compute_impl(const std::string& key,
                                               const std::string& material, Fn&& compute) {
    std::promise<std::shared_ptr<const void>> promise;
    const Claim claimed = claim(key, material, std::type_index(typeid(T)), promise);
    if (claimed.ticket == 0)  // the future resolves outside the lock: waiting cannot deadlock
      return std::static_pointer_cast<const T>(claimed.future.get());
    std::shared_ptr<const T> value;
    try {
      value = std::make_shared<T>(compute());
    } catch (...) {
      release(key, claimed.ticket);  // so a later request retries
      promise.set_exception(std::current_exception());
      throw;
    }
    promise.set_value(value);
    publish(key, claimed.ticket);
    return value;
  }

 public:
  /// Snapshot of the hit/miss/entry/eviction counters.
  Stats stats() const;

  /// Drop every entry (tests and long-lived embedders; experiments never
  /// need this — fixtures are immutable).
  void clear();

 private:
  template <typename T>
  friend class FixtureHandle;

  using Future = std::shared_future<std::shared_ptr<const void>>;

  /// What a lookup got: the future to wait on and, for the one requester
  /// that must compute, the ticket naming its entry (0 for everyone else).
  struct Claim {
    Future future;
    std::uint64_t ticket = 0;
  };

  /// Look `key` up.  A hit checks the type and the key material and
  /// returns the entry's future; a miss inserts an entry computing under
  /// `promise` and hands the caller its ticket.
  Claim claim(const std::string& key, const std::string& material, std::type_index type,
              std::promise<std::shared_ptr<const void>>& promise);

  /// The owner's compute finished: its entry, if still the one holding
  /// `key`, enters the recency order at the front, evicting the back
  /// entry past kMaxEntries.
  void publish(const std::string& key, std::uint64_t ticket);

  /// The owner's compute threw: drop its entry, if still the one holding
  /// `key` — never a newer requester's entry after a racing clear().
  void release(const std::string& key, std::uint64_t ticket);

  struct Entry;
  using Slot = std::pair<const std::string, Entry>;  ///< a map element: key + entry

  struct Entry {
    Future future;
    std::type_index type;
    std::string material;  ///< full key bytes, re-checked on every hit
    /// The computing requester's ticket (its miss ordinal, unique per
    /// insertion); 0 once the value is ready and the entry is in the
    /// recency order.
    std::uint64_t ticket;
    Slot* newer = nullptr;  ///< recency links among the ready entries
    Slot* older = nullptr;
  };
  using Map = std::unordered_map<std::string, Entry>;

  void link_front(Slot& slot);
  void unlink(Slot& slot);

  mutable std::mutex mutex_;
  Map entries_;
  Slot* newest_ = nullptr;  ///< front of the recency order
  Slot* oldest_ = nullptr;  ///< back: the next eviction
  std::size_t ready_ = 0;   ///< entries in the recency order
  std::shared_ptr<FixtureStore> store_;  ///< optional persistent level
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
  std::size_t evictions_ = 0;
};

/// The single fixture entry point: one handle binds WHAT identifies a
/// fixture (key + material) and HOW it persists (optional format tag); get()
/// runs the two-level lookup.  Each combination of key kind and
/// persistence is one constructor choice plus an optional with_codec(),
/// and every lookup funnels through the same implementation:
///
///   auto fleet = FixtureHandle<Fleet>(key)         // content-addressed
///                    .with_codec("fleet/v1")       // optional disk layer
///                    .get([] { return make(); });  // compute on miss
///
/// Handles are cheap value types (the key, its material, an optional tag);
/// build them ad hoc at the call site.  get() defaults to the process
/// singleton cache; tests pass their own FixtureCache.
template <typename T>
class FixtureHandle {
 public:
  /// Content-addressed handle: identity is the key's mixed-in content.
  explicit FixtureHandle(const FixtureKey& key)
      : key_(key.str()), material_(key.material()) {}

  /// Recipe-named handle for nullary fixtures: identity is the
  /// (versioned) name itself.
  explicit FixtureHandle(std::string key) : key_(std::move(key)), material_(key_) {}

  /// Persist through T's field list under the versioned layout tag
  /// `format` (see FixtureCache); without one the handle is memory-only
  /// even when the cache has a store attached.
  FixtureHandle& with_codec(std::string format) {
    format_ = std::move(format);
    return *this;
  }

  /// Look up; on a miss invoke `compute` (callable returning T by value)
  /// — via the disk layer when a codec is attached and `cache` has a
  /// store.  Same sharing, collision and error contracts as always
  /// (documented on FixtureCache).
  template <typename Fn>
  std::shared_ptr<const T> get(Fn&& compute,
                               FixtureCache& cache = FixtureCache::instance()) const {
    if (format_)
      return cache.get_or_compute_impl<T>(
          key_, material_,
          cache.stored_compute<T>(key_, material_, *format_, std::forward<Fn>(compute)));
    return cache.get_or_compute_impl<T>(key_, material_, std::forward<Fn>(compute));
  }

  /// The rendered cache key ("<domain>/<16-hex>" or the recipe name).
  const std::string& key() const { return key_; }

 private:
  std::string key_;
  std::string material_;
  std::optional<std::string> format_;  ///< codec tag; empty: memory-only
};

}  // namespace cps::runtime
