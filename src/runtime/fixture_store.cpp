#include "runtime/fixture_store.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <utility>

#include "runtime/crash_point.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/serialize.hpp"

namespace cps::runtime {

namespace {

// File layout (everything after the magic is BinaryWriter-encoded):
//   magic            "CPSFIXS\n" (8 bytes)
//   u64              container version (util::kSerializeFormatVersion)
//   string           codec format tag, e.g. "dwell_wait_curve/v1"
//   string           full FixtureKey material (re-verified on load)
//   string           codec payload
//   u64              FNV-1a 64 over every byte between magic and here
constexpr char kMagic[8] = {'C', 'P', 'S', 'F', 'I', 'X', 'S', '\n'};

/// Canonical spelling of a store file path.  path_of() concatenates with
/// '/' while the gc scan walks a directory iterator; a store directory
/// given with a trailing slash would otherwise make the same file spell
/// two ways ("store//x.fix" vs "store/x.fix") and break the touched-file
/// (working-set) protection of gc_to_max_bytes.
std::string normalized_path(const std::string& path) {
  return std::filesystem::path(path).lexically_normal().string();
}

}  // namespace

FixtureStore::FixtureStore(std::string directory) : directory_(std::move(directory)) {
  CPS_ENSURE(!directory_.empty(), "FixtureStore: directory must be non-empty");
  std::error_code error;
  std::filesystem::create_directories(directory_, error);
  if (error)
    throw Error("FixtureStore: cannot create '" + directory_ + "': " + error.message());
}

std::string FixtureStore::path_of(const std::string& key) const {
  // Keys are "<domain>/<16 hex digits>"; the domain becomes a
  // subdirectory so stores stay browsable per fixture family.
  return directory_ + "/" + key + ".fix";
}

std::optional<std::string> FixtureStore::load(const std::string& key, std::string_view format,
                                              std::string_view material) const {
  const std::string path = path_of(key);
  std::string blob;
  {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.disk_misses;
      return std::nullopt;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    blob = std::move(buffer).str();
  }

  auto invalid = [&](const std::string& why) -> std::optional<std::string> {
    std::fprintf(stderr,
                 "[fixture-store] WARNING: %s: %s — recomputing this fixture "
                 "(the file will be overwritten)\n",
                 path.c_str(), why.c_str());
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.invalid;
    ++stats_.disk_misses;
    return std::nullopt;
  };

  if (blob.size() < sizeof(kMagic) + 8 ||
      blob.compare(0, sizeof(kMagic), kMagic, sizeof(kMagic)) != 0)
    return invalid("not a fixture-store file (bad magic or truncated)");

  const std::string_view body(blob.data() + sizeof(kMagic),
                              blob.size() - sizeof(kMagic) - 8);
  {
    util::BinaryReader trailer(
        std::string_view(blob.data() + blob.size() - 8, 8));
    if (trailer.read_u64() != util::fnv1a64(body))
      return invalid("checksum mismatch (corrupt file)");
  }

  try {
    util::BinaryReader reader(body);
    if (reader.read_u64() != util::kSerializeFormatVersion)
      return invalid("container version skew");
    const std::string stored_format = reader.read_string();
    if (stored_format != format)
      return invalid("codec format skew (stored '" + stored_format + "', expected '" +
                     std::string(format) + "')");
    const std::string stored_material = reader.read_string();
    // The loud-collision contract of the in-memory layer: a matching
    // digest with different key material is a real 64-bit collision and
    // must never alias — fail the run instead of returning a wrong value.
    if (stored_material != material)
      throw Error("FixtureStore: digest collision for key '" + key +
                  "' (stored key material differs); use a different fixture domain");
    std::string payload = reader.read_string();
    reader.expect_end();
    // Bump the mtime so it doubles as a recency stamp for the LRU
    // eviction (gc_to_max_bytes); best effort, failures are harmless.
    std::error_code touch_error;
    std::filesystem::last_write_time(path, std::filesystem::file_time_type::clock::now(),
                                     touch_error);
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.disk_hits;
    touched_.insert(normalized_path(path));
    return payload;
  } catch (const util::SerializeError& error) {
    return invalid(std::string("undecodable (") + error.what() + ")");
  }
}

void FixtureStore::save(const std::string& key, std::string_view format,
                        std::string_view material, std::string_view payload) const {
  const std::string path = path_of(key);

  util::BinaryWriter writer;
  writer.write_u64(util::kSerializeFormatVersion);
  writer.write_string(format);
  writer.write_string(material);
  writer.write_string(payload);
  const std::uint64_t checksum = util::fnv1a64(writer.bytes());

  auto warn = [&](const std::string& why) {
    std::fprintf(stderr, "[fixture-store] WARNING: cannot persist %s: %s\n", path.c_str(),
                 why.c_str());
  };

  std::error_code error;
  std::filesystem::create_directories(std::filesystem::path(path).parent_path(), error);
  if (error) return warn(error.message());

  // Unique temp name per process + per-process sequence number, claimed
  // with O_EXCL, so two shards publishing the same digest can never open
  // the SAME temp file and interleave writes (pid disambiguates across
  // processes, the counter within one, O_EXCL catches pid reuse after a
  // crash); rename() then publishes the file atomically (POSIX), so
  // readers see either nothing or a whole file — never a torn one.
  static std::atomic<std::uint64_t> sequence{0};
  std::ostringstream temp_name;
  temp_name << path << ".tmp." << ::getpid() << "." << sequence.fetch_add(1);
  const std::string temp_path = temp_name.str();
  int fd = ::open(temp_path.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0644);
  if (fd < 0 && errno == EEXIST) {
    // Only a crashed earlier process with a recycled pid can have left
    // this exact name behind; its payload is dead, reclaim the name.
    ::unlink(temp_path.c_str());
    fd = ::open(temp_path.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0644);
  }
  if (fd < 0) return warn(std::string("cannot open temp file: ") + std::strerror(errno));
  const auto write_all = [fd](const char* data, std::size_t size) {
    std::size_t done = 0;
    while (done < size) {
      const ::ssize_t n = ::write(fd, data + done, size - done);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      done += static_cast<std::size_t>(n);
    }
    return true;
  };
  util::BinaryWriter trailer;
  trailer.write_u64(checksum);
  bool wrote = write_all(kMagic, sizeof(kMagic));
  // Crash window: magic on disk, payload missing — a torn temp that must
  // never become visible under the final name.
  if (wrote) crash_point("store_save_mid");
  wrote = wrote && write_all(writer.bytes().data(), writer.bytes().size()) &&
          write_all(trailer.bytes().data(), trailer.bytes().size());
  // fsync before rename: a machine crash right after the rename must not
  // leave a published name pointing at unwritten blocks.
  wrote = wrote && ::fsync(fd) == 0;
  ::close(fd);
  if (!wrote) {
    warn("short write");
    std::filesystem::remove(temp_path, error);
    return;
  }
  // Crash window: temp complete but unpublished — invisible to readers.
  crash_point("store_save_rename");
  std::filesystem::rename(temp_path, path, error);
  if (error) {
    warn("rename failed: " + error.message());
    std::filesystem::remove(temp_path, error);
    return;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.writes;
  touched_.insert(normalized_path(path));
}

FixtureStore::Stats FixtureStore::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

namespace {

/// Every .fix file under `directory`, as (path, bytes, mtime) records.
struct StoredFile {
  std::string path;
  std::uintmax_t bytes = 0;
  std::filesystem::file_time_type mtime;
};

std::vector<StoredFile> scan_store(const std::string& directory) {
  std::vector<StoredFile> files;
  std::error_code error;
  std::filesystem::recursive_directory_iterator it(directory, error), end;
  if (error) return files;
  for (; it != end; it.increment(error)) {
    if (error) break;
    if (!it->is_regular_file(error) || it->path().extension() != ".fix") continue;
    StoredFile file;
    file.path = it->path().string();
    file.bytes = it->file_size(error);
    if (error) continue;
    file.mtime = std::filesystem::last_write_time(it->path(), error);
    if (error) continue;
    files.push_back(std::move(file));
  }
  return files;
}

double age_seconds(std::filesystem::file_time_type mtime) {
  return std::chrono::duration<double>(std::filesystem::file_time_type::clock::now() - mtime)
      .count();
}

/// Scoped advisory lock on `DIR/.gc.lock`.  Two processes running
/// `--store-gc-max-bytes` against the same store would otherwise race
/// the scan-then-unlink window: both could pick the same eviction
/// victims, and one could evict a file the other just published and
/// touched.  flock serializes whole GC passes; everything else (load,
/// save) stays lock-free — publication is already atomic.  Best effort:
/// when the lock file cannot be created the pass proceeds unlocked, as
/// the store is an accelerator and GC correctness degrades to the old
/// (pre-lock) behavior rather than failing the run.
class GcLock {
 public:
  explicit GcLock(const std::string& directory) {
    fd_ = ::open((directory + "/.gc.lock").c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
    if (fd_ >= 0) {
      while (::flock(fd_, LOCK_EX) != 0 && errno == EINTR) {
      }
    }
  }
  ~GcLock() {
    if (fd_ >= 0) ::close(fd_);  // releases the flock
  }
  GcLock(const GcLock&) = delete;
  GcLock& operator=(const GcLock&) = delete;

 private:
  int fd_ = -1;
};

/// Unpublished temp files (".tmp." in the name) left behind by crashed
/// writers.  Fresh temps may belong to a LIVE writer that has not
/// renamed yet, so only temps older than this are reclaimed.
constexpr double kStaleTempSeconds = 3600.0;

void remove_stale_temps(const std::string& directory) {
  std::error_code error;
  std::filesystem::recursive_directory_iterator it(directory, error), end;
  if (error) return;
  for (; it != end; it.increment(error)) {
    if (error) break;
    if (!it->is_regular_file(error)) continue;
    if (it->path().filename().string().find(".tmp.") == std::string::npos) continue;
    const auto mtime = std::filesystem::last_write_time(it->path(), error);
    if (error || age_seconds(mtime) < kStaleTempSeconds) continue;
    std::filesystem::remove(it->path(), error);
  }
}

}  // namespace

std::vector<FixtureStore::DomainUsage> FixtureStore::usage() const {
  // Domain = first path component under the store root (see path_of()).
  // Pure string arithmetic: scan paths were built under directory_, so
  // lexically_relative needs no filesystem round-trips.
  std::map<std::string, DomainUsage> domains;
  const auto root = std::filesystem::path(directory_).lexically_normal();
  for (const auto& file : scan_store(directory_)) {
    const auto relative =
        std::filesystem::path(file.path).lexically_normal().lexically_relative(root);
    const std::string domain =
        relative.empty() ? std::string("<root>") : relative.begin()->string();
    auto& entry = domains[domain];
    const double age = age_seconds(file.mtime);
    if (entry.files == 0) {
      entry.domain = domain;
      entry.oldest_age_seconds = entry.newest_age_seconds = age;
    } else {
      entry.oldest_age_seconds = std::max(entry.oldest_age_seconds, age);
      entry.newest_age_seconds = std::min(entry.newest_age_seconds, age);
    }
    ++entry.files;
    entry.bytes += file.bytes;
  }
  std::vector<DomainUsage> result;
  result.reserve(domains.size());
  for (auto& [name, entry] : domains) result.push_back(std::move(entry));
  return result;
}

FixtureStore::GcResult FixtureStore::gc_to_max_bytes(std::uintmax_t max_bytes) const {
  // One GC pass at a time per store (across processes): without the
  // lock, two concurrent passes could each evict a file the other's
  // campaign just published between its scan and its unlink.
  GcLock lock(directory_);
  remove_stale_temps(directory_);
  auto files = scan_store(directory_);
  GcResult result;
  result.scanned = files.size();
  for (const auto& file : files) result.bytes_before += file.bytes;
  result.bytes_after = result.bytes_before;
  if (result.bytes_before <= max_bytes) return result;

  // Least recently used first (load() bumps mtimes), ties by path so the
  // eviction order is deterministic for identical timestamps.
  std::sort(files.begin(), files.end(), [](const StoredFile& a, const StoredFile& b) {
    if (a.mtime != b.mtime) return a.mtime < b.mtime;
    return a.path < b.path;
  });

  std::unordered_set<std::string> touched;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    touched = touched_;
  }
  for (const auto& file : files) {
    if (result.bytes_after <= max_bytes) break;
    if (touched.count(normalized_path(file.path)) != 0) {
      ++result.kept_in_use;  // current run's working set is never evicted
      continue;
    }
    std::error_code error;
    // Re-stat before the unlink: a file ANOTHER process loaded or
    // republished since our scan has a newer mtime and is part of a live
    // working set — spare it, like this process's own touched files.
    const auto mtime_now = std::filesystem::last_write_time(file.path, error);
    if (error) continue;  // already gone (nothing to evict)
    if (mtime_now != file.mtime) {
      ++result.kept_in_use;
      continue;
    }
    // unlink(2) is atomic: a concurrent reader either opened the file
    // before (and keeps a valid handle) or misses and recomputes.
    if (!std::filesystem::remove(file.path, error) || error) continue;
    ++result.evicted;
    result.bytes_after -= file.bytes;
  }
  return result;
}

void FixtureStore::record_undecodable() const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (stats_.disk_hits > 0) --stats_.disk_hits;
  ++stats_.disk_misses;
  ++stats_.invalid;
}

}  // namespace cps::runtime
