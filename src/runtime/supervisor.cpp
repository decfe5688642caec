#include "runtime/supervisor.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "runtime/backoff.hpp"
#include "util/error.hpp"
#include "util/file.hpp"
#include "util/hash.hpp"
#include "util/signal_safe.hpp"

namespace cps::runtime {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Replace every occurrence of `token` in `text`.
std::string substitute(std::string text, const std::string& token,
                       const std::string& value) {
  std::size_t pos = 0;
  while ((pos = text.find(token, pos)) != std::string::npos) {
    text.replace(pos, token.size(), value);
    pos += value.size();
  }
  return text;
}

/// POSIX-shell single-quote: safe under `sh -c` for any byte but NUL.
std::string shell_quote(const std::string& word) {
  std::string quoted = "'";
  for (const char c : word)
    if (c == '\'')
      quoted += "'\\''";
    else
      quoted += c;
  quoted += "'";
  return quoted;
}

/// Last up-to-three non-empty lines of a child log, for failure reports.
std::string log_tail(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::string();
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line))
    if (!line.empty()) {
      lines.push_back(line);
      if (lines.size() > 3) lines.erase(lines.begin());
    }
  std::string tail;
  for (const auto& kept : lines) tail += "\n      | " + kept;
  return tail;
}

std::string json_escape(const std::string& text) {
  std::string escaped;
  escaped.reserve(text.size() + 8);
  for (const char c : text) {
    switch (c) {
      case '"': escaped += "\\\""; break;
      case '\\': escaped += "\\\\"; break;
      case '\n': escaped += "\\n"; break;
      case '\r': escaped += "\\r"; break;
      case '\t': escaped += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          escaped += buffer;
        } else {
          escaped += c;
        }
    }
  }
  return escaped;
}

const char* status_name(ShardOutcome::Status status) {
  switch (status) {
    case ShardOutcome::Status::kSucceeded: return "succeeded";
    case ShardOutcome::Status::kSkipped: return "skipped";
    case ShardOutcome::Status::kFailed: return "failed";
    case ShardOutcome::Status::kInterrupted: return "interrupted";
  }
  return "unknown";
}

/// Supervision state of one shard.
struct ShardState {
  enum class Phase { kPending, kBackoff, kRunning, kDone };
  Phase phase = Phase::kPending;
  int attempts = 0;          ///< attempts launched so far
  ::pid_t pid = -1;
  Clock::time_point launched;
  Clock::time_point eligible;  ///< backoff: earliest next launch
  bool term_sent = false;
  Clock::time_point term_time;
  bool attempt_timed_out = false;
  std::string timeout_reason;
  std::string log_path;
  std::string heartbeat_path;
  ShardOutcome outcome;
};

}  // namespace

double backoff_delay_seconds(const SupervisorOptions& options, std::size_t shard,
                             int failed_attempts) {
  // The math lives in runtime/backoff.hpp (shared with the cps_query
  // retry loop); this wrapper only maps the option fields, so the
  // supervisor's schedule is bit-identical to what it always was.
  BackoffPolicy policy;
  policy.base_seconds = options.backoff_base_seconds;
  policy.factor = options.backoff_factor;
  policy.max_seconds = options.backoff_max_seconds;
  policy.seed = options.backoff_seed;
  return backoff_delay(policy, shard, failed_attempts);
}

ShardSupervisor::ShardSupervisor(std::vector<std::string> shard_command,
                                 SupervisorOptions options)
    : shard_command_(std::move(shard_command)), options_(std::move(options)) {
  CPS_ENSURE(!shard_command_.empty(), "ShardSupervisor: shard command must be non-empty");
  CPS_ENSURE(options_.shard_count >= 1, "ShardSupervisor: shard count must be >= 1");
  CPS_ENSURE(options_.max_attempts >= 1, "ShardSupervisor: max attempts must be >= 1");
}

SupervisorReport ShardSupervisor::run() {
  const std::size_t n = options_.shard_count;
  std::size_t max_parallel = options_.max_parallel;
  if (max_parallel == 0) {
    const unsigned cores = std::thread::hardware_concurrency();
    max_parallel = std::min<std::size_t>(n, cores == 0 ? 1 : cores);
  }
  if (!options_.work_dir.empty()) {
    std::error_code error;
    std::filesystem::create_directories(options_.work_dir, error);
    if (error)
      throw Error("ShardSupervisor: cannot create work dir '" + options_.work_dir +
                  "': " + error.message());
  }

  std::vector<ShardState> states(n);
  for (std::size_t i = 0; i < n; ++i) states[i].outcome.shard = i;

  // Resume: a shard whose every expected partial already landed (whole
  // CSV + consistent sidecar + this campaign's seed) is work already
  // paid for — skip it, that is what makes a restarted launch cheap.
  const auto landed = [&](std::size_t shard) {
    if (options_.expected_artifacts.empty()) return false;
    for (const auto& artifact : options_.expected_artifacts)
      if (!shard_artifact_landed(artifact, shard, n, options_.expected_seed)) return false;
    return true;
  };
  for (auto& state : states)
    if (landed(state.outcome.shard)) {
      state.phase = ShardState::Phase::kDone;
      state.outcome.status = ShardOutcome::Status::kSkipped;
    }

  const auto spawn = [&](ShardState& state) {
    const std::size_t shard = state.outcome.shard;
    ++state.attempts;
    state.attempt_timed_out = false;
    state.term_sent = false;

    const std::string shard_text = std::to_string(shard);
    const std::string count_text = std::to_string(n);
    std::vector<std::string> argv_strings;
    if (options_.exec_template.empty()) {
      for (const auto& word : shard_command_)
        argv_strings.push_back(
            substitute(substitute(word, "{i}", shard_text), "{n}", count_text));
    } else {
      std::string quoted_command;
      for (const auto& word : shard_command_) {
        if (!quoted_command.empty()) quoted_command += ' ';
        quoted_command +=
            shell_quote(substitute(substitute(word, "{i}", shard_text), "{n}", count_text));
      }
      std::string rendered = substitute(options_.exec_template, "{cmd}", quoted_command);
      rendered = substitute(substitute(rendered, "{i}", shard_text), "{n}", count_text);
      argv_strings = {"/bin/sh", "-c", rendered};
    }

    int log_fd = -1;
    if (!options_.work_dir.empty()) {
      state.log_path = options_.work_dir + "/shard" + shard_text + "of" + count_text +
                       ".attempt" + std::to_string(state.attempts) + ".log";
      state.heartbeat_path =
          options_.work_dir + "/shard" + shard_text + "of" + count_text + ".hb";
      std::error_code error;
      std::filesystem::remove(state.heartbeat_path, error);  // stale beat from a prior attempt
      log_fd = ::open(state.log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    }
    state.outcome.log_path = state.log_path;

    std::vector<char*> argv;
    argv.reserve(argv_strings.size() + 1);
    for (auto& word : argv_strings) argv.push_back(word.data());
    argv.push_back(nullptr);

    const ::pid_t pid = ::fork();
    if (pid < 0) {
      if (log_fd >= 0) ::close(log_fd);
      throw Error(std::string("ShardSupervisor: fork failed: ") + std::strerror(errno));
    }
    if (pid == 0) {
      // Child.  Own process group, so timeout escalation can signal the
      // whole tree (an exec-template shell plus whatever it spawned).
      ::setpgid(0, 0);
      if (log_fd >= 0) {
        ::dup2(log_fd, STDOUT_FILENO);
        ::dup2(log_fd, STDERR_FILENO);
      }
      if (!state.heartbeat_path.empty())
        ::setenv("CPS_SHARD_HEARTBEAT", state.heartbeat_path.c_str(), 1);
      // Crash injection models "crashed once, healed on retry": only the
      // first attempt inherits the spec; retries must run clean or an
      // injected crash would be a guaranteed permanent failure.
      if (!options_.crash_inject.empty() && state.attempts == 1)
        ::setenv("CPS_CRASH_AT", options_.crash_inject.c_str(), 1);
      else
        ::unsetenv("CPS_CRASH_AT");
      ::execvp(argv[0], argv.data());
      // Forked child of a multithreaded parent: stdio locks may be held
      // by threads that do not exist here, so report with raw writes
      // only (util/signal_safe.hpp), never fprintf.
      util::safe_write_str(STDERR_FILENO, "ShardSupervisor: exec '");
      util::safe_write_str(STDERR_FILENO, argv[0]);
      util::safe_write_str(STDERR_FILENO, "' failed: errno ");
      util::safe_write_dec(STDERR_FILENO, errno);
      util::safe_write_str(STDERR_FILENO, "\n");
      ::_exit(127);
    }
    if (log_fd >= 0) ::close(log_fd);
    state.pid = pid;
    state.launched = Clock::now();
    state.phase = ShardState::Phase::kRunning;
  };

  const auto signal_group = [](ShardState& state, int sig) {
    // The child put itself in its own group; signal the whole group so
    // exec-template wrappers cannot shelter grandchildren.  Racy window
    // before the child's setpgid is covered by signaling the pid too.
    ::kill(-state.pid, sig);
    ::kill(state.pid, sig);
  };

  // One attempt finished (reaped): classify it and either finish the
  // shard, schedule a retry, or declare permanent failure.
  const auto settle_attempt = [&](ShardState& state, int wait_status) {
    state.phase = ShardState::Phase::kPending;
    state.pid = -1;
    state.outcome.attempts = state.attempts;
    std::string failure;
    if (WIFEXITED(wait_status) && WEXITSTATUS(wait_status) == 0) {
      // Exit 0 alone is not success: the artifacts must have LANDED
      // (whole file + sidecar + right seed), or a child that died to a
      // buffered-write tear while exiting cleanly would poison the merge.
      bool verified = true;
      if (!options_.expected_artifacts.empty())
        for (const auto& artifact : options_.expected_artifacts)
          if (!shard_artifact_landed(artifact, state.outcome.shard, n,
                                     options_.expected_seed)) {
            verified = false;
            failure = "exited 0 but partial artifact '" + artifact +
                      "' did not land (torn or unpublished)";
            break;
          }
      if (verified) {
        state.phase = ShardState::Phase::kDone;
        state.outcome.status = ShardOutcome::Status::kSucceeded;
        state.outcome.detail.clear();
        return;
      }
    } else if (WIFEXITED(wait_status)) {
      failure = "exit status " + std::to_string(WEXITSTATUS(wait_status));
    } else if (WIFSIGNALED(wait_status)) {
      failure = std::string("killed by signal ") + std::to_string(WTERMSIG(wait_status));
      if (state.attempt_timed_out) {
        failure += " (supervisor: " + state.timeout_reason + ")";
        state.outcome.timed_out = true;
      }
    } else {
      failure = "unrecognized wait status " + std::to_string(wait_status);
    }
    if (!state.log_path.empty()) failure += log_tail(state.log_path);
    state.outcome.detail =
        "attempt " + std::to_string(state.attempts) + "/" +
        std::to_string(options_.max_attempts) + ": " + failure;
    if (state.attempts >= options_.max_attempts) {
      state.phase = ShardState::Phase::kDone;
      state.outcome.status = ShardOutcome::Status::kFailed;
      return;
    }
    const double delay = backoff_delay_seconds(options_, state.outcome.shard, state.attempts);
    state.eligible = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                        std::chrono::duration<double>(delay));
    state.phase = ShardState::Phase::kBackoff;
  };

  SupervisorReport report;
  bool interrupted = false;
  for (;;) {
    // Interrupt (SIGINT/SIGTERM in the driver): stop launching, tear
    // down every running child, report what resolved so far.
    if (options_.interrupt_flag != nullptr && *options_.interrupt_flag != 0 &&
        !interrupted) {
      interrupted = true;
      for (auto& state : states)
        if (state.phase == ShardState::Phase::kRunning) signal_group(state, SIGTERM);
      const auto deadline =
          Clock::now() + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(options_.term_grace_seconds));
      for (auto& state : states) {
        if (state.phase != ShardState::Phase::kRunning) continue;
        int wait_status = 0;
        for (;;) {
          const ::pid_t reaped = ::waitpid(state.pid, &wait_status, WNOHANG);
          if (reaped == state.pid || reaped < 0) break;
          if (Clock::now() >= deadline) {
            signal_group(state, SIGKILL);
            ::waitpid(state.pid, &wait_status, 0);
            break;
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        state.pid = -1;
      }
      for (auto& state : states)
        if (state.phase != ShardState::Phase::kDone) {
          state.outcome.status = ShardOutcome::Status::kInterrupted;
          state.outcome.attempts = state.attempts;
          state.outcome.detail = "interrupted by signal before the shard resolved";
        }
      break;
    }

    std::size_t running = 0, done = 0;
    for (const auto& state : states) {
      running += state.phase == ShardState::Phase::kRunning ? 1 : 0;
      done += state.phase == ShardState::Phase::kDone ? 1 : 0;
    }
    if (done == n) break;

    // Launch eligible shards, lowest index first, up to the cap.
    for (auto& state : states) {
      if (running >= max_parallel) break;
      const bool ready =
          state.phase == ShardState::Phase::kPending ||
          (state.phase == ShardState::Phase::kBackoff && Clock::now() >= state.eligible);
      if (!ready) continue;
      spawn(state);
      ++running;
    }

    // Reap and police deadlines.
    for (auto& state : states) {
      if (state.phase != ShardState::Phase::kRunning) continue;
      int wait_status = 0;
      const ::pid_t reaped = ::waitpid(state.pid, &wait_status, WNOHANG);
      if (reaped == state.pid) {
        settle_attempt(state, wait_status);
        continue;
      }
      // Wall-clock timeout, then heartbeat staleness: either one starts
      // the SIGTERM -> grace -> SIGKILL escalation.
      if (!state.attempt_timed_out) {
        const double elapsed = seconds_since(state.launched);
        if (options_.timeout_seconds > 0.0 && elapsed > options_.timeout_seconds) {
          state.attempt_timed_out = true;
          state.timeout_reason = "wall-clock timeout after " +
                                 std::to_string(options_.timeout_seconds) + " s";
        } else if (options_.heartbeat_stale_seconds > 0.0 && !state.heartbeat_path.empty()) {
          std::error_code error;
          const auto beat = std::filesystem::last_write_time(state.heartbeat_path, error);
          if (!error) {
            const double stale =
                std::chrono::duration<double>(
                    std::filesystem::file_time_type::clock::now() - beat)
                    .count();
            if (stale > options_.heartbeat_stale_seconds) {
              state.attempt_timed_out = true;
              state.timeout_reason =
                  "heartbeat stale for " + std::to_string(stale).substr(0, 5) + " s";
            }
          }
        }
        if (state.attempt_timed_out) {
          signal_group(state, SIGTERM);
          state.term_sent = true;
          state.term_time = Clock::now();
        }
      } else if (state.term_sent &&
                 seconds_since(state.term_time) > options_.term_grace_seconds) {
        // The attempt ignored SIGTERM through the grace period: escalate.
        signal_group(state, SIGKILL);
        state.term_sent = false;  // KILL cannot be ignored; just await the reap
        state.outcome.killed = true;
      }
    }

    std::this_thread::sleep_for(std::chrono::duration<double>(options_.poll_interval_seconds));
  }

  report.interrupted = interrupted;
  report.outcomes.reserve(n);
  for (auto& state : states) report.outcomes.push_back(std::move(state.outcome));
  return report;
}

std::string write_campaign_manifest(const std::string& csv_dir,
                                    const SupervisorReport& report, std::uint64_t seed,
                                    const std::vector<std::string>& artifacts,
                                    const std::vector<PartialMergeReport>& merges) {
  CPS_ENSURE(artifacts.size() == merges.size(),
             "write_campaign_manifest: one merge report per artifact");
  std::string json = "{\n";
  json += "  \"manifest_version\": 1,\n";
  json += "  \"campaign_seed\": \"0x" + util::hex64(seed) + "\",\n";
  const std::size_t shard_count =
      merges.empty() ? report.outcomes.size() : merges.front().shard_count;
  json += "  \"shard_count\": " + std::to_string(shard_count) + ",\n";

  json += "  \"shards\": [\n";
  for (std::size_t i = 0; i < report.outcomes.size(); ++i) {
    const auto& outcome = report.outcomes[i];
    json += "    {\"shard\": " + std::to_string(outcome.shard) + ", \"status\": \"" +
            status_name(outcome.status) + "\", \"attempts\": " +
            std::to_string(outcome.attempts);
    if (!outcome.detail.empty()) json += ", \"detail\": \"" + json_escape(outcome.detail) + "\"";
    json += "}";
    json += i + 1 < report.outcomes.size() ? ",\n" : "\n";
  }
  json += "  ],\n";

  json += "  \"artifacts\": [\n";
  for (std::size_t a = 0; a < artifacts.size(); ++a) {
    const auto& merge = merges[a];
    json += "    {\n";
    json += "      \"path\": \"" + json_escape(artifacts[a]) + "\",\n";
    json += "      \"rows_merged\": " + std::to_string(merge.rows_merged) + ",\n";
    const auto range_list = [](const std::vector<IndexRange>& ranges) {
      std::string text = "[";
      for (std::size_t r = 0; r < ranges.size(); ++r) {
        text += "[" + std::to_string(ranges[r].begin) + ", " +
                (ranges[r].open_ended ? std::string("null") : std::to_string(ranges[r].end)) +
                "]";
        if (r + 1 < ranges.size()) text += ", ";
      }
      return text + "]";
    };
    std::string merged_list = "[";
    for (std::size_t m = 0; m < merge.merged_shards.size(); ++m) {
      merged_list += std::to_string(merge.merged_shards[m]);
      if (m + 1 < merge.merged_shards.size()) merged_list += ", ";
    }
    merged_list += "]";
    std::string missing_list = "[";
    for (std::size_t f = 0; f < merge.failures.size(); ++f) {
      missing_list += std::to_string(merge.failures[f].shard);
      if (f + 1 < merge.failures.size()) missing_list += ", ";
    }
    missing_list += "]";
    json += "      \"merged_shards\": " + merged_list + ",\n";
    json += "      \"missing_shards\": " + missing_list + ",\n";
    json += "      \"covered_index_ranges\": " + range_list(merge.covered_ranges) + ",\n";
    json += "      \"missing_index_ranges\": " + range_list(merge.missing_ranges()) + ",\n";
    json += "      \"failures\": [";
    for (std::size_t f = 0; f < merge.failures.size(); ++f) {
      json += "{\"shard\": " + std::to_string(merge.failures[f].shard) + ", \"error\": \"" +
              json_escape(merge.failures[f].error) + "\"}";
      if (f + 1 < merge.failures.size()) json += ", ";
    }
    json += "]\n";
    json += a + 1 < artifacts.size() ? "    },\n" : "    }\n";
  }
  json += "  ]\n";
  json += "}\n";

  const std::string path =
      csv_dir.empty() ? "campaign_manifest.json" : csv_dir + "/campaign_manifest.json";
  util::write_text_atomic(path, json, "manifest");
  return path;
}

}  // namespace cps::runtime
