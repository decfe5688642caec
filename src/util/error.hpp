// Error handling primitives for the cps library.
//
// The library throws exceptions derived from cps::Error for contract
// violations and numerical failures.  Following the C++ Core Guidelines
// (I.5/I.6, E.2), preconditions are checked at public API boundaries with
// CPS_ENSURE, which produces an exception carrying the failed expression
// and its source location.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

namespace cps {

/// Base class of all exceptions thrown by the cps library.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown when a function argument violates a documented precondition.
class InvalidArgument : public Error {
 public:
  explicit InvalidArgument(const std::string& what) : Error(what) {}
};

/// Thrown when matrix/vector dimensions are incompatible for an operation.
class DimensionMismatch : public Error {
 public:
  explicit DimensionMismatch(const std::string& what) : Error(what) {}
};

/// Thrown when a numerical routine fails to converge or encounters a
/// singular / ill-conditioned problem.
class NumericalError : public Error {
 public:
  explicit NumericalError(const std::string& what) : Error(what) {}
};

/// Thrown when an analysis concludes that a configuration is infeasible
/// (e.g. utilization >= 1 on a shared TT slot) and the caller asked for a
/// result that requires feasibility.
class InfeasibleError : public Error {
 public:
  explicit InfeasibleError(const std::string& what) : Error(what) {}
};

/// Thrown when a long-running computation observes that its caller asked
/// it to stop (cooperative cancellation: a deadline expired, a server is
/// draining).  Carries no partial result — the computation was abandoned,
/// not completed.
class CancelledError : public Error {
 public:
  explicit CancelledError(const std::string& what) : Error(what) {}
};

namespace detail {
/// `file` relative to the repository root, so a message does not depend on
/// where the tree was built: the root is whatever precedes
/// "src/util/error.hpp" in this header's own path.
inline const char* path_from_root(const char* file) {
  constexpr std::string_view self = __FILE__;
  constexpr std::string_view tail = "src/util/error.hpp";
  if (self.size() < tail.size() || self.substr(self.size() - tail.size()) != tail) return file;
  const std::string_view root = self.substr(0, self.size() - tail.size());
  return std::string_view(file).substr(0, root.size()) == root ? file + root.size() : file;
}

[[noreturn]] inline void throw_ensure_failure(const char* expr, const char* file, int line,
                                              const std::string& msg) {
  std::string what = std::string("precondition failed: ") + expr + " at " +
                     path_from_root(file) + ":" + std::to_string(line);
  if (!msg.empty()) what += " — " + msg;
  throw InvalidArgument(what);
}
}  // namespace detail

}  // namespace cps

/// Check a precondition; throws cps::InvalidArgument with location info on
/// failure.  Used at public API boundaries (always on, including Release).
#define CPS_ENSURE(expr, msg)                                                \
  do {                                                                       \
    if (!(expr)) {                                                           \
      ::cps::detail::throw_ensure_failure(#expr, __FILE__, __LINE__, (msg)); \
    }                                                                        \
  } while (false)
