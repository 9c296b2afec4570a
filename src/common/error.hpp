// Error handling primitives shared across the library.
//
// The library distinguishes programmer errors (precondition violations,
// reported via XPUF_REQUIRE and std::invalid_argument / std::logic_error)
// from runtime failures (numerical breakdown, I/O), reported via
// std::runtime_error subclasses.
#pragma once

#include <stdexcept>
#include <string>

namespace xpuf {

/// Thrown when a numerical routine cannot make progress (e.g. a Cholesky
/// factorization of a matrix that is not positive definite, or a line search
/// that cannot satisfy the Wolfe conditions on a non-finite objective).
class NumericalError : public std::runtime_error {
 public:
  explicit NumericalError(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown when a simulated hardware access-control rule is violated, e.g.
/// reading an individual PUF tap after the enrollment fuses were blown.
class AccessError : public std::runtime_error {
 public:
  explicit AccessError(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown on malformed external input (CSV parsing, CLI arguments).
class ParseError : public std::runtime_error {
 public:
  explicit ParseError(const std::string& what) : std::runtime_error(what) {}
};

namespace detail {
[[noreturn]] inline void require_failed(const char* expr, const char* file, int line,
                                        const std::string& msg) {
  throw std::invalid_argument(std::string("precondition failed: ") + expr + " at " + file + ":" +
                              std::to_string(line) + (msg.empty() ? "" : (" — " + msg)));
}
}  // namespace detail

}  // namespace xpuf

/// Precondition check that is always active (not compiled out in Release):
/// the library is used interactively for experiments, so fail loudly.
#define XPUF_REQUIRE(expr, msg)                                              \
  do {                                                                       \
    if (!(expr)) ::xpuf::detail::require_failed(#expr, __FILE__, __LINE__, (msg)); \
  } while (false)
