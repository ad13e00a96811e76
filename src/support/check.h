// Runtime checks and error reporting used throughout the library.
//
// The library distinguishes two failure categories:
//  - WB_CHECK: violated preconditions / internal invariants. These indicate a
//    bug in the caller or in the library and throw wb::LogicError.
//  - WB_REQUIRE: data-dependent failures (corrupted whiteboard, input graph
//    outside a protocol's promised class, ...). These throw wb::DataError so
//    callers can catch them and treat them as a protocol-level rejection.
//    An input error is read by whoever supplied the input, so a
//    WB_REQUIRE_MSG DataError carries only its message; a bare WB_REQUIRE
//    (and every LogicError) names the failed expression and its source line.
#pragma once

#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

namespace wb {

/// Thrown on violated preconditions and internal invariants (bugs).
class LogicError : public std::logic_error {
 public:
  explicit LogicError(const std::string& what) : std::logic_error(what) {}
};

/// Thrown on malformed or out-of-contract input data (not a bug).
class DataError : public std::runtime_error {
 public:
  explicit DataError(const std::string& what) : std::runtime_error(what) {}
};

namespace detail {

[[noreturn]] inline void throw_logic(const char* expr, const char* file,
                                     int line, const std::string& msg) {
  std::ostringstream os;
  os << file << ":" << line << ": check failed: " << expr;
  if (!msg.empty()) os << " — " << msg;
  throw LogicError(os.str());
}

[[noreturn]] inline void throw_data(const char* expr, const char* file,
                                    int line, const std::string& msg) {
  if (!msg.empty()) throw DataError(msg);
  std::ostringstream os;
  os << file << ":" << line << ": requirement failed: " << expr;
  throw DataError(os.str());
}

}  // namespace detail
}  // namespace wb

#define WB_CHECK(expr)                                                   \
  do {                                                                   \
    if (!(expr)) ::wb::detail::throw_logic(#expr, __FILE__, __LINE__, ""); \
  } while (false)

#define WB_CHECK_MSG(expr, msg)                                        \
  do {                                                                 \
    if (!(expr)) {                                                     \
      std::ostringstream wb_os_;                                       \
      wb_os_ << msg;                                                   \
      ::wb::detail::throw_logic(#expr, __FILE__, __LINE__, wb_os_.str()); \
    }                                                                  \
  } while (false)

#define WB_REQUIRE(expr)                                                  \
  do {                                                                    \
    if (!(expr)) ::wb::detail::throw_data(#expr, __FILE__, __LINE__, ""); \
  } while (false)

#define WB_REQUIRE_MSG(expr, msg)                                       \
  do {                                                                  \
    if (!(expr)) {                                                      \
      std::ostringstream wb_os_;                                        \
      wb_os_ << msg;                                                    \
      ::wb::detail::throw_data(#expr, __FILE__, __LINE__, wb_os_.str()); \
    }                                                                   \
  } while (false)

namespace wb {

/// a + b, or wb::DataError naming the `what` count that would pass 2^64 - 1.
[[nodiscard]] inline std::uint64_t checked_add(std::uint64_t a, std::uint64_t b,
                                               const char* what) {
  WB_REQUIRE_MSG(b <= std::numeric_limits<std::uint64_t>::max() - a,
                 what << " count overflows 64 bits (" << a << " + " << b
                      << ")");
  return a + b;
}

}  // namespace wb
