#pragma once

/// \file logging.h
/// Invariant-checking macros. JIGSAW_CHECK is used for internal invariants
/// (programming bugs) and aborts with file:line; user input errors flow
/// through Status instead.

#include <sstream>
#include <string>

namespace jigsaw {
namespace internal {

[[noreturn]] void CheckFailed(const char* file, int line, const char* expr,
                              const std::string& message);

}  // namespace internal
}  // namespace jigsaw

#define JIGSAW_CHECK(expr)                                              \
  do {                                                                  \
    if (!(expr)) {                                                      \
      ::jigsaw::internal::CheckFailed(__FILE__, __LINE__, #expr, "");   \
    }                                                                   \
  } while (0)

#define JIGSAW_CHECK_MSG(expr, msg)                                     \
  do {                                                                  \
    if (!(expr)) {                                                      \
      std::ostringstream _oss;                                          \
      _oss << msg;                                                      \
      ::jigsaw::internal::CheckFailed(__FILE__, __LINE__, #expr,        \
                                      _oss.str());                      \
    }                                                                   \
  } while (0)

#define JIGSAW_DCHECK(expr) JIGSAW_CHECK(expr)
