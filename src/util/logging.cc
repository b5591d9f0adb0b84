#include "util/logging.h"

#include <cstdio>
#include <cstdlib>

namespace jigsaw {
namespace internal {

void CheckFailed(const char* file, int line, const char* expr,
                 const std::string& message) {
  std::fprintf(stderr, "[FATAL %s:%d] check failed: %s %s\n", file, line,
               expr, message.c_str());
  std::abort();
}

}  // namespace internal
}  // namespace jigsaw
