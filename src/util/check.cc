#include "util/check.h"

#include <cstdio>
#include <cstdlib>

namespace omcast::util {

void Fail(std::string_view what, std::source_location loc) {
  std::fprintf(stderr, "CHECK failed at %s:%u (%s): %.*s\n", loc.file_name(),
               static_cast<unsigned>(loc.line()), loc.function_name(),
               static_cast<int>(what.size()), what.data());
  std::abort();
}

}  // namespace omcast::util
