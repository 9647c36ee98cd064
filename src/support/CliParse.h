//===----------------------------------------------------------------------===//
///
/// \file
/// Strict numeric parsing for command-line arguments. `std::atoi` maps
/// "bogus" to 0 and "-3" through unsigned wraparound to ~4 billion — a
/// job count of either kind silently misconfigures the pipeline. These
/// helpers accept only a full decimal literal and report failure instead.
///
//===----------------------------------------------------------------------===//

#ifndef AFL_SUPPORT_CLIPARSE_H
#define AFL_SUPPORT_CLIPARSE_H

#include <charconv>
#include <string_view>

namespace afl {

/// Parses \p Text as a non-negative decimal integer. Returns false on an
/// empty string, any non-digit (including a sign or trailing garbage),
/// or overflow of unsigned; \p Out is untouched on failure.
inline bool parseCliUnsigned(std::string_view Text, unsigned &Out) {
  if (Text.empty())
    return false;
  unsigned Value = 0;
  const char *First = Text.data();
  const char *Last = Text.data() + Text.size();
  auto [Ptr, Ec] = std::from_chars(First, Last, Value, 10);
  if (Ec != std::errc() || Ptr != Last)
    return false;
  Out = Value;
  return true;
}

} // namespace afl

#endif // AFL_SUPPORT_CLIPARSE_H
