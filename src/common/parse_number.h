#ifndef LIOD_COMMON_PARSE_NUMBER_H_
#define LIOD_COMMON_PARSE_NUMBER_H_

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

namespace liod {

/// Parses all of `text` as a base-10 unsigned integer; false on an empty
/// value, a sign, leading space, trailing characters or overflow.
inline bool ParseNumber(const char* text, std::uint64_t* out) {
  if (*text < '0' || *text > '9') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (errno != 0 || *end != '\0') return false;
  *out = value;
  return true;
}

/// Parses all of `text` as a finite decimal number.
inline bool ParseNumber(const char* text, double* out) {
  if (*text == '\0' || std::isspace(static_cast<unsigned char>(*text))) return false;
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(text, &end);
  if (errno != 0 || *end != '\0' || !std::isfinite(value)) return false;
  *out = value;
  return true;
}

/// ParseNumber for the value of command-line flag `flag`: a malformed value
/// prints "invalid value for FLAG: 'TEXT'" to stderr and returns false, and
/// the caller exits 2.
template <typename T>
bool ParseFlagNumber(const char* flag, const char* text, T* out) {
  if (ParseNumber(text, out)) return true;
  std::fprintf(stderr, "invalid value for %s: '%s'\n", flag, text);
  return false;
}

}  // namespace liod

#endif  // LIOD_COMMON_PARSE_NUMBER_H_
