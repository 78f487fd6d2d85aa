// Build/version identification surfaced by the serving telemetry
// endpoints (`/varz`, the `STATS` verb, `ceci_build_info` in `/metrics`).
// Deliberately compile-time only — no __DATE__/__TIME__, so builds stay
// reproducible and two binaries from the same commit report identically.
#ifndef CECI_TELEMETRY_BUILD_INFO_H_
#define CECI_TELEMETRY_BUILD_INFO_H_

#include <string>

namespace ceci {

/// Release train of this source tree; bumped when the wire protocol or
/// the on-disk index format changes shape.
inline constexpr const char* kCeciVersion = "0.9.0";

/// On-disk flat-index format this binary reads/writes (ceci/index_io.h).
inline constexpr const char* kCeciIndexFormat = "CEIX4";

/// "gcc 13.2" / "clang 17.0" / "unknown" — the compiler that produced
/// this binary.
inline std::string CompilerString() {
#if defined(__clang__)
  return "clang " + std::to_string(__clang_major__) + "." +
         std::to_string(__clang_minor__);
#elif defined(__GNUC__)
  return "gcc " + std::to_string(__GNUC__) + "." +
         std::to_string(__GNUC_MINOR__);
#else
  return "unknown";
#endif
}

/// The C++ standard the binary was compiled against (e.g. 202002).
inline long CppStandard() { return __cplusplus; }

}  // namespace ceci

#endif  // CECI_TELEMETRY_BUILD_INFO_H_
