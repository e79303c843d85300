#ifndef RELACC_API_VERSION_H_
#define RELACC_API_VERSION_H_

namespace relacc {

/// Library version (also the CMake package version; keep the two in
/// sync). Bumped whenever the installed public API changes shape —
/// `relacc --version` prints it so bug reports can name the exact API
/// surface they ran against, and bench::JsonReport stamps it into every
/// BENCH_*.json so perf rows are attributable to an API generation.
inline constexpr const char kRelaccVersion[] = "0.11.0";

}  // namespace relacc

/// Brackets a region that intentionally calls the library's
/// [[deprecated]] legacy entry points (the batch shims over
/// AccuracyService). The identity tests and A/B benches pin the shims to
/// the service behaviour, so they must keep calling them without
/// tripping -Werror; one macro pair replaces the copy-pasted
/// diagnostic-pragma blocks those files used to carry. GCC and Clang
/// both accept the GCC spelling of the pragma.
#define RELACC_SUPPRESS_DEPRECATED_BEGIN \
  _Pragma("GCC diagnostic push")         \
  _Pragma("GCC diagnostic ignored \"-Wdeprecated-declarations\"")
#define RELACC_SUPPRESS_DEPRECATED_END _Pragma("GCC diagnostic pop")

#endif  // RELACC_API_VERSION_H_
