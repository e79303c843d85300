#ifndef RELACC_API_VERSION_H_
#define RELACC_API_VERSION_H_

namespace relacc {

/// Library version (also the CMake package version; keep the two in
/// sync). Bumped whenever the installed public API changes shape —
/// `relacc --version` prints it so bug reports can name the exact API
/// surface they ran against, and bench::JsonReport stamps it into every
/// BENCH_*.json so perf rows are attributable to an API generation.
inline constexpr const char kRelaccVersion[] = "0.13.0";

}  // namespace relacc

#endif  // RELACC_API_VERSION_H_
