// perfbench/src/provenance.hpp
//
// Build provenance and the guard that refuses to measure a build that is
// not the repository's measurement build.
#pragma once

#include <string>

namespace perfbench {

struct Provenance {
  std::string compiler;
  std::string build_type;
  bool trace = false;
  bool audit = false;
  bool fault = false;
  bool simd = false;
  bool native_arch = false;
  bool lto = false;
  std::string sanitize;  // "" when none
  std::string simd_backend;
  std::string cpu_model;
  unsigned nproc = 0;

  /// One line, `key=value` pairs.
  std::string describe() const;
};

Provenance build_provenance();

/// "" when the build may be measured; otherwise why not. Tracing, audit,
/// fault sites or a sanitizer compiled in, or a non-Release build type,
/// would all measure a different program from the one users run.
std::string measurement_refusal(const Provenance& p);

}  // namespace perfbench
