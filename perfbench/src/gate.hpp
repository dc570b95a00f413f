// perfbench/src/gate.hpp
//
// The output-identity gate over a run's operations. With the reference
// seed every operation's fingerprint must equal the committed reference;
// with any other seed every repeat of an operation must equal its first
// run. Either way an operation that threw or broke a conservation
// identity fails. A missing or unreadable reference entry fails the
// operation; it never aborts the run.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "operations.hpp"

namespace perfbench {

/// Reference fingerprints of one workload, read from a TSV file of
/// `workload<TAB>label<TAB>16-hex-digit fingerprint` lines.
using ReferenceTable = std::map<std::string, std::uint64_t>;

/// Entries of `workload` in `path`; malformed lines are skipped (their
/// operations then fail for want of a reference). Sets *error and returns
/// an empty table if the file cannot be read.
ReferenceTable load_reference(const std::string& path, Workload workload,
                              std::string* error);

class OutputGate {
 public:
  /// `reference` null: self-consistency mode.
  explicit OutputGate(const ReferenceTable* reference) : ref_(reference) {}

  /// "" when the operation passes, else why it failed.
  std::string check(const std::string& label, const OpOutcome& outcome);

 private:
  const ReferenceTable* ref_;
  std::map<std::string, std::uint64_t> first_;
};

}  // namespace perfbench
