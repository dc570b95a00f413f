#include "gate.hpp"

#include <fstream>
#include <sstream>

#include "fingerprint.hpp"

namespace perfbench {

ReferenceTable load_reference(const std::string& path, Workload workload,
                              std::string* error) {
  ReferenceTable table;
  std::ifstream in(path);
  if (!in) {
    if (error) *error = "cannot read reference file " + path;
    return table;
  }
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string w, label, hex;
    if (!std::getline(fields, w, '\t') || !std::getline(fields, label, '\t') ||
        !std::getline(fields, hex))
      continue;
    if (w != workload_name(workload) || hex.size() != 16) continue;
    if (hex.find_first_not_of("0123456789abcdef") != std::string::npos)
      continue;
    table[label] = std::stoull(hex, nullptr, 16);
  }
  return table;
}

std::string OutputGate::check(const std::string& label,
                              const OpOutcome& outcome) {
  if (!outcome.ok()) return outcome.error;
  if (ref_ != nullptr) {
    const auto it = ref_->find(label);
    if (it == ref_->end()) return "no reference fingerprint for " + label;
    if (it->second != outcome.fingerprint)
      return "fingerprint " + hex64(outcome.fingerprint) +
             " != reference " + hex64(it->second);
    return "";
  }
  const auto [it, first] = first_.emplace(label, outcome.fingerprint);
  if (!first && it->second != outcome.fingerprint)
    return "fingerprint " + hex64(outcome.fingerprint) +
           " != first run's " + hex64(it->second);
  return "";
}

}  // namespace perfbench
