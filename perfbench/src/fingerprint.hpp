// perfbench/src/fingerprint.hpp
//
// The output-identity gate. Every simulated field of an operation's result
// is folded into one 64-bit FNV-1a fingerprint (doubles by their exact bit
// pattern), so any change to a figure number changes the fingerprint. The
// identity checks test the conservation laws the results must obey
// whatever the seed.
#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>

#include "motifs/mt_decomp.hpp"
#include "traffic/steering.hpp"
#include "workloads/app_model.hpp"
#include "workloads/osu.hpp"

namespace perfbench {

class Fnv64 {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
  void add(int v) { add(static_cast<std::uint64_t>(static_cast<std::int64_t>(v))); }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(std::string_view s) {
    add(static_cast<std::uint64_t>(s.size()));
    for (const char c : s) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 0x100000001b3ULL;
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::uint64_t fingerprint(const semperm::workloads::OsuResult& r);
std::uint64_t fingerprint(const semperm::workloads::AppModelResult& r);
std::uint64_t fingerprint(const semperm::traffic::SteeringResult& r);
std::uint64_t fingerprint(const semperm::motifs::MtDecompResult& r);

/// Conservation identities; each returns "" when they hold, else a
/// description of the first violation.
///  * hierarchy: L1 hits + misses == lines touched, each outer level's
///    hits + misses == the next-inner level's misses, DRAM fetches == the
///    last level's misses (hierarchies without a network cache);
///  * steering: generated == hits + misses + shed + dropped and
///    lookups == hits + misses + shed_degraded.
std::string check_identities(const semperm::cachesim::HierarchyStats& h);
std::string check_identities(const semperm::workloads::OsuResult& r);
std::string check_identities(const semperm::workloads::AppModelResult& r);
std::string check_identities(const semperm::traffic::SteeringResult& r);
std::string check_identities(const semperm::motifs::MtDecompResult& r);

/// Fixed-width lowercase hex, the form reference files store.
std::string hex64(std::uint64_t v);

}  // namespace perfbench
