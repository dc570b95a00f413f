// perfbench/src/operations.hpp
//
// The benchmark's workloads and their fixed operation sets. One operation
// is one call of a library paper entry point on parameters generated here
// from the workload seed; the library sees only the generated parameters.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "motifs/mt_decomp.hpp"
#include "traffic/steering.hpp"
#include "workloads/app_model.hpp"
#include "workloads/osu.hpp"

namespace perfbench {

enum class Workload { kOsuTemporal, kAppFds, kTrafficOverload, kTable1Mt };

/// The seed whose fingerprints are committed in reference.tsv: it hands
/// the library its own default seeds, so its operations are figure points.
inline constexpr std::uint64_t kReferenceSeed = 0;

std::optional<Workload> workload_from_name(const std::string& name);
const char* workload_name(Workload w);
std::vector<Workload> all_workloads();

using OpParams =
    std::variant<semperm::workloads::OsuParams,
                 semperm::workloads::AppModelParams,
                 semperm::traffic::SteeringParams,
                 semperm::motifs::MtDecompParams>;

struct Operation {
  std::string label;  // unique within its workload
  OpParams params;
};

/// The workload's operation set for `seed`, in a fixed canonical order.
/// Seed kReferenceSeed keeps the library's default seeds; any other seed
/// re-salts every simulated seed (arena layout, arrival order, flow
/// population, trial shuffles) and leaves the set's shape unchanged.
std::vector<Operation> make_operations(Workload w, std::uint64_t seed);

/// What one operation produced: the fingerprint of its simulated result
/// and, if it threw or broke a conservation identity, why.
struct OpOutcome {
  std::uint64_t fingerprint = 0;
  std::string error;
  bool ok() const { return error.empty(); }
};

/// Run an operation through its library entry point.
OpOutcome run_library(const Operation& op);

/// Shrink an operation to a fraction of a second, keeping its code path
/// (queue kind, heater mode, traffic envelope, resilience), for the
/// self-test.
void shrink_for_selftest(Operation& op);

std::uint64_t splitmix64(std::uint64_t x);

}  // namespace perfbench
