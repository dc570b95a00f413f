#include "provenance.hpp"

#include <cstring>
#include <sstream>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "common/simd.hpp"

// Entry points of the sanitizer runtimes, resolved only when one is linked
// in. GCC defines no macro for UndefinedBehaviorSanitizer, so the presence
// of the runtime is what detects a sanitizer.
extern "C" {
void __asan_init() __attribute__((weak));
void __tsan_init() __attribute__((weak));
void __msan_init() __attribute__((weak));
void __ubsan_handle_add_overflow(void*, void*, void*) __attribute__((weak));
}

namespace perfbench {

namespace {

std::string cpu_brand() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_ext = __get_cpuid_max(0x80000000u, nullptr);
  if (max_ext < 0x80000004u) return "unknown";
  for (unsigned i = 0; i < 3; ++i)
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  const auto first = s.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : s.substr(first);
#else
  return "unknown";
#endif
}

/// The sanitizers linked into this binary, "" for none.
std::string sanitizers_in_binary() {
  std::string found;
  const auto add = [&](bool present, const char* name) {
    if (!present) return;
    if (!found.empty()) found += ",";
    found += name;
  };
  add(__asan_init != nullptr, "address");
  add(__tsan_init != nullptr, "thread");
  add(__msan_init != nullptr, "memory");
  add(__ubsan_handle_add_overflow != nullptr, "undefined");
  return found;
}

}  // namespace

std::string Provenance::describe() const {
  std::ostringstream os;
  os << "compiler=\"" << compiler << "\" build_type=" << build_type
     << " SEMPERM_TRACE=" << trace << " SEMPERM_AUDIT=" << audit
     << " SEMPERM_FAULT=" << fault << " SEMPERM_SIMD=" << simd
     << " SEMPERM_NATIVE_ARCH=" << native_arch << " lto=" << lto
     << " sanitize=\"" << sanitize << "\" simd_backend=" << simd_backend
     << " cpu=\"" << cpu_model << "\" nproc=" << nproc;
  return os.str();
}

Provenance build_provenance() {
  Provenance p;
  p.compiler = PERFBENCH_COMPILER;
  p.build_type = PERFBENCH_BUILD_TYPE;
  p.trace = SEMPERM_TRACE != 0;
  p.audit = SEMPERM_AUDIT != 0;
  p.fault = SEMPERM_FAULT != 0;
  p.simd = SEMPERM_SIMD != 0;
  p.native_arch = PERFBENCH_MARCH_NATIVE != 0;
  p.lto = PERFBENCH_LTO != 0;
  p.sanitize = sanitizers_in_binary();
  p.simd_backend = semperm::simd::backend();
  p.cpu_model = cpu_brand();
  p.nproc = std::thread::hardware_concurrency();
  return p;
}

std::string measurement_refusal(const Provenance& p) {
  if (p.trace) return "SEMPERM_TRACE is compiled in";
  if (p.audit) return "SEMPERM_AUDIT is compiled in";
  if (p.fault) return "SEMPERM_FAULT is compiled in";
  if (!p.sanitize.empty()) return "a sanitizer is compiled in (" + p.sanitize + ")";
  if (p.build_type != "Release")
    return "build type is " + p.build_type + ", not Release";
  return "";
}

}  // namespace perfbench
