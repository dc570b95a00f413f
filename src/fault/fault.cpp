#include "fault/fault.hpp"

#include <cstdlib>
#include <sstream>
#include <stdexcept>

#include "common/rng.hpp"

namespace semperm::fault {

namespace {

// Spec keys in FaultSite order.
constexpr const char* kSiteKeys[kSiteCount] = {"drop", "dup", "reorder",
                                               "delay", "stall"};

FaultSite site_from_key(const std::string& key) {
  for (std::size_t i = 0; i < kSiteCount; ++i)
    if (key == kSiteKeys[i]) return static_cast<FaultSite>(i);
  throw std::invalid_argument("fault spec: unknown site '" + key + "'");
}

std::uint64_t parse_u64(const std::string& text, const std::string& where) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 0);
  if (end == text.c_str() || *end != '\0')
    throw std::invalid_argument("fault spec: bad integer '" + text + "' in " +
                                where);
  return static_cast<std::uint64_t>(v);
}

double parse_prob(const std::string& text, const std::string& where) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0' || v < 0.0 || v >= 1.0)
    throw std::invalid_argument("fault spec: probability '" + text + "' in " +
                                where + " must be in [0, 1)");
  return v;
}

}  // namespace

const char* site_name(FaultSite site) {
  const auto i = static_cast<std::size_t>(site);
  return i < kSiteCount ? kSiteKeys[i] : "?";
}

FaultPlan FaultPlan::parse(const std::string& spec) {
  FaultPlan plan;
  std::stringstream ss(spec);
  std::string token;
  while (std::getline(ss, token, ',')) {
    if (token.empty()) continue;
    // "<site>@seq" (one-shot) and "<site>@start+len" (burst) forms.
    const auto at = token.find('@');
    if (at != std::string::npos) {
      SiteSpec& s = plan.site(site_from_key(token.substr(0, at)));
      const std::string sched = token.substr(at + 1);
      const auto plus = sched.find('+');
      if (plus == std::string::npos) {
        s.one_shot_seq = parse_u64(sched, token);
        if (s.one_shot_seq == 0)
          throw std::invalid_argument("fault spec: one-shot seq must be >= 1");
      } else {
        s.burst_start = parse_u64(sched.substr(0, plus), token);
        s.burst_len = parse_u64(sched.substr(plus + 1), token);
      }
      continue;
    }
    const auto eq = token.find('=');
    if (eq == std::string::npos)
      throw std::invalid_argument("fault spec: expected key=value in '" +
                                  token + "'");
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    if (key == "seed") {
      plan.seed = parse_u64(value, token);
    } else if (key == "max-attempts") {
      plan.max_drop_attempts =
          static_cast<std::uint32_t>(parse_u64(value, token));
    } else if (key == "delay-ns") {
      plan.delay_spike_ns = parse_u64(value, token);
    } else {
      plan.site(site_from_key(key)).probability = parse_prob(value, token);
    }
  }
  return plan;
}

std::string FaultPlan::to_string() const {
  std::ostringstream os;
  bool first = true;
  auto sep = [&]() -> std::ostringstream& {
    if (!first) os << ',';
    first = false;
    return os;
  };
  for (std::size_t i = 0; i < kSiteCount; ++i) {
    const SiteSpec& s = sites[i];
    if (s.probability > 0.0) sep() << kSiteKeys[i] << '=' << s.probability;
    if (s.one_shot_seq != 0) sep() << kSiteKeys[i] << '@' << s.one_shot_seq;
    if (s.burst_len != 0)
      sep() << kSiteKeys[i] << '@' << s.burst_start << '+' << s.burst_len;
  }
  // Non-default knobs must round-trip too: the echoed spec in a JSON
  // report is the replay recipe for that run.
  if (max_drop_attempts != FaultPlan{}.max_drop_attempts)
    sep() << "max-attempts=" << max_drop_attempts;
  if (delay_spike_ns != FaultPlan{}.delay_spike_ns)
    sep() << "delay-ns=" << delay_spike_ns;
  sep() << "seed=" << seed;
  return os.str();
}

double FaultInjector::roll(std::uint64_t seed, FaultSite site, int src,
                           int dst, std::uint64_t seq, std::uint32_t attempt) {
  // Mix the full tuple through splitmix64: each field lands in its own
  // state perturbation, so nearby tuples give unrelated rolls.
  std::uint64_t state = seed;
  state ^= 0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(site) + 1);
  (void)splitmix64(state);
  state ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) |
           (static_cast<std::uint64_t>(static_cast<std::uint32_t>(dst)) << 32);
  (void)splitmix64(state);
  state ^= seq;
  (void)splitmix64(state);
  state ^= attempt;
  const std::uint64_t bits = splitmix64(state);
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

bool FaultInjector::site_fires(FaultSite site, int src, int dst,
                               std::uint64_t seq,
                               std::uint32_t attempt) const {
  const SiteSpec& s = plan_.site(site);
  if (!s.active()) return false;
  if (attempt == 0) {
    if (s.one_shot_seq != 0 && seq == s.one_shot_seq) return true;
    if (s.burst_len != 0 && seq >= s.burst_start &&
        seq < s.burst_start + s.burst_len)
      return true;
  }
  return s.probability > 0.0 &&
         roll(plan_.seed, site, src, dst, seq, attempt) < s.probability;
}

FaultDecision FaultInjector::decide(int src, int dst, std::uint64_t seq,
                                    std::uint32_t attempt) {
  FaultDecision d;
  ++stats_.rolls;
  if (site_fires(FaultSite::kNetDrop, src, dst, seq, attempt)) {
    if (attempt + 1 >= plan_.max_drop_attempts) {
      ++stats_.forced_deliveries;  // livelock guard: let it through
    } else {
      d.drop = true;
      ++stats_.drops;
      return d;  // a dropped frame can't also be duplicated or held
    }
  }
  if (site_fires(FaultSite::kNetDuplicate, src, dst, seq, attempt)) {
    d.duplicate = true;
    ++stats_.duplicates;
  }
  if (site_fires(FaultSite::kNetReorder, src, dst, seq, attempt)) {
    d.reorder = true;
    ++stats_.reorders;
  } else if (site_fires(FaultSite::kNetDelay, src, dst, seq, attempt)) {
    d.delay_ns = plan_.delay_spike_ns;
    ++stats_.delays;
  }
  return d;
}

bool FaultInjector::heater_stalls(std::uint64_t pass_no) {
  if (!site_fires(FaultSite::kHeaterStall, /*src=*/-1, /*dst=*/-1, pass_no,
                  /*attempt=*/0))
    return false;
  ++stats_.heater_stalls;
  return true;
}

}  // namespace semperm::fault
