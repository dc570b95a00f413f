// Seeded fixture for semperm_analyze: audit-mesi-bypass.
//
// Lives under a `src/coherence` path fragment so the MESI routing check
// applies. Expected findings: audit-mesi-bypass x3 (rollback_for_test,
// reset, free_poke). The directory writes inside the audited mutators
// CoherentHierarchy::set_state / drop_sharer must stay clean — this is
// exactly the resolution grep could not do.

#include <cstdint>
#include <unordered_map>

namespace semperm::fixture {

struct DirEntry {
  std::uint64_t sharers = 0;
  int owner = -1;
  bool dirty = false;
};

class CoherentHierarchy {
 public:
  void set_state(int core, std::uint64_t line, int st) {
    // Negative control: the audited mutator itself writes the record.
    directory_[line].sharers |= std::uint64_t{1} << core;
  }

  void drop_sharer(int core, std::uint64_t line) {
    // Negative control: the other audited mutator.
    directory_.erase(line);
  }

  void rollback_for_test(std::uint64_t line) {
    directory_.erase(line);
  }

  void reset() {
    directory_.clear();
  }

  std::unordered_map<std::uint64_t, DirEntry> directory_;
};

void free_poke(CoherentHierarchy& h, std::uint64_t line) {
  h.directory_[line] = DirEntry{};
}

}  // namespace semperm::fixture
