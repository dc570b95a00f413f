// Reproduces Figure 1: "Queue Lengths for Common Matching Patterns" —
// match-list length histograms for the AMR (64 Ki ranks), Sweep3D
// (128 Ki ranks) and Halo3D (256 Ki ranks) communication motifs, with the
// paper's bucket widths (20 / 10 / 5) and log-scale occurrence bars.
//
// Expected shape (paper §2.3): AMR concentrates in the low-to-mid hundreds
// with extremes to the mid-400s; Sweep3D reaches the low hundreds; Halo3D
// is dominated by very small queue lengths with a steep decay.
//
// `--stride` simulates every Nth rank (histogram shape is stride-invariant;
// occurrence counts scale by 1/stride).

#include <algorithm>

#include "bench/bench_util.hpp"
#include "motifs/motif.hpp"

namespace {

/// One panel: the posted/unexpected length histograms as a table (what
/// --json, --csv and --filter see), then Fig. 1's log-scale bars.
void report(const std::string& title, const semperm::motifs::MotifSummary& s,
            semperm::Table& sampling, bool csv) {
  using namespace semperm;
  Table t({"bucket", "posted", "unexpected"});
  const std::size_t buckets =
      std::max(s.posted.bucket_count(), s.unexpected.bucket_count());
  for (std::size_t i = 0; i < buckets; ++i) {
    t.add_row({s.posted.bucket_label(i),
               Table::num(i < s.posted.bucket_count() ? s.posted.bucket(i) : 0),
               Table::num(i < s.unexpected.bucket_count() ? s.unexpected.bucket(i)
                                                          : 0)});
  }
  bench::emit(title, t, csv);
  if (!csv) {
    std::fputs(s.posted.render("posted receive queue lengths").c_str(), stdout);
    std::fputs(s.unexpected.render("unexpected message queue lengths").c_str(),
               stdout);
  }
  sampling.add_row({s.name, Table::num(s.total_ranks),
                    Table::num(s.ranks_simulated), Table::num(s.phases),
                    Table::num(s.posted.total()),
                    Table::num(s.unexpected.total())});
}

}  // namespace

int main(int argc, char** argv) {
  using namespace semperm;
  Cli cli("bench_fig1_motifs", "Figure 1: motif match-list length histograms");
  bench::add_standard_flags(cli);
  cli.add_int("stride", 0, "Rank sampling stride (0 = per-motif default)");
  if (!cli.parse(argc, argv)) return 0;
  bench::configure_report(cli);
  const bool quick = cli.flag("quick");
  const bool csv = cli.flag("csv");
  const auto stride = static_cast<int>(cli.get_int("stride"));

  Table sampling({"motif", "pattern ranks", "simulated ranks", "phases",
                  "posted samples", "unexpected samples"});

  const std::string amr_title = "Figure 1a: AMR match list sizes - 64K";
  if (bench::panel_enabled(amr_title)) {
    motifs::AmrParams amr;
    amr.seed = bench::bench_seed(amr.seed);
    if (stride > 0) amr.sample_stride = stride;
    if (quick) {
      amr.sample_stride = 1024;
      amr.phases = 4;
    }
    report(amr_title, motifs::run_amr(amr), sampling, csv);
  }

  const std::string sweep_title = "Figure 1b: Sweep3D match list sizes - 128K";
  if (bench::panel_enabled(sweep_title)) {
    motifs::Sweep3dParams sweep;
    sweep.seed = bench::bench_seed(sweep.seed);
    if (stride > 0) sweep.sample_stride = stride;
    if (quick) {
      sweep.sample_stride = 4096;
      sweep.sweeps = 1;
    }
    report(sweep_title, motifs::run_sweep3d(sweep), sampling, csv);
  }

  const std::string halo_title = "Figure 1c: Halo3D match list sizes - 256K";
  if (bench::panel_enabled(halo_title)) {
    motifs::Halo3dParams halo;
    halo.seed = bench::bench_seed(halo.seed);
    if (stride > 0) halo.sample_stride = stride;
    if (quick) {
      halo.sample_stride = 8192;
      halo.phases = 4;
    }
    report(halo_title, motifs::run_halo3d(halo), sampling, csv);
  }

  if (sampling.rows() > 0) bench::emit("Figure 1 motif sampling", sampling, csv);
  return bench::finish_report();
}
