// perfbench self-test:
//   1. for shrunken copies of every operation of every workload, the
//      composed driver (untraced and traced) reproduces the library entry
//      point's fingerprint, and the conservation identities hold;
//   2. a corrupted or missing reference fingerprint fails the operation
//      through the gate, without a crash;
//   3. recorded spans nest inside their parents and no self time is
//      negative;
//   4. the provenance guard refuses a build with tracing, audit, fault
//      sites or a sanitizer compiled in, or of another build type.
//
// Usage: perfbench_selftest <temp-file>   (exit 0 = pass)

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "composed.hpp"
#include "fingerprint.hpp"
#include "gate.hpp"
#include "operations.hpp"
#include "provenance.hpp"
#include "span_trace.hpp"

namespace {

using namespace perfbench;

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

void composed_matches_library() {
  for (const Workload w : all_workloads()) {
    for (const std::uint64_t seed : {kReferenceSeed, std::uint64_t{7}}) {
      int checked = 0;
      for (Operation op : make_operations(w, seed)) {
        shrink_for_selftest(op);
        const std::string what =
            std::string(workload_name(w)) + " " + op.label + " seed " +
            std::to_string(seed);
        const OpOutcome lib = run_library(op);
        expect(lib.ok(), what + ": library: " + lib.error);
        const OpOutcome plain = run_composed(op, nullptr, nullptr);
        expect(plain.ok() && plain.fingerprint == lib.fingerprint,
               what + ": untraced composed driver differs " + plain.error);
        Tracer tracer;
        LayerCounts counts;
        const OpOutcome traced = run_composed(op, &tracer, &counts);
        expect(traced.ok() && traced.fingerprint == lib.fingerprint,
               what + ": traced composed driver differs " + traced.error);
        expect(tracer.idle(), what + ": spans left open");
        expect(check_nesting(tracer.records()).empty(),
               what + ": " + check_nesting(tracer.records()));
        expect(tracer.negative_spans() == 0,
               what + ": " + std::to_string(tracer.negative_spans()) +
                   " spans with negative self time");
        const LayerArray totals = tracer.totals();
        for (std::size_t l = 0; l < totals.size(); ++l)
          expect(totals[l].self_ns >= 0,
                 what + ": layer " + layer_name(static_cast<Layer>(l)) +
                     " self time " + std::to_string(totals[l].self_ns) +
                     " ns over " + std::to_string(totals[l].calls) + " calls");
        ++checked;
      }
      expect(checked > 0, std::string(workload_name(w)) + ": no operations");
    }
  }
}

void corrupted_reference_fails_operation(const std::string& temp_path) {
  Operation op = make_operations(Workload::kAppFds, kReferenceSeed).front();
  shrink_for_selftest(op);
  const OpOutcome out = run_library(op);
  expect(out.ok(), "reference probe operation ran");

  {
    std::ofstream f(temp_path);
    f << "# test\n"
      << "app_fds\t" << op.label << "\t" << hex64(out.fingerprint ^ 1) << "\n"
      << "app_fds\tother\tnot-a-fingerprint\n";
  }
  std::string error;
  ReferenceTable corrupt = load_reference(temp_path, Workload::kAppFds, &error);
  expect(error.empty(), "reference file readable: " + error);
  expect(corrupt.size() == 1, "malformed reference line skipped");
  OutputGate gate(&corrupt);
  expect(!gate.check(op.label, out).empty(),
         "corrupted reference fingerprint fails the operation");
  expect(!gate.check("other", out).empty(),
         "unparseable reference entry fails the operation");

  ReferenceTable good{{op.label, out.fingerprint}};
  OutputGate good_gate(&good);
  expect(good_gate.check(op.label, out).empty(), "matching reference passes");

  std::string missing_error;
  const ReferenceTable none =
      load_reference(temp_path + ".absent", Workload::kAppFds, &missing_error);
  expect(!missing_error.empty() && none.empty(),
         "absent reference file reported, not fatal");

  OutputGate self(nullptr);
  expect(self.check(op.label, out).empty(), "first run defines the label");
  OpOutcome drifted = out;
  drifted.fingerprint ^= 2;
  expect(!self.check(op.label, drifted).empty(),
         "a repeat with another fingerprint fails");
  OpOutcome broken = out;
  broken.error = "threw: boom";
  expect(!self.check(op.label, broken).empty(), "a throwing operation fails");
}

void spans_nest() {
  Tracer t;
  t.set_op(1);
  t.begin(Layer::kOp);
  t.begin(Layer::kMatch);
  { LeafSpan leaf(&t, Layer::kAccess); }
  t.end();
  t.begin(Layer::kPhase);
  t.end();
  t.end();
  expect(t.idle(), "manual spans closed");
  expect(t.records().size() == 3, "leaf span not recorded");
  expect(check_nesting(t.records()).empty(), "manual spans nest");
  std::int64_t self_sum = 0;
  for (const LayerTotals& l : t.totals()) self_sum += l.self_ns;
  const SpanRecord& op = t.records().back();
  // No more than the span: the leaf's own cost is taken out.
  expect(op.layer == Layer::kOp && self_sum <= op.end_ns - op.start_ns + 4,
         "self times fit in the operation span");

  std::vector<SpanRecord> bad = t.records();
  bad.front().end_ns = op.end_ns + 1;  // the match span escapes the op
  expect(!check_nesting(bad).empty(), "an escaping span is detected");
  bad = t.records();
  bad.front().self_ns = -1;
  expect(!check_nesting(bad).empty(), "a negative self time is detected");
}

void provenance_guard_refuses() {
  Provenance measured = build_provenance();
  measured.build_type = "Release";
  measured.trace = measured.audit = measured.fault = false;
  measured.sanitize.clear();
  expect(measurement_refusal(measured).empty(),
         "the measurement build is accepted");

  const auto refused = [&](const char* what, auto change) {
    Provenance p = measured;
    change(p);
    expect(!measurement_refusal(p).empty(),
           std::string("a build with ") + what + " is refused");
  };
  refused("tracing", [](Provenance& p) { p.trace = true; });
  refused("audit", [](Provenance& p) { p.audit = true; });
  refused("fault sites", [](Provenance& p) { p.fault = true; });
  refused("a sanitizer", [](Provenance& p) { p.sanitize = "address"; });
  refused("build type RelWithDebInfo",
          [](Provenance& p) { p.build_type = "RelWithDebInfo"; });
  refused("build type Debug", [](Provenance& p) { p.build_type = "Debug"; });
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: perfbench_selftest <temp-file>\n");
    return 2;
  }
  composed_matches_library();
  corrupted_reference_fails_operation(argv[1]);
  spans_nest();
  provenance_guard_refuses();
  std::remove(argv[1]);
  if (g_failures == 0) std::printf("perfbench self-test: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
