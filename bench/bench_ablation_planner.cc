// Ablation: the cost-based planner's mode choice vs both forced
// lowerings (docs/planner.md).
//
// For every catalog query — the paper's six plus the plan-only Q5-style
// extensions — runs the plan three ways: forced materializing
// (QueryConfig::pipeline = false), forced fused (pipeline = true), and
// planner-chosen (no knob; the cost model picks). Counts must agree
// across all three. The gate: outside smoke mode, the planner-chosen
// lowering must reach at least 0.95x the throughput of the better forced
// mode on every query — i.e. a wrong mode pick that costs more than 5%
// fails the run. The per-query CSV also records which mode the planner
// picked and both modeled costs, so regressions are diagnosable from the
// artifact alone.
//
// Reproduce the CSV with:
//   SGXBENCH_CSV_DIR=results ./build/bench/bench_ablation_planner
// CI runs the same binary with SGXBENCH_SMOKE=1 (tiny SF) purely as a
// code-path and artifact check.

#include <algorithm>
#include <cstdlib>
#include <string>

#include "bench_util.h"
#include "plan/catalog.h"
#include "plan/planner.h"

using namespace sgxb;

namespace {

struct ModeRun {
  uint64_t count = 0;
  double native_ns = 0;
};

// mode: 0 = forced materializing, 1 = forced fused, 2 = planner choice.
ModeRun Measure(int query, const tpch::TpchDb& db, int mode, int threads) {
  tpch::QueryConfig cfg;
  cfg.num_threads = threads;
  cfg.radix_bits = core::FullScale() ? 14 : 10;
  if (mode == 0) cfg.pipeline = false;
  if (mode == 1) cfg.pipeline = true;

  ModeRun best;
  for (int rep = 0; rep < core::DefaultRepetitions(); ++rep) {
    auto result = tpch::RunQuery(query, db, cfg);
    if (!result.ok()) {
      std::fprintf(stderr, "query %d (mode %d) failed: %s\n", query, mode,
                   result.status().ToString().c_str());
      std::exit(1);
    }
    const double native = core::HostScaledNs(result.value().phases,
                                             ExecutionSetting::kPlainCpu);
    if (rep == 0 || native < best.native_ns) {
      best.count = result.value().count;
      best.native_ns = native;
    }
  }
  return best;
}

}  // namespace

int main() {
  core::PrintExperimentHeader(
      "Ablation A8",
      "cost-based planner mode choice vs forced lowerings");
  bench::PrintEnvironment();

  tpch::GenConfig gen;
  gen.scale_factor =
      bench::SmokeMode() ? 0.01 : (core::FullScale() ? 10.0 : 0.1);
  std::printf("  generating TPC-H data at SF %.2f ...\n", gen.scale_factor);
  tpch::TpchDb db = tpch::Generate(gen).value();
  std::printf("  lineitem: %zu rows\n", db.lineitem.num_rows);

  const int threads = bench::HostThreads(16);
  const tpch::TpchDbView view = tpch::ViewOf(db);

  core::TablePrinter table({"query", "planner picked", "materializing",
                            "fused", "planner-chosen", "vs best forced",
                            "modeled fused", "modeled materializing"});

  bool counts_agree = true;
  double worst_ratio = 1e9;
  std::string worst_query = "-";
  for (const plan::CatalogEntry& entry : plan::Catalog()) {
    tpch::QueryConfig decide_cfg;
    decide_cfg.num_threads = threads;
    const plan::PlanDecisions decisions =
        plan::DecideFor(entry.plan, view, decide_cfg);

    const ModeRun mat = Measure(entry.query_number, db, 0, threads);
    const ModeRun fused = Measure(entry.query_number, db, 1, threads);
    const ModeRun chosen = Measure(entry.query_number, db, 2, threads);
    if (chosen.count != mat.count || fused.count != mat.count) {
      std::fprintf(stderr, "%s count mismatch across modes\n", entry.name);
      counts_agree = false;
    }

    const double best_forced = std::min(mat.native_ns, fused.native_ns);
    // Throughput ratio of the planner's pick against the better forced
    // mode (1.0 = matched it; < 1 = the pick left time on the table).
    const double ratio = best_forced / chosen.native_ns;
    if (ratio < worst_ratio) {
      worst_ratio = ratio;
      worst_query = entry.name;
    }

    table.AddRow({entry.name,
                  decisions.fused ? "fused" : "materializing",
                  core::FormatNanos(mat.native_ns),
                  core::FormatNanos(fused.native_ns),
                  core::FormatNanos(chosen.native_ns),
                  core::FormatRel(ratio),
                  core::FormatNanos(decisions.fused_cost_ns),
                  core::FormatNanos(decisions.materializing_cost_ns)});
  }
  table.Print();
  table.ExportCsv("ablation_planner");

  std::printf("  worst planner pick: %s at %.2fx the best forced mode\n",
              worst_query.c_str(), worst_ratio);
  core::PrintNote(
      "the planner only has to not lose: both lowerings produce identical "
      "results, so its job is picking the cheaper one from the calibrated "
      "cost model's estimates. A pick within noise of the best forced "
      "mode means plan-driven execution costs nothing over the "
      "hand-tuned drivers it replaced.");

  if (!counts_agree) {
    std::fprintf(stderr, "FAIL: query results differ across modes\n");
    return 1;
  }
  if (!bench::SmokeMode() && worst_ratio < 0.95) {
    std::fprintf(stderr,
                 "FAIL: planner-chosen mode fell below 0.95x the best "
                 "forced lowering (%s: %.2fx)\n",
                 worst_query.c_str(), worst_ratio);
    return 1;
  }
  return 0;
}
