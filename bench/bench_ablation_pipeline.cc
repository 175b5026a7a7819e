// Ablation: fused morsel-driven pipelines vs the paper's
// operator-at-a-time materialization (docs/pipelines.md).
//
// Runs every TPC-H query twice — materializing (the paper's Section 6
// setup, QueryConfig::pipeline = false) and fused (pipeline = true) —
// and reports the measured per-query `tpch.bytes_materialized` counter
// next to native and host-scaled in-enclave times. The modeled column is
// perf::MaterializationTrafficNs of the avoided bytes: one write plus
// one re-read under enclave memory encryption, the traffic class fusion
// eliminates. The multi-join queries must always show a byte reduction;
// outside smoke mode at least one of them must also show an end-to-end
// in-enclave speedup.
//
// Reproduce the CSV with:
//   SGXBENCH_CSV_DIR=results ./build/bench/bench_ablation_pipeline
// CI runs the same binary with SGXBENCH_SMOKE=1 (tiny SF) purely as a
// code-path and artifact check.

#include <cstdlib>
#include <string>

#include "bench_util.h"
#include "perf/cost_model.h"

using namespace sgxb;

namespace {

struct ModeRun {
  uint64_t count = 0;
  uint64_t bytes = 0;   // tpch.bytes_materialized delta
  double native_ns = 0;
  double sgx_ns = 0;    // host-scaled kSgxDataInEnclave
};

ModeRun Measure(int query, const tpch::TpchDb& db, bool fused,
                int threads) {
  tpch::QueryConfig cfg;
  cfg.num_threads = threads;
  cfg.radix_bits = core::FullScale() ? 14 : 10;
  cfg.pipeline = fused;

  ModeRun best;
  for (int rep = 0; rep < core::DefaultRepetitions(); ++rep) {
    auto result = tpch::RunQuery(query, db, cfg);
    if (!result.ok()) {
      std::fprintf(stderr, "Q%d (%s) failed: %s\n", query,
                   fused ? "fused" : "materializing",
                   result.status().ToString().c_str());
      std::exit(1);
    }
    const tpch::QueryResult& r = result.value();
    double native =
        core::HostScaledNs(r.phases, ExecutionSetting::kPlainCpu);
    if (rep == 0 || native < best.native_ns) {
      best.count = r.count;
      best.bytes = r.report.bytes_materialized;
      best.native_ns = native;
      best.sgx_ns = core::HostScaledNs(
          r.phases, ExecutionSetting::kSgxDataInEnclave);
    }
  }
  return best;
}

}  // namespace

int main() {
  core::PrintExperimentHeader(
      "Ablation A7",
      "fused morsel pipelines vs operator-at-a-time materialization");
  bench::PrintEnvironment();

  tpch::GenConfig gen;
  gen.scale_factor =
      bench::SmokeMode() ? 0.01 : (core::FullScale() ? 10.0 : 0.1);
  std::printf("  generating TPC-H data at SF %.2f ...\n",
              gen.scale_factor);
  tpch::TpchDb db = tpch::Generate(gen).value();
  std::printf("  lineitem: %zu rows\n", db.lineitem.num_rows);

  const int threads = bench::HostThreads(16);
  perf::ExecutionEnv sgx_env;
  sgx_env.setting = ExecutionSetting::kSgxDataInEnclave;
  sgx_env.threads = threads;

  core::TablePrinter table({"query", "mode", "count(*)",
                            "bytes materialized", "native (host)",
                            "SGX-in (host-scaled)", "SGX speedup",
                            "modeled traffic saved"});

  bool bytes_reduced_everywhere = true;
  double best_join_speedup = 0.0;
  for (int query : {1, 6, 3, 10, 12, 19}) {
    const bool multi_join = query == 3 || query == 10 || query == 12 ||
                            query == 19;
    ModeRun mat = Measure(query, db, /*fused=*/false, threads);
    ModeRun fused = Measure(query, db, /*fused=*/true, threads);
    if (fused.count != mat.count) {
      std::fprintf(stderr, "Q%d count mismatch: fused %llu vs %llu\n",
                   query, (unsigned long long)fused.count,
                   (unsigned long long)mat.count);
      return 1;
    }
    if (fused.bytes >= mat.bytes) bytes_reduced_everywhere = false;

    const uint64_t avoided =
        mat.bytes > fused.bytes ? mat.bytes - fused.bytes : 0;
    const double saved_ns = perf::MaterializationTrafficNs(
        perf::CostModel::Reference(), avoided, sgx_env);
    const double speedup = mat.sgx_ns / fused.sgx_ns;
    if (multi_join) {
      best_join_speedup = std::max(best_join_speedup, speedup);
    }

    const std::string qname = "Q" + std::to_string(query);
    table.AddRow({qname, "materializing", std::to_string(mat.count),
                  core::FormatBytes(mat.bytes),
                  core::FormatNanos(mat.native_ns),
                  core::FormatNanos(mat.sgx_ns), core::FormatRel(1.0),
                  "-"});
    table.AddRow({qname, "fused", std::to_string(fused.count),
                  core::FormatBytes(fused.bytes),
                  core::FormatNanos(fused.native_ns),
                  core::FormatNanos(fused.sgx_ns),
                  core::FormatRel(speedup),
                  core::FormatNanos(saved_ns)});
  }
  table.Print();
  table.ExportCsv("ablation_pipeline");

  std::printf("  best in-enclave speedup on a multi-join query: %.2fx\n",
              best_join_speedup);
  core::PrintNote(
      "fusion's win is the avoided round trip: every intermediate a "
      "materializing operator writes is re-read by the next one, and "
      "in-enclave that traffic pays memory encryption both ways. The "
      "per-morsel selection vectors stay in worker-local arena scratch "
      "(cache-resident), so only pipeline breakers — hash-table builds "
      "and the final aggregates — still touch shared memory.");

  if (!bytes_reduced_everywhere) {
    std::fprintf(stderr,
                 "FAIL: a fused plan materialized at least as many bytes "
                 "as its materializing counterpart\n");
    return 1;
  }
  if (!bench::SmokeMode() && best_join_speedup <= 1.0) {
    std::fprintf(stderr,
                 "FAIL: no multi-join query sped up in-enclave under "
                 "fusion\n");
    return 1;
  }
  return 0;
}
