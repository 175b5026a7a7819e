// Shared helpers for the benchmark binaries.
//
// Every bench binary regenerates one table or figure of the paper. The
// protocol, common to all of them:
//
//  * Workloads are the paper's, scaled to 1/10 by default so the suite
//    finishes on a small CI machine; SGXBENCH_FULL=1 restores paper scale.
//  * Algorithms really run on the host (validating code paths and giving
//    real native numbers); the three execution settings are then derived
//    per recorded phase: "host-scaled" = measured native time x model
//    slowdown, and "modeled" = absolute analytic estimate on the paper's
//    Table 1 reference machine.
//  * Each bench prints the paper's reported numbers or factors alongside,
//    so shape agreement (who wins, by what factor) is visible at a glance.

#ifndef SGXB_BENCH_BENCH_UTIL_H_
#define SGXB_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdlib>
#include <string>

#include "core/sgxbench.h"

namespace sgxb::bench {

/// \brief SGXBENCH_SMOKE is set: the ablation and serving benches shrink
/// to tiny inputs (a CI code-path check) and skip their speed gates.
inline bool SmokeMode() { return std::getenv("SGXBENCH_SMOKE") != nullptr; }

/// \brief The paper's canonical join input: 100 MB build, 400 MB probe
/// (Figure 1/3/6/8), scaled for the host.
struct JoinSizes {
  size_t build_tuples;
  size_t probe_tuples;
};

inline JoinSizes PaperJoinSizes() {
  return JoinSizes{
      BytesToTuples(core::ScaledBytes(100_MiB)),
      BytesToTuples(core::ScaledBytes(400_MiB)),
  };
}

/// \brief Threads used for the *real* host execution: the paper's count,
/// capped at the host's logical cores (the modeled numbers always use the
/// paper's 16/32 threads on the reference machine).
inline int HostThreads(int paper_threads) {
  return std::max(1,
                  std::min(paper_threads, CpuInfo::Host().logical_cores));
}

/// \brief Scales a recorded breakdown back to the paper's workload size
/// for modeling: at CI scale (1/10), volumes AND working sets are 10x
/// smaller than the paper's, which would hide cache-overflow effects on
/// the reference machine. No-op under SGXBENCH_FULL=1.
inline perf::PhaseBreakdown PaperScale(
    const perf::PhaseBreakdown& breakdown) {
  if (core::FullScale()) return breakdown;
  perf::PhaseBreakdown out;
  for (const auto& phase : breakdown.phases) {
    perf::PhaseStats scaled = phase;
    scaled.profile = phase.profile.ScaledBy(10.0);
    scaled.host_ns = phase.host_ns * 10.0;
    out.Add(std::move(scaled));
  }
  return out;
}

/// \brief Total input rows at paper scale (matching PaperScale above).
inline double PaperRows(double host_rows) {
  return core::FullScale() ? host_rows : host_rows * 10.0;
}

/// \brief Prints the standard three-setting table for one recorded
/// operator run: native host time, host-scaled and modeled times for the
/// SGX settings, plus throughput columns in rows/s.
inline void PrintSettingsTable(const perf::PhaseBreakdown& phases,
                               double total_rows, int paper_threads) {
  core::TablePrinter table(
      {"setting", "host-scaled time", "modeled (ref machine)",
       "modeled throughput", "rel. to native"});
  const double modeled_native = core::ModeledReferenceNs(
      phases, ExecutionSetting::kPlainCpu, false, paper_threads);
  for (ExecutionSetting setting :
       {ExecutionSetting::kPlainCpu, ExecutionSetting::kSgxDataInEnclave,
        ExecutionSetting::kSgxDataOutsideEnclave}) {
    double host_scaled = core::HostScaledNs(phases, setting);
    double modeled = core::ModeledReferenceNs(phases, setting, false,
                                              paper_threads);
    table.AddRow({ExecutionSettingToString(setting),
                  core::FormatNanos(host_scaled),
                  core::FormatNanos(modeled),
                  core::FormatRowsPerSec(total_rows / (modeled * 1e-9)),
                  core::FormatRel(modeled_native / modeled)});
  }
  table.Print();
}

/// \brief One-line experiment environment banner.
inline void PrintEnvironment() {
  const CpuInfo& cpu = CpuInfo::Host();
  std::printf(
      "  host: %s (%d cores, %s) | reps=%d | %s scale\n",
      cpu.model_name.c_str(), cpu.logical_cores,
      SimdLevelToString(cpu.max_simd), core::DefaultRepetitions(),
      core::FullScale() ? "paper (SGXBENCH_FULL=1)" : "1/10 (CI)");
}

}  // namespace sgxb::bench

#endif  // SGXB_BENCH_BENCH_UTIL_H_
