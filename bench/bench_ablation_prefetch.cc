// Ablation A11: latency-hiding probe pipelines (docs/prefetching.md).
//
// Sweeps probe scheduling (tuple-at-a-time vs group prefetching vs AMAC)
// x batch size / prefetch distance x build-side size over the four probe
// paths that dispatch through exec/probe_pipeline.h: the PHT bucket-chain
// probe, the CHT bitmap+dense probe, the B-tree INL descent, and the
// radix join's in-cache chain probe. Single-threaded on purpose: with one
// thread the probe loop's exposed miss latency dominates, so the table
// isolates what software prefetching recovers (the multi-threaded effect
// is bounded by the same bandwidth floor for every mode).
//
// Reproduce the CSV with:
//   SGXBENCH_CSV_DIR=results ./build/bench/bench_ablation_prefetch
// CI runs the same binary with SGXBENCH_SMOKE=1 (tiny inputs, two
// widths) purely as a code-path and artifact check.

#include <string>
#include <vector>

#include "bench_util.h"
#include "join/cht_join.h"
#include "join/data_gen.h"
#include "join/inl_join.h"
#include "join/materializer.h"
#include "join/pht_join.h"
#include "join/radix_common.h"

using namespace sgxb;

namespace {

struct Workload {
  const char* label;  // "in-cache" / "out-of-cache"
  Relation build;
  Relation probe;
};

using JoinFn = Result<join::JoinResult> (*)(const Relation&,
                                            const Relation&,
                                            const join::JoinConfig&);

// Probe-phase nanoseconds of one run (mean over DefaultRepetitions).
double ProbeNs(JoinFn fn, const Workload& w, exec::ProbeMode mode,
               int width) {
  join::JoinConfig config;
  config.num_threads = 1;
  config.flavor = KernelFlavor::kUnrolledReordered;
  config.probe_mode = mode;
  config.probe_batch = width;
  return core::Repeat([&] {
           auto result = fn(w.build, w.probe, config).value();
           const perf::PhaseStats* probe =
               result.phases.Find("probe");
           return probe != nullptr ? probe->host_ns : result.host_ns;
         })
      .mean_ns;
}

// The radix in-cache primitive has no phase recorder: time the whole
// build+probe call (build is 1/4 of the tuples and identical across
// modes, so it dilutes but cannot fake a probe speedup).
double InCacheJoinNs(const Workload& w, exec::ProbeMode mode, int width) {
  join::InCacheJoinScratch scratch;
  return core::Repeat([&] {
           WallTimer timer;
           uint64_t m = join::InCachePartitionJoin(
               w.build.tuples(), w.build.num_tuples(), w.probe.tuples(),
               w.probe.num_tuples(), KernelFlavor::kUnrolledReordered,
               &scratch, nullptr, nullptr, mode, width);
           double ns = static_cast<double>(timer.ElapsedNanos());
           if (m == 0) std::abort();  // keep the join un-elided
           return ns;
         })
      .mean_ns;
}

}  // namespace

int main() {
  core::PrintExperimentHeader(
      "Ablation A11",
      "latency-hiding probe pipelines: mode x width x build size");
  bench::PrintEnvironment();

  // Build sides: one hash-table-in-cache size and one that overflows L3
  // on any recent host (at CI scale the PHT table is ~50 MB). Probe is
  // 4x the build side, like the paper's 100/400 MB join inputs.
  const size_t in_cache_build =
      bench::SmokeMode() ? 4096 : BytesToTuples(256_KiB);
  const size_t out_of_cache_build =
      bench::SmokeMode() ? 16384 : BytesToTuples(core::ScaledBytes(100_MiB));

  std::vector<Workload> workloads;
  for (auto [label, build_n] :
       {std::pair{"in-cache", in_cache_build},
        std::pair{"out-of-cache", out_of_cache_build}}) {
    Workload w;
    w.label = label;
    w.build = join::GenerateBuildRelation(build_n,
                                          MemoryRegion::kUntrusted)
                  .value();
    w.probe = join::GenerateProbeRelation(build_n * 4, build_n,
                                          MemoryRegion::kUntrusted)
                  .value();
    workloads.push_back(std::move(w));
  }

  struct Path {
    const char* name;
    JoinFn fn;  // null = in-cache primitive
  };
  const Path paths[] = {
      {"PHT", &join::PhtJoin},
      {"CHT", &join::ChtJoin},
      {"INL", &join::InlJoin},
      {"RHO-incache", nullptr},
  };
  const std::vector<int> widths =
      bench::SmokeMode() ? std::vector<int>{8, 16}
                         : std::vector<int>{4, 8, 16, 32, 64};

  core::TablePrinter table({"path", "build side", "mode", "width",
                            "probe time", "throughput",
                            "speedup vs tuple"});
  double pht_out_of_cache_best = 0.0;
  for (const Path& path : paths) {
    for (const Workload& w : workloads) {
      auto measure = [&](exec::ProbeMode mode, int width) {
        return path.fn != nullptr ? ProbeNs(path.fn, w, mode, width)
                                  : InCacheJoinNs(w, mode, width);
      };
      const double rows = static_cast<double>(w.probe.num_tuples());
      const double tuple_ns =
          measure(exec::ProbeMode::kTupleAtATime, 0);
      table.AddRow({path.name, w.label, "tuple", "-",
                    core::FormatNanos(tuple_ns),
                    core::FormatRowsPerSec(rows / (tuple_ns * 1e-9)),
                    core::FormatRel(1.0)});
      for (exec::ProbeMode mode :
           {exec::ProbeMode::kGroupPrefetch, exec::ProbeMode::kAmac}) {
        for (int width : widths) {
          const double ns = measure(mode, width);
          const double speedup = tuple_ns / ns;
          table.AddRow({path.name, w.label,
                        exec::ProbeModeToString(mode),
                        std::to_string(width), core::FormatNanos(ns),
                        core::FormatRowsPerSec(rows / (ns * 1e-9)),
                        core::FormatRel(speedup)});
          if (path.fn == &join::PhtJoin &&
              std::string(w.label) == "out-of-cache") {
            pht_out_of_cache_best =
                std::max(pht_out_of_cache_best, speedup);
          }
        }
      }
    }
  }
  table.Print();
  table.ExportCsv("ablation_prefetch");

  std::printf("  best batched speedup on out-of-cache PHT probe: %.2fx\n",
              pht_out_of_cache_best);
  core::PrintNote(
      "batching pays where misses are exposed: the out-of-cache probes "
      "gain the most, the in-cache rows bound the bookkeeping overhead. "
      "AMAC's ring tolerates mixed chain depths (INL descents, overflow "
      "chains); group prefetching is simpler and wins on uniform depth.");
  return 0;
}
