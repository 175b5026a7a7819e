// Ablation: cost of the observability layer (docs/observability.md).
//
// The obs contract is "always on": trace/metric probes stay compiled into
// production builds, and a disabled probe must cost one relaxed atomic
// load plus a predictable branch. This bench prices that contract on the
// workload where per-tuple overhead would show first — an out-of-cache
// PHT-style probe loop, the paper's Figure 4 access pattern — and gates
// the disabled-probe overhead at <= 2%.
//
// The loop is a dependent chase through a shuffled cycle — each probe
// waits on the previous one's cache miss, exactly like walking a PHT
// bucket chain that missed in cache. Three variants:
//  * bare          — no probes at all (the pre-obs code).
//  * obs-disabled  — a disabled trace probe per tuple plus a sharded
//                    counter flush per 64-tuple batch. This is far denser
//                    than production instrumentation (real probes sit at
//                    task/phase granularity), so the gate is conservative.
//  * tracing-on    — tracing enabled, one instant event per 64-tuple
//                    batch (realistic enabled density); context row, not
//                    gated.
//
// Exit status: 0 iff obs-disabled / bare <= 1.02 (the CI gate).
//
// CI runs this with SGXBENCH_SMOKE=1 (smaller table, fewer probes); the
// gate applies in both modes.

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"

using namespace sgxb;

namespace {

// 64-bit mix (splitmix64 finalizer): turns the loop counter into an
// out-of-cache index stream without a dependent pointer chase.
inline uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

obs::Counter& ProbeCounter() {
  static obs::Counter* c =
      obs::Registry::Global().GetCounter("bench.obs_probe_tuples");
  return *c;
}

enum class Variant { kBare, kDisabled, kTracingOn };

double RunVariant(Variant v, const std::vector<uint32_t>& table,
                  size_t probes, uint64_t* sink) {
  uint32_t idx = 0;
  WallTimer timer;
  switch (v) {
    case Variant::kBare:
      for (size_t i = 0; i < probes; ++i) {
        idx = table[idx];
      }
      break;
    case Variant::kDisabled:
      for (size_t i = 0; i < probes; ++i) {
        idx = table[idx];
        // The per-tuple probe: with tracing disabled this is one relaxed
        // load and a not-taken branch inside TraceInstant's guard.
        obs::TraceInstant("pht_probe", "bench");
        if ((i & 63u) == 63u) ProbeCounter().Add(64);
      }
      break;
    case Variant::kTracingOn:
      for (size_t i = 0; i < probes; ++i) {
        idx = table[idx];
        if ((i & 63u) == 63u) {
          obs::TraceInstant("pht_probe_batch", "bench");
          ProbeCounter().Add(64);
        }
      }
      break;
  }
  const double ns = static_cast<double>(timer.ElapsedNanos());
  *sink += idx;
  return ns;
}

}  // namespace

int main() {
  core::PrintExperimentHeader(
      "Ablation: observability probe overhead",
      "out-of-cache PHT probe loop, bare vs disabled obs probes vs "
      "tracing on; CI gates disabled overhead at <= 2%");
  bench::PrintEnvironment();

  // Table comfortably past LLC so every probe is a memory access; the
  // chase is latency-bound, so far fewer probes suffice than a streaming
  // loop would need.
  const size_t table_bytes =
      bench::SmokeMode() ? size_t{64_MiB} : size_t{256_MiB};
  const size_t probes =
      bench::SmokeMode() ? (size_t{1} << 21) : (size_t{1} << 23);
  const int reps = bench::SmokeMode() ? 3 : 5;

  // One full cycle through the table in shuffled order (Sattolo), so the
  // chase visits every slot with no short loops.
  std::vector<uint32_t> table(table_bytes / sizeof(uint32_t));
  for (size_t i = 0; i < table.size(); ++i) {
    table[i] = static_cast<uint32_t>(i);
  }
  uint64_t rng = 0x5eed;
  for (size_t i = table.size() - 1; i > 0; --i) {
    rng = Mix(rng);
    const size_t j = rng % i;  // j < i: Sattolo keeps a single cycle
    std::swap(table[i], table[j]);
  }

  // Tracing must start disabled regardless of the environment: the gated
  // comparison prices the *disabled* probe. (SGXBENCH_TRACE re-enables
  // nothing here — the atexit exporter still runs if set.)
  obs::DisableTracing();

  uint64_t sink = 0;
  double best[3] = {0, 0, 0};
  // Interleave variants across repetitions so frequency drift and page
  // cache warmth hit all three equally; keep the best (min) time each.
  for (int r = 0; r < reps; ++r) {
    for (int v = 0; v < 3; ++v) {
      const Variant variant = static_cast<Variant>(v);
      if (variant == Variant::kTracingOn) {
        obs::EnableTracing();
      } else {
        obs::DisableTracing();
      }
      const double ns = RunVariant(variant, table, probes, &sink);
      if (best[v] == 0 || ns < best[v]) best[v] = ns;
    }
  }
  obs::DisableTracing();
  if (sink == 42) std::printf(" \n");  // defeat dead-code elimination

  const double per_probe_bare = best[0] / static_cast<double>(probes);
  const double ratio_disabled = best[1] / best[0];
  const double ratio_traced = best[2] / best[0];

  core::TablePrinter table_out(
      {"variant", "total", "ns/probe", "vs bare"});
  table_out.AddRow({"bare", core::FormatNanos(best[0]),
                    core::FormatNanos(per_probe_bare), "1.00x"});
  table_out.AddRow({"obs-disabled", core::FormatNanos(best[1]),
                    core::FormatNanos(best[1] / probes),
                    core::FormatRel(1.0 / ratio_disabled)});
  table_out.AddRow({"tracing-on", core::FormatNanos(best[2]),
                    core::FormatNanos(best[2] / probes),
                    core::FormatRel(1.0 / ratio_traced)});
  table_out.Print();
  table_out.ExportCsv("ablation_obs");

  char note[200];
  std::snprintf(note, sizeof(note),
                "disabled probes cost %+.2f%% on an out-of-cache probe "
                "loop at per-tuple density (gate: <= +2%%); tracing on "
                "costs %+.1f%% at one event per 64 tuples.",
                (ratio_disabled - 1.0) * 100.0,
                (ratio_traced - 1.0) * 100.0);
  core::PrintNote(note);

  obs::TraceStats ts = obs::GetTraceStats();
  std::printf("  trace rings: %llu recorded, %llu dropped across %d "
              "threads; counter bench.obs_probe_tuples=%llu\n",
              static_cast<unsigned long long>(ts.recorded),
              static_cast<unsigned long long>(ts.dropped), ts.threads,
              static_cast<unsigned long long>(ProbeCounter().Value()));

  return ratio_disabled <= 1.02 ? 0 : 1;
}
