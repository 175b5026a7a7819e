// Ablation A6: the arena memory subsystem under repeated queries against
// one long-lived enclave (docs/memory.md).
//
// Sweeps {fresh-alloc, arena, arena+pool} x {static, dynamic-EDMM}. Every
// configuration runs the same RHO join (materialized output) several times
// in a row inside a single enclave, the way a resident secure DBMS serves
// a query stream. "fresh-alloc" makes one resource allocation per
// structure (AllocPolicy::kDirect); "arena" bump-allocates per query but
// frees the chunks at query end; "arena+pool" keeps the chunks committed
// in a shared ArenaPool across queries.
//
// Under static sizing the three are near-identical: pages are committed
// at enclave build, so the allocator path only moves cheap host mallocs.
// Under dynamic sizing with EDMM trim-on-free (a minimal-footprint
// enclave), every query of the fresh and per-query-arena configurations
// re-pays the page-commit cost that the pool pays once — the Figure 11
// static-vs-dynamic gap reproduced, and closed, at the allocator level.
//
// CI runs this with SGXBENCH_SMOKE=1 (tiny inputs) for the code path and
// the CSV artifact; headline numbers need a normal run.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"

using namespace sgxb;

namespace {

struct AllocMode {
  const char* label;
  join::AllocPolicy policy;
  bool pooled;
};

struct Sizing {
  const char* label;
  bool dynamic;
};

struct SteadyState {
  double first_ns = 0;       // query 1: cold allocations / EDMM growth
  double steady_ns = 0;      // mean of queries 2..N
  double steady_pages = 0;   // EDMM pages added per steady query
  uint64_t reuse_hits = 0;
};

}  // namespace

int main() {
  core::PrintExperimentHeader(
      "Ablation A6",
      "repeated RHO joins in one long-lived enclave: fresh-alloc vs "
      "arena vs arena+pool, static vs dynamic-EDMM sizing");
  bench::PrintEnvironment();

  const size_t build_tuples = BytesToTuples(
      bench::SmokeMode() ? size_t{1_MiB} : core::ScaledBytes(25_MiB));
  const size_t probe_tuples = BytesToTuples(
      bench::SmokeMode() ? size_t{4_MiB} : core::ScaledBytes(100_MiB));
  const int queries = bench::SmokeMode() ? 3 : 6;
  const int threads = bench::SmokeMode() ? 2 : bench::HostThreads(8);

  // Inputs stay untrusted (the paper's data-outside storage); everything
  // the join allocates — partitions, hash tables, materialized output —
  // goes to the enclave heap through the mem/ resources.
  auto build = join::GenerateBuildRelation(build_tuples,
                                           MemoryRegion::kUntrusted)
                   .value();
  auto probe = join::GenerateProbeRelation(probe_tuples, build_tuples,
                                           MemoryRegion::kUntrusted)
                   .value();
  const double total_rows =
      static_cast<double>(build_tuples) + probe_tuples;

  const size_t worst_case_bytes =
      4 * (build.size_bytes() + probe.size_bytes()) +
      probe_tuples * sizeof(JoinOutputTuple) + 32_MiB;

  const AllocMode kModes[] = {
      {"fresh-alloc", join::AllocPolicy::kDirect, false},
      {"arena", join::AllocPolicy::kArena, false},
      {"arena+pool", join::AllocPolicy::kArena, true},
  };
  const Sizing kSizings[] = {
      {"static", false},
      {"dynamic-EDMM", true},
  };

  core::TablePrinter table({"sizing", "alloc", "first query",
                            "steady query", "EDMM pages/query",
                            "pool hits", "vs fresh"});

  // steady_pages of the fresh-alloc run, per sizing, for the reduction %.
  double fresh_pages[2] = {0, 0};
  double fresh_steady_ns[2] = {0, 0};
  double dyn_pool_reduction = 0;

  int sizing_idx = 0;
  for (const Sizing& sizing : kSizings) {
    for (const AllocMode& mode : kModes) {
      sgx::EnclaveConfig ecfg;
      ecfg.dynamic = sizing.dynamic;
      ecfg.initial_heap_bytes =
          sizing.dynamic ? size_t{1_MiB} : worst_case_bytes;
      ecfg.max_heap_bytes = worst_case_bytes;
      // Trim-on-free models a minimal-footprint dynamic enclave: freed
      // pages go back to the EPC, so without reuse each query re-grows.
      ecfg.edmm_trim = sizing.dynamic;
      sgx::Enclave* enclave = sgx::Enclave::Create(ecfg).value();

      mem::ArenaPool pool(mem::ForEnclave(enclave));

      join::JoinConfig cfg;
      cfg.num_threads = threads;
      cfg.flavor = KernelFlavor::kUnrolledReordered;
      cfg.setting = ExecutionSetting::kSgxDataInEnclave;
      cfg.enclave = enclave;
      cfg.materialize = true;
      cfg.alloc_policy = mode.policy;
      cfg.arena_pool = mode.pooled ? &pool : nullptr;

      SteadyState s;
      uint64_t pages_before = 0;
      for (int q = 0; q < queries; ++q) {
        pages_before = enclave->memory_stats().edmm_pages_added;
        WallTimer timer;
        join::JoinResult r = join::RhoJoin(build, probe, cfg).value();
        const double wall_ns =
            static_cast<double>(timer.ElapsedNanos());
        (void)r;
        const uint64_t pages_this_query =
            enclave->memory_stats().edmm_pages_added - pages_before;
        if (q == 0) {
          s.first_ns = wall_ns;
        } else {
          s.steady_ns += wall_ns / (queries - 1);
          s.steady_pages +=
              static_cast<double>(pages_this_query) / (queries - 1);
        }
      }
      s.reuse_hits = pool.stats().reuse_hits;
      if (mode.policy == join::AllocPolicy::kDirect) {
        fresh_pages[sizing_idx] = s.steady_pages;
        fresh_steady_ns[sizing_idx] = s.steady_ns;
      }

      const double vs_fresh =
          fresh_steady_ns[sizing_idx] > 0
              ? fresh_steady_ns[sizing_idx] / s.steady_ns
              : 1.0;
      table.AddRow({sizing.label, mode.label,
                    core::FormatNanos(s.first_ns),
                    core::FormatNanos(s.steady_ns),
                    std::to_string(static_cast<uint64_t>(s.steady_pages)),
                    std::to_string(s.reuse_hits),
                    core::FormatRel(vs_fresh)});

      if (sizing.dynamic && mode.pooled && fresh_pages[sizing_idx] > 0) {
        dyn_pool_reduction =
            100.0 * (1.0 - s.steady_pages / fresh_pages[sizing_idx]);
      }
      // The pool outlives this iteration's enclave; drop its cached
      // chunks while the enclave can still be credited.
      pool.Trim();
      sgx::DestroyEnclave(enclave);
    }
    ++sizing_idx;
  }

  table.Print();
  table.ExportCsv("ablation_arena");

  char note[160];
  std::snprintf(note, sizeof(note),
                "pool reuse under dynamic-EDMM eliminates %.1f%% of the "
                "per-query EDMM page commits a fresh-allocating query "
                "stream pays (target: >= 90%%).",
                dyn_pool_reduction);
  core::PrintNote(note);
  core::PrintNote(
      "throughput baseline for context: " +
      core::FormatRowsPerSec(total_rows /
                             (fresh_steady_ns[1] * 1e-9)) +
      " at fresh-alloc steady state under dynamic sizing.");
  return dyn_pool_reduction >= 90.0 ? 0 : 1;
}
