// Extension E5: the out-of-EPC columnar buffer manager (docs/storage.md).
//
// TPC-H through an enclave-sized pool that is a fraction of the dataset:
// hot column partitions stay decoded in the trusted pool, cold ones live
// in untrusted memory as compressed, MEE-encrypted spill images and are
// decrypted + decoded back on demand. This sweeps the pool budget from
// "everything resident" to 1/16 of the dataset and charts the pressure
// cliff for a TPC-H query mix (Q1, Q3, Q6, Q12), comparing:
//
//   resident    — plain in-enclave columns (no manager), the baseline
//   spill raw   — paged, compression off: spill images are raw + MEE
//   spill comp  — paged, FoR/dict compression before encryption
//
// Gates (checked at the smallest budget, where the working set clearly
// exceeds the pool): compressed spill must move >= 2x fewer untrusted-
// tier bytes through the MEE than uncompressed, and must be faster end
// to end. Every paged run is also checked for result equality against
// the resident baseline.
//
// Satellite reconciliation with bench_ext_epc_paging: that extension
// models SGXv1 hardware paging at 40 us per 4 KiB EWB/ELDU round-trip.
// Here the same fault-count estimate (moved bytes / 4 KiB, 4-way fault
// concurrency) is priced at the hardware cost and printed next to the
// measured software-spill overhead (paged wall minus resident wall), so
// both curves land in one CSV and EXPERIMENTS.md records the delta.
//
// Reproduce the CSV with:
//   SGXBENCH_CSV_DIR=results ./build/bench/bench_ext_oepc
// CI runs the same binary with SGXBENCH_SMOKE=1 as a code-path and
// artifact check.

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/timer.h"
#include "storage/buffer_manager.h"
#include "tpch/paged_db.h"
#include "tpch/queries.h"
#include "tpch/tpch_gen.h"

using namespace sgxb;

namespace {

// Same fault pricing as bench_ext_epc_paging's SGXv1 model.
constexpr double kFaultNs = 40000.0;
constexpr double kPageBytes = 4096.0;

const int kMixQueries[] = {1, 3, 6, 12};

struct MixRun {
  double wall_ns = 0;        // best-of-reps wall clock for the whole mix
  uint64_t moved_bytes = 0;  // untrusted-tier bytes through the MEE
  uint64_t reloads = 0;
  bool ok = true;
};

struct Expected {
  uint64_t count = 0;
  std::vector<uint64_t> group_counts;
};

// Runs the query mix `reps` times and keeps the fastest repetition's wall
// clock together with that repetition's manager activity. The first pass
// is untimed warm-up so one-time demand loads (a pool larger than the
// dataset never reloads afterwards) do not blur the steady state.
template <typename Db>
MixRun MeasureMix(const Db& db, const tpch::QueryConfig& cfg,
                  storage::BufferManager* bm,
                  std::vector<Expected>* expected) {
  MixRun best;
  const int reps = core::DefaultRepetitions();
  for (int rep = -1; rep < reps; ++rep) {
    const storage::BufferManagerStats before =
        bm ? bm->stats() : storage::BufferManagerStats{};
    WallTimer timer;
    size_t qi = 0;
    for (int q : kMixQueries) {
      auto result = tpch::RunQuery(q, db, cfg);
      if (!result.ok()) {
        std::fprintf(stderr, "Q%d failed: %s\n", q,
                     result.status().ToString().c_str());
        best.ok = false;
        return best;
      }
      if (expected) {
        if (qi == expected->size()) {
          expected->push_back(
              {result.value().count, result.value().group_counts});
        } else if (result.value().count != (*expected)[qi].count ||
                   result.value().group_counts !=
                       (*expected)[qi].group_counts) {
          std::fprintf(stderr,
                       "Q%d result mismatch vs resident baseline\n", q);
          best.ok = false;
          return best;
        }
      }
      ++qi;
    }
    const double wall = static_cast<double>(timer.ElapsedNanos());
    if (rep < 0) continue;  // warm-up
    const storage::BufferManagerStats after =
        bm ? bm->stats() : storage::BufferManagerStats{};
    if (rep == 0 || wall < best.wall_ns) {
      best.wall_ns = wall;
      best.moved_bytes = after.decrypt_bytes - before.decrypt_bytes;
      best.reloads = after.partitions_reloaded - before.partitions_reloaded;
    }
  }
  return best;
}

struct PagedSetup {
  std::unique_ptr<storage::BufferManager> bm;
  tpch::PagedTpchDb paged;
};

PagedSetup MakePaged(const tpch::TpchDb& db, size_t pool_bytes,
                     size_t partition_rows, bool compress) {
  PagedSetup s;
  storage::BufferManager::Config cfg;
  cfg.buffer_bytes = pool_bytes;
  cfg.partition_rows = partition_rows;
  cfg.compress = compress;
  // The async prefetch worker loads opportunistically (and sometimes
  // wastefully, when its target is evicted before use), which makes the
  // moved-bytes counts timing-dependent. The sweep measures the
  // deterministic demand-paging path; prefetch has its own unit tests.
  cfg.prefetch = false;
  s.bm = std::make_unique<storage::BufferManager>(cfg);
  auto paged = tpch::PagedTpchDb::Build(db, s.bm.get());
  if (!paged.ok()) {
    std::fprintf(stderr, "PagedTpchDb::Build failed: %s\n",
                 paged.status().ToString().c_str());
    std::exit(1);
  }
  s.paged = std::move(paged).value();
  return s;
}

}  // namespace

int main() {
  core::PrintExperimentHeader(
      "Extension E5",
      "out-of-EPC columns: compressed, encrypted, pageable spill");
  bench::PrintEnvironment();

  tpch::GenConfig gen;
  gen.scale_factor =
      bench::SmokeMode() ? 0.01 : (core::FullScale() ? 10.0 : 0.05);
  std::printf("  generating TPC-H data at SF %.2f ...\n",
              gen.scale_factor);
  tpch::TpchDb db = tpch::Generate(gen).value();

  // Small partitions keep the worst-case concurrent-pin demand of the
  // fused Q12 chain far below even the tightest pool at CI scale; full
  // scale uses the production default.
  const size_t partition_rows = core::FullScale() ? 65536 : 2048;
  const int threads = bench::HostThreads(8);
  const double fault_concurrency = std::min(4.0, double(threads));

  tpch::QueryConfig cfg;
  cfg.num_threads = threads;
  cfg.radix_bits = core::FullScale() ? 14 : 10;

  // Dataset size = decoded bytes of every registered column; probe it
  // from a throwaway registration so the sweep fractions are exact.
  size_t dataset_bytes = 0;
  {
    PagedSetup probe = MakePaged(db, size_t(1) << 34, partition_rows,
                                 /*compress=*/true);
    dataset_bytes = probe.bm->stats().logical_bytes;
    std::printf("  dataset: %s decoded, %s spilled (%.2fx compression)\n",
                core::FormatBytes(double(dataset_bytes)).c_str(),
                core::FormatBytes(
                    double(probe.bm->stats().spill_payload_bytes))
                    .c_str(),
                probe.bm->stats().CompressionRatio());
  }

  // Resident baseline: the same mix on plain in-enclave columns.
  std::vector<Expected> expected;
  MixRun resident = MeasureMix(db, cfg, nullptr, &expected);
  if (!resident.ok) return 1;

  const double fracs[] = {4.0, 1.0, 0.5, 0.25, 0.125, 0.0625};
  // Pin headroom: never shrink the pool below what the widest fused
  // chain can pin at once across all worker threads.
  const size_t pool_floor =
      48 * partition_rows * sizeof(uint32_t);

  core::TablePrinter table(
      {"pool", "of data", "resident", "spill raw", "spill comp",
       "raw moved", "comp moved", "bytes ratio", "comp speedup",
       "hw-model extra", "measured extra"});

  // Gate accumulators over every budget that actually spilled: per-row
  // ratios wobble with prefetch/eviction order, the aggregate does not.
  uint64_t raw_bytes_sum = 0, comp_bytes_sum = 0, spilled_rows = 0;
  double raw_wall_sum = 0, comp_wall_sum = 0;
  for (double frac : fracs) {
    const size_t pool = std::max(
        pool_floor, static_cast<size_t>(frac * double(dataset_bytes)));

    PagedSetup raw = MakePaged(db, pool, partition_rows,
                               /*compress=*/false);
    MixRun raw_run = MeasureMix(raw.paged.View(), cfg, raw.bm.get(),
                                &expected);
    PagedSetup comp = MakePaged(db, pool, partition_rows,
                                /*compress=*/true);
    MixRun comp_run = MeasureMix(comp.paged.View(), cfg, comp.bm.get(),
                                 &expected);
    if (!raw_run.ok || !comp_run.ok) return 1;

    // Satellite reconciliation: price the raw run's moved pages at the
    // SGXv1 EWB/ELDU fault cost from bench_ext_epc_paging.
    const double model_extra_ns = double(raw_run.moved_bytes) /
                                  kPageBytes * kFaultNs /
                                  fault_concurrency;
    const double measured_extra_ns =
        raw_run.wall_ns - resident.wall_ns;

    table.AddRow(
        {core::FormatBytes(double(pool)),
         core::FormatRel(double(pool) / double(dataset_bytes)),
         core::FormatNanos(resident.wall_ns),
         core::FormatNanos(raw_run.wall_ns),
         core::FormatNanos(comp_run.wall_ns),
         core::FormatBytes(double(raw_run.moved_bytes)),
         core::FormatBytes(double(comp_run.moved_bytes)),
         comp_run.moved_bytes == 0
             ? "-"
             : core::FormatRel(double(raw_run.moved_bytes) /
                               double(comp_run.moved_bytes)),
         core::FormatRel(raw_run.wall_ns / comp_run.wall_ns),
         core::FormatNanos(model_extra_ns),
         core::FormatNanos(measured_extra_ns)});

    if (raw_run.reloads > 0) {
      ++spilled_rows;
      raw_bytes_sum += raw_run.moved_bytes;
      comp_bytes_sum += comp_run.moved_bytes;
      raw_wall_sum += raw_run.wall_ns;
      comp_wall_sum += comp_run.wall_ns;
    }
  }
  table.Print();
  table.ExportCsv("ext_oepc_cliff");

  core::PrintNote(
      "above the pool budget the working set pages through the software "
      "MEE; compression shrinks every spill image before encryption, so "
      "the compressed tier moves fewer untrusted bytes AND decrypts "
      "less. The hw-model column prices the same page traffic at "
      "bench_ext_epc_paging's 40 us/4 KiB SGXv1 fault cost — the "
      "measured software path reloads in user space (no kernel "
      "round-trip, decode amortized over whole partitions), which is "
      "why the measured extra runs well below the hardware model.");

  // Gates over the budgets where the working set exceeded the pool.
  bool pass = true;
  if (spilled_rows == 0) {
    std::printf("  GATE FAIL: no budget ever reloaded — pool floor "
                "swallowed the sweep\n");
    return 1;
  }
  const double bytes_ratio =
      comp_bytes_sum == 0
          ? 0.0
          : double(raw_bytes_sum) / double(comp_bytes_sum);
  if (bytes_ratio < 2.0) {
    std::printf("  GATE FAIL: compressed spill moved only %.2fx fewer "
                "bytes (need >= 2x)\n", bytes_ratio);
    pass = false;
  } else {
    std::printf("  GATE PASS: compressed spill moves %.2fx fewer "
                "untrusted-tier bytes\n", bytes_ratio);
  }
  if (comp_wall_sum >= raw_wall_sum) {
    std::printf("  GATE %s: compressed spill not faster end-to-end "
                "(%.2fx)\n", bench::SmokeMode() ? "WARN" : "FAIL",
                raw_wall_sum / comp_wall_sum);
    if (!bench::SmokeMode()) pass = false;
  } else {
    std::printf("  GATE PASS: compressed spill %.2fx faster end-to-end "
                "under EPC pressure\n", raw_wall_sum / comp_wall_sum);
  }
  return pass ? 0 : 1;
}
