// Ablation A10: persistent work-stealing executor vs per-call thread spawn.
//
// Two claims are measured. First, a persistent pool amortizes thread
// creation: operators such as the radix joins dispatch many short gangs
// (one per pass per partition group), and paying pthread_create for each
// dispatch dwarfs the work itself. Second, morsel-driven scheduling with
// work stealing absorbs skew that a static SplitRange split cannot: a
// lane that finishes its share early steals morsels from the loaded lane
// instead of idling at the barrier.

#include "bench_util.h"
#include "common/parallel.h"
#include "common/timer.h"
#include "exec/executor.h"

using namespace sgxb;

namespace {

// Spin for a deterministic, compiler-opaque amount of work.
uint64_t Burn(uint64_t iters) {
  volatile uint64_t acc = 0;
  for (uint64_t i = 0; i < iters; ++i) acc = acc + i;
  return acc;
}

double TimeDispatches(int threads, int dispatches) {
  WallTimer timer;
  for (int i = 0; i < dispatches; ++i) {
    ParallelRun(threads, [](int) { Burn(200); });
  }
  return static_cast<double>(timer.ElapsedNanos());
}

}  // namespace

int main() {
  core::PrintExperimentHeader(
      "Ablation A10", "persistent executor vs per-dispatch thread spawn");
  bench::PrintEnvironment();

  // Not capped at the host's cores: the point is dispatch overhead (thread
  // creation vs enqueue-to-warm-worker), and the pool intentionally keeps
  // more workers than cores so gang operators run at paper thread counts
  // on small CI hosts. ParallelRun(1, ...) would run inline and measure
  // nothing.
  const int threads = std::max(4, bench::HostThreads(8));
  const int dispatches = core::FullScale() ? 5000 : 1000;

  // --- Part 1: repeated small gang dispatch ------------------------------
  core::TablePrinter gang_table(
      {"dispatch mode", "total time", "per dispatch", "vs spawn"});
  double spawn_ns = 0;
  for (exec::DispatchMode mode :
       {exec::DispatchMode::kSpawn, exec::DispatchMode::kPool}) {
    exec::SetDispatchMode(mode);
    TimeDispatches(threads, 32);  // warm up (grows the pool once)
    core::Measurement m = core::Repeat(
        [&] { return TimeDispatches(threads, dispatches); });
    const double per_dispatch = m.mean_ns / dispatches;
    if (mode == exec::DispatchMode::kSpawn) spawn_ns = per_dispatch;
    gang_table.AddRow(
        {mode == exec::DispatchMode::kSpawn ? "spawn per call"
                                            : "persistent pool",
         core::FormatNanos(m.mean_ns), core::FormatNanos(per_dispatch),
         core::FormatRel(spawn_ns / per_dispatch)});
  }
  exec::SetDispatchMode(exec::DispatchMode::kPool);
  gang_table.Print();
  gang_table.ExportCsv("ablation_executor_dispatch");

  // --- Part 2: morsel stealing under skew --------------------------------
  // Task i costs ~i units, so a blocked split gives the last lane ~2x the
  // average work. Small morsels let idle lanes steal from it.
  const size_t tasks = 4096;
  const uint64_t unit = core::FullScale() ? 2000 : 400;

  core::TablePrinter skew_table(
      {"schedule", "time", "morsels stolen", "vs static"});
  core::Measurement stat = core::Repeat([&] {
    WallTimer timer;
    ParallelRun(threads, [&](int tid) {
      Range r = SplitRange(tasks, threads, tid);
      for (size_t i = r.begin; i < r.end; ++i) Burn(i * unit / tasks);
    });
    return static_cast<double>(timer.ElapsedNanos());
  });
  skew_table.AddRow({"static split (gang)", core::FormatNanos(stat.mean_ns),
                     "-", core::FormatRel(1.0)});

  const uint64_t steals_before = exec::Executor::Default().stats().morsel_steals;
  ParallelForOptions opts;
  opts.num_threads = threads;
  core::Measurement morsel = core::Repeat([&] {
    WallTimer timer;
    ParallelFor(
        tasks, 16,
        [&](Range r, int) {
          for (size_t i = r.begin; i < r.end; ++i) Burn(i * unit / tasks);
        },
        opts);
    return static_cast<double>(timer.ElapsedNanos());
  });
  const uint64_t stolen =
      exec::Executor::Default().stats().morsel_steals - steals_before;
  skew_table.AddRow({"morsels + stealing", core::FormatNanos(morsel.mean_ns),
                     std::to_string(stolen),
                     core::FormatRel(stat.mean_ns / morsel.mean_ns)});
  skew_table.Print();
  skew_table.ExportCsv("ablation_executor_skew");
  if (CpuInfo::Host().logical_cores < threads) {
    core::PrintNote(
        "host has fewer cores than lanes, so the OS timeshares them and "
        "wall-clock parity between the schedules is expected here; the "
        "steal count still shows the balancing mechanism working.");
  }

  const exec::ExecutorStats stats = exec::Executor::Default().stats();
  core::PrintNote(
      "executor totals: " + std::to_string(stats.pool_threads_spawned) +
      " pool threads served " + std::to_string(stats.gangs) + " gangs / " +
      std::to_string(stats.tasks) + " tasks; " +
      std::to_string(stats.morsels) + " morsels executed, " +
      std::to_string(stats.morsel_steals) + " stolen.");
  core::PrintNote(
      "per-call spawn pays pthread_create + teardown on every dispatch; "
      "the pool pays it once, so short gangs (radix-join passes, TPC-H "
      "operator fragments) are dominated by work, not thread churn.");
  return 0;
}
