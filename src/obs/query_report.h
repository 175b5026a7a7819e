// Per-query execution reports assembled from the metrics registry.
//
// A QueryReportScope snapshots the registry when a query starts and diffs
// it when the query finishes, so the report attributes exactly the SGX
// activity that happened during the query: transitions, mutex parkings,
// EDMM page churn, arena/pool traffic, and executor work. This replaces
// the EXPERIMENTS.md habit of *deriving* those numbers (e.g. estimating
// parked pops from a throughput gap) — the serving-scale north star needs
// them countable per query, continuously, in production builds.
//
// By default counter diffs are process-global: a scope opened around
// query Q sees activity from anything else running concurrently, which is
// fine for the benchmark harness (one query stream at a time). The
// serving layer instead passes an *attribution domain* (see
// Registry::AcquireDomain and ScopedMetricDomain in obs/metrics.h): the
// scope then diffs only activity tagged with that domain — the executor
// re-publishes the dispatching thread's domain inside every gang task, so
// a query's parallel work is attributed to its own report no matter which
// worker ran it, and concurrent queries cannot see each other's ecalls,
// parks, EDMM churn, or steals.

#ifndef SGXB_OBS_QUERY_REPORT_H_
#define SGXB_OBS_QUERY_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/timer.h"
#include "obs/metrics.h"

namespace sgxb::obs {

/// \brief One named phase of the query (join build/partition/probe, an
/// operator of the TPC-H pipeline, ...).
struct PhaseTiming {
  std::string name;
  double host_ns = 0;
};

/// \brief Everything the observability layer knows about one query
/// execution. All counts are deltas over the query's window.
struct QueryReport {
  std::string query;
  double wall_ns = 0;
  std::vector<PhaseTiming> phases;

  // Enclave transitions (sgx/transition.cc).
  uint64_t ecalls = 0;
  uint64_t ocalls = 0;
  uint64_t transition_cycles = 0;

  // SDK mutex behaviour (sgx/sgx_mutex.cc) — the Figure 10 mechanism.
  // mutex_park_ns is the total time this query's threads spent parked
  // outside the enclave (per-domain, unlike the global park histogram).
  uint64_t mutex_parks = 0;
  uint64_t mutex_wake_ocalls = 0;
  uint64_t mutex_park_ns = 0;

  // EDMM page churn (sgx/enclave.cc) — the Figure 11 mechanism.
  uint64_t edmm_pages_added = 0;
  uint64_t edmm_pages_trimmed = 0;
  uint64_t edmm_injected_ns = 0;

  // Arena / pool traffic (src/mem/).
  uint64_t arena_bytes = 0;
  uint64_t arena_chunks = 0;
  uint64_t pool_hits = 0;
  uint64_t pool_misses = 0;

  // Executor activity (src/exec/).
  uint64_t gangs = 0;
  uint64_t tasks = 0;
  uint64_t morsels = 0;
  uint64_t morsel_steals = 0;

  // Intermediate bytes written to operator outputs (tpch/operators.cc) or
  // pipeline-breaker sinks (plan/fused.cc) — the traffic the fused
  // execution mode avoids (docs/pipelines.md).
  uint64_t bytes_materialized = 0;

  // Out-of-EPC buffer manager activity (src/storage/): partition
  // residency churn and the untrusted-tier bytes decrypted back into the
  // pool during this query's window.
  uint64_t partitions_evicted = 0;
  uint64_t partitions_reloaded = 0;
  uint64_t storage_decrypt_bytes = 0;
  uint64_t storage_pin_waits = 0;

  // Live-update write path (src/txn/): commits this window plus the COW /
  // reclamation churn they caused (docs/htap.md). Zero for read-only
  // queries unless an update feed shares the report's domain.
  uint64_t txn_commits = 0;
  uint64_t txn_versions_created = 0;
  uint64_t txn_versions_retired = 0;
  uint64_t txn_versions_reclaimed = 0;
  uint64_t txn_cow_bytes = 0;
  uint64_t txn_reclaimed_bytes = 0;

  /// \brief pool_hits / (pool_hits + pool_misses), or 0 with no traffic.
  double PoolHitRate() const;

  std::string ToJson() const;
  /// \brief Multi-line human-readable rendering for bench output.
  std::string ToString() const;
};

/// \brief Brackets one query execution: construct before running, call
/// Finish() after. Also opens a trace span named after the query so the
/// chrome trace shows the query window at the top of the span tree.
class QueryReportScope {
 public:
  /// \brief `domain` >= 0 restricts the report to activity attributed to
  /// that metric domain (multi-tenant serving); -1 keeps the historical
  /// process-global diff. The scope reads the domain but does not set it —
  /// callers wrap execution in a ScopedMetricDomain (tpch::RunQuery does
  /// this when QueryConfig::obs_domain is set).
  explicit QueryReportScope(const std::string& query_name, int domain = -1);

  /// \brief Closes the window and builds the report. Call exactly once;
  /// `phases` (optional) is attached verbatim.
  QueryReport Finish(std::vector<PhaseTiming> phases = {});

 private:
  std::string query_;
  int domain_ = -1;
  MetricsSnapshot before_;
  WallTimer timer_;
  uint64_t span_begin_tsc_ = 0;
  bool finished_ = false;
};

}  // namespace sgxb::obs

#endif  // SGXB_OBS_QUERY_REPORT_H_
