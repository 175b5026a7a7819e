// Always-on metrics: named counters, gauges, and log-bucketed histograms.
//
// The paper's whole argument is built from counted SGX effects (ecall /
// ocall transitions, EDMM page commits, mutex parkings) — yet until this
// subsystem each bench counted its own effect with an ad-hoc atomic. The
// registry gives every layer one place to publish counters and every bench
// / query report one place to read them.
//
// Design constraints, in order:
//  * probes sit on operator hot paths (executor tasks, arena chunk churn,
//    enclave transitions), so a Counter::Add must be one relaxed atomic
//    add to a cache line the calling thread effectively owns. Counters are
//    sharded: each thread picks a home shard (round-robin at first use,
//    cache-line padded) and snapshot-time merges the shards;
//  * handles are stable for the process lifetime: call-sites cache the
//    `Counter*` in a function-local static and never touch the registry
//    lock again;
//  * snapshots are wait-free for writers: readers sum relaxed loads, so a
//    snapshot taken concurrently with updates sees each shard at some
//    recent value (monotonic counters make this a consistent lower bound).
//
// Set SGXBENCH_STATS=<path> to dump the registry at process exit —
// JSON by default, CSV if the path ends in ".csv".

#ifndef SGXB_OBS_METRICS_H_
#define SGXB_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace sgxb::obs {

inline constexpr int kCounterShards = 16;

/// \brief Concurrent attribution domains (in-flight queries) the registry
/// can track at once. The serving layer's admission bound must stay at or
/// below this for every admitted query to get its own report window.
inline constexpr int kMaxMetricDomains = 64;

namespace internal {
struct alignas(64) PaddedAtomic {
  std::atomic<uint64_t> v{0};
};
/// \brief The calling thread's home shard index (assigned round-robin on
/// first use, constant for the thread's lifetime).
int ThisThreadShard();
/// \brief The calling thread's current attribution domain (-1 = none).
int CurrentDomainIndex();
void SetCurrentDomainIndex(int domain);
}  // namespace internal

/// \brief Monotonic event counter, sharded to keep concurrent Add()s off
/// each other's cache lines. Value() is the merged sum.
///
/// Besides the process-global shards, every Add() is mirrored into the
/// calling thread's current *attribution domain* (if any): a per-query
/// slot set up by the serving layer so concurrent queries see only their
/// own activity in QueryReport diffs. The domain branch costs one
/// thread-local load when no domain is active.
class Counter {
 public:
  void Add(uint64_t delta) {
    shards_[internal::ThisThreadShard()].v.fetch_add(
        delta, std::memory_order_relaxed);
    const int d = internal::CurrentDomainIndex();
    if (d >= 0) {
      domains_[d].v.fetch_add(delta, std::memory_order_relaxed);
    }
  }
  void Increment() { Add(1); }

  uint64_t Value() const {
    uint64_t sum = 0;
    for (const auto& s : shards_) sum += s.v.load(std::memory_order_relaxed);
    return sum;
  }

  /// \brief This counter's total within one attribution domain since the
  /// domain was acquired (domain slots are zeroed by AcquireDomain).
  uint64_t DomainValue(int domain) const {
    return domains_[domain].v.load(std::memory_order_relaxed);
  }

  void ResetDomain(int domain) {
    domains_[domain].v.store(0, std::memory_order_relaxed);
  }

  /// \brief Zeroes all shards. Not atomic with concurrent Add()s — meant
  /// for benchmark setup between measurement windows, not hot paths.
  void Reset() {
    for (auto& s : shards_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  internal::PaddedAtomic shards_[kCounterShards];
  // One slot per domain, not per (domain, shard): within one query the
  // threads bumping the same counter share a line, but counters are
  // charged at coarse grain (per lane, per chunk, per operator), and
  // across queries — the contention that matters for serving — domains
  // are distinct lines.
  internal::PaddedAtomic domains_[kMaxMetricDomains];
};

/// \brief Last-writer-wins instantaneous value (pool cache size, worker
/// count). Not sharded: gauges are set from cold paths.
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { Set(0); }

 private:
  std::atomic<int64_t> value_{0};
};

/// \brief Log2-bucketed latency histogram: bucket b counts samples in
/// [2^b, 2^(b+1)). 64 buckets cover the full uint64 range (nanoseconds,
/// cycles, bytes — caller's choice of unit). Buckets are plain relaxed
/// atomics: a histogram record is already rarer than a counter bump
/// (per-phase / per-wait, not per-tuple), so per-bucket sharding would
/// buy little for 64x the footprint.
class Histogram {
 public:
  static constexpr int kBuckets = 64;

  void Record(uint64_t value);

  uint64_t Count() const { return count_.Value(); }
  uint64_t Sum() const { return sum_.Value(); }
  uint64_t Max() const { return max_.load(std::memory_order_relaxed); }
  uint64_t BucketCount(int bucket) const {
    return buckets_[bucket].load(std::memory_order_relaxed);
  }

  /// \brief Upper-bound estimate of the q-quantile (q in [0,1]): the
  /// exclusive upper edge of the bucket containing it.
  uint64_t QuantileUpperBound(double q) const;

  void Reset();

 private:
  std::atomic<uint64_t> buckets_[kBuckets] = {};
  Counter count_;
  Counter sum_;
  std::atomic<uint64_t> max_{0};
};

/// \brief Merged histogram contents at snapshot time.
struct HistogramData {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t max = 0;
  uint64_t p50 = 0;  ///< upper bound of the median bucket
  uint64_t p99 = 0;
  std::vector<uint64_t> buckets;  ///< trailing zero buckets trimmed
};

/// \brief Point-in-time merged view of the whole registry.
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, HistogramData> histograms;

  /// \brief counters[name] or 0 — snapshot diffs shouldn't care whether a
  /// subsystem was exercised at all.
  uint64_t CounterOr(const std::string& name, uint64_t fallback = 0) const;

  std::string ToJson() const;
  std::string ToCsv() const;
};

/// \brief Process-wide name -> metric registry. Get* registers on first
/// use and returns the same stable pointer forever after; the intended
/// call-site pattern caches it in a function-local static:
///
///   static obs::Counter* c = obs::Registry::Global().GetCounter("x.y");
///   c->Increment();
class Registry {
 public:
  static Registry& Global();

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  MetricsSnapshot Snapshot() const;

  /// \brief Claims a free attribution domain and zeroes its slot in every
  /// registered counter, so DomainSnapshot() reads are totals since the
  /// acquire. Returns -1 when all kMaxMetricDomains are in flight (the
  /// caller runs unattributed and its report falls back to global diffs).
  int AcquireDomain();

  /// \brief Returns a domain to the free set. No-op for -1.
  void ReleaseDomain(int domain);

  /// \brief Counters-only view of one domain: every registered counter's
  /// activity attributed to `domain` since AcquireDomain. Gauges and
  /// histograms are process-global and not included.
  MetricsSnapshot DomainSnapshot(int domain) const;

  /// \brief Resets every registered metric to zero (benchmark measurement
  /// windows; see Counter::Reset for the concurrency caveat).
  void ResetAll();

 private:
  Registry() = default;
  struct Impl;
  Impl& impl() const;
};

/// \brief The calling thread's current attribution domain (-1 = none).
int CurrentMetricDomain();

/// \brief RAII: attributes this thread's counter activity to `domain` for
/// the scope's lifetime (-1 = unattributed), restoring the previous
/// domain on destruction. The executor re-publishes the dispatching
/// thread's domain inside gang task bodies, so a query's parallel work is
/// attributed no matter which worker runs it.
class ScopedMetricDomain {
 public:
  explicit ScopedMetricDomain(int domain)
      : prev_(internal::CurrentDomainIndex()) {
    internal::SetCurrentDomainIndex(domain);
  }
  ~ScopedMetricDomain() { internal::SetCurrentDomainIndex(prev_); }
  ScopedMetricDomain(const ScopedMetricDomain&) = delete;
  ScopedMetricDomain& operator=(const ScopedMetricDomain&) = delete;

 private:
  int prev_;
};

/// \brief Writes Registry::Global().Snapshot() to `path` (CSV if the path
/// ends in ".csv", JSON otherwise). Returns false on I/O failure.
bool WriteStats(const std::string& path);

// Canonical counter names published by the instrumented layers. Kept here
// so QueryReport, tests, and benches never re-spell them.
inline constexpr char kCtrEcalls[] = "sgx.ecalls";
inline constexpr char kCtrOcalls[] = "sgx.ocalls";
inline constexpr char kCtrTransitionCycles[] = "sgx.transition_cycles";
inline constexpr char kCtrMutexParks[] = "sgx.mutex_parks";
inline constexpr char kCtrMutexWakeOcalls[] = "sgx.mutex_wake_ocalls";
inline constexpr char kCtrEdmmPagesAdded[] = "sgx.edmm_pages_added";
inline constexpr char kCtrEdmmPagesTrimmed[] = "sgx.edmm_pages_trimmed";
inline constexpr char kCtrEdmmInjectedNs[] = "sgx.edmm_injected_ns";
inline constexpr char kCtrExecGangs[] = "exec.gangs";
inline constexpr char kCtrExecTasks[] = "exec.tasks";
inline constexpr char kCtrExecMorsels[] = "exec.morsels";
inline constexpr char kCtrExecMorselSteals[] = "exec.morsel_steals";
inline constexpr char kCtrArenaBytes[] = "mem.arena_bytes";
inline constexpr char kCtrArenaChunks[] = "mem.arena_chunks";
inline constexpr char kCtrPoolHits[] = "mem.pool_hits";
inline constexpr char kCtrPoolMisses[] = "mem.pool_misses";
/// Bytes written to operator output structures (row-id lists, gathered
/// relations, join intermediates; breaker sinks in fused mode) — the
/// intermediate-materialization traffic the pipelined execution mode
/// exists to avoid (docs/pipelines.md).
inline constexpr char kCtrBytesMaterialized[] = "tpch.bytes_materialized";
// Out-of-EPC buffer manager (src/storage/): partition residency churn and
// the untrusted-tier byte traffic the spill codec exists to shrink.
inline constexpr char kCtrStoragePartitionsEvicted[] =
    "storage.partitions_evicted";
inline constexpr char kCtrStoragePartitionsReloaded[] =
    "storage.partitions_reloaded";
inline constexpr char kCtrStorageDecryptBytes[] = "storage.decrypt_bytes";
inline constexpr char kCtrStoragePinWaits[] = "storage.pin_waits";
/// Total nanoseconds threads spent parked on contended SDK mutexes. The
/// park-latency *distribution* lives in the kHistMutexParkNs histogram,
/// but histograms are process-global; this counter is domain-mirrored so
/// QueryReport can attribute park time per query class (the HTAP bench's
/// avalanche exhibit).
inline constexpr char kCtrMutexParkNsTotal[] = "sgx.mutex_park_ns_total";
// Live-update write path (src/txn/, docs/htap.md): commit volume, COW
// version-chunk churn, and epoch-based reclamation progress.
inline constexpr char kCtrTxnCommits[] = "txn.commits";
inline constexpr char kCtrTxnVersionsCreated[] = "txn.versions_created";
inline constexpr char kCtrTxnVersionsRetired[] = "txn.versions_retired";
inline constexpr char kCtrTxnVersionsReclaimed[] = "txn.versions_reclaimed";
inline constexpr char kCtrTxnCowBytes[] = "txn.cow_bytes";
inline constexpr char kCtrTxnReclaimedBytes[] = "txn.reclaimed_bytes";
inline constexpr char kHistMutexParkNs[] = "sgx.mutex_park_ns";
inline constexpr char kHistTxnCommitNs[] = "txn.commit_ns";
inline constexpr char kHistEdmmCommitNs[] = "sgx.edmm_commit_ns";

}  // namespace sgxb::obs

#endif  // SGXB_OBS_METRICS_H_
