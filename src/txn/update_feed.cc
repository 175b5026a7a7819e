#include "txn/update_feed.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/random.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "tpch/tpch_schema.h"

namespace sgxb::txn {

namespace {

/// \brief Log2 bucket of a latency sample, like obs::Histogram.
int Bucket(uint64_t ns) {
  return ns == 0 ? 0 : 63 - __builtin_clzll(ns);
}

uint64_t ScrambleRow(uint64_t key, uint64_t n) {
  // Fibonacci hashing: repeated draws of a hot Zipf key stay hot, but
  // consecutive key ranks land in unrelated version chunks.
  return (key * 0x9e3779b97f4a7c15ull) % n;
}

}  // namespace

struct UpdateFeed::Writer {
  int index = 0;
  double rows_per_sec = 0;
  // Written by the writer thread, read by stats() after Stop() and
  // (monotonic counters only) while running.
  std::atomic<uint64_t> committed{0};
  std::atomic<uint64_t> failed{0};
  std::atomic<uint64_t> max_ns{0};
  std::atomic<uint64_t> buckets[64] = {};
};

UpdateFeed::UpdateFeed(VersionedTpchDb* db, UpdateFeedOptions options)
    : db_(db), options_(options) {
  options_.threads = std::max(1, options_.threads);
}

UpdateFeed::~UpdateFeed() { Stop(); }

void UpdateFeed::Start() {
  if (running_ || options_.rows_per_sec <= 0) return;
  stop_.store(false, std::memory_order_relaxed);
  running_ = true;
  elapsed_sec_ = 0;
  run_timer_.Restart();
  writers_.clear();
  threads_.clear();
  for (int i = 0; i < options_.threads; ++i) {
    auto w = std::make_unique<Writer>();
    w->index = i;
    w->rows_per_sec = options_.rows_per_sec / options_.threads;
    writers_.push_back(std::move(w));
  }
  threads_.reserve(writers_.size());
  for (auto& w : writers_) {
    threads_.emplace_back([this, wp = w.get()] { WriterLoop(wp); });
  }
}

void UpdateFeed::Stop() {
  if (!running_) return;
  stop_.store(true, std::memory_order_relaxed);
  elapsed_sec_ = run_timer_.ElapsedSeconds();
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
  threads_.clear();
  running_ = false;
}

void UpdateFeed::WriterLoop(Writer* w) {
  obs::ScopedMetricDomain domain(options_.obs_domain);
  uint64_t seed_state = options_.seed + 0x1000ull * (w->index + 1);
  Xoshiro256 rng(SplitMix64(seed_state));
  // One key space sized for the largest table; per-op it is folded onto
  // the target column's rows so the same skew shape drives every column.
  const uint64_t key_space =
      std::max<uint64_t>(1, std::max(db_->lineitem_rows(),
                                     db_->orders_rows()));
  ZipfGenerator zipf(key_space, options_.zipf_theta,
                     SplitMix64(seed_state));

  // Rate shaping: fire a small batch every tick. Batches keep the tick
  // period >= ~1ms so the pacing does not degenerate into a spin loop at
  // high rates.
  const double rps = w->rows_per_sec;
  const uint64_t batch =
      std::max<uint64_t>(1, static_cast<uint64_t>(rps / 1000.0));
  const auto tick = std::chrono::nanoseconds(
      static_cast<uint64_t>(1e9 * static_cast<double>(batch) / rps));
  auto next = std::chrono::steady_clock::now();

  while (!stop_.load(std::memory_order_relaxed)) {
    for (uint64_t i = 0; i < batch; ++i) {
      UpdateOp op;
      op.column = static_cast<UpdateColumn>(
          (w->committed.load(std::memory_order_relaxed) + i) %
          kNumUpdateColumns);
      const uint64_t rows = db_->RowsFor(op.column);
      if (rows == 0) continue;
      op.row = ScrambleRow(zipf.Next(), key_space) % rows;
      switch (op.column) {
        case UpdateColumn::kLQuantity:
          op.value = 1 + static_cast<uint32_t>(rng.NextBounded(50));
          break;
        case UpdateColumn::kLExtendedPrice:
          op.value = 100 + static_cast<uint32_t>(rng.NextBounded(10000000));
          break;
        case UpdateColumn::kLDiscount:
          op.value = static_cast<uint32_t>(rng.NextBounded(11));
          break;
        case UpdateColumn::kOOrderDate:
          op.value = static_cast<uint32_t>(
              rng.NextBounded(tpch::kDate19980802 + 1));
          break;
      }
      WallTimer t;
      const Status s = db_->Commit(op);
      const uint64_t ns = t.ElapsedNanos();
      if (s.ok()) {
        w->committed.fetch_add(1, std::memory_order_relaxed);
        w->buckets[Bucket(ns)].fetch_add(1, std::memory_order_relaxed);
        uint64_t prev = w->max_ns.load(std::memory_order_relaxed);
        while (ns > prev && !w->max_ns.compare_exchange_weak(
                                prev, ns, std::memory_order_relaxed)) {
        }
      } else {
        w->failed.fetch_add(1, std::memory_order_relaxed);
      }
    }
    next += tick;
    const auto now = std::chrono::steady_clock::now();
    if (next > now) {
      std::this_thread::sleep_until(next);
    } else {
      // Behind schedule (commit latch contention): don't accumulate debt,
      // or a brief stall would be followed by an unbounded burst.
      next = now;
    }
  }
}

UpdateFeed::Stats UpdateFeed::stats() const {
  Stats s;
  uint64_t buckets[64] = {};
  for (const auto& w : writers_) {
    s.committed += w->committed.load(std::memory_order_relaxed);
    s.failed += w->failed.load(std::memory_order_relaxed);
    s.max_ns = std::max(s.max_ns, w->max_ns.load(std::memory_order_relaxed));
    for (int b = 0; b < 64; ++b) {
      buckets[b] += w->buckets[b].load(std::memory_order_relaxed);
    }
  }
  if (elapsed_sec_ > 0) {
    s.achieved_rps = static_cast<double>(s.committed) / elapsed_sec_;
  }
  auto quantile = [&](double q) -> uint64_t {
    const uint64_t total = s.committed;
    if (total == 0) return 0;
    const uint64_t want =
        static_cast<uint64_t>(std::ceil(q * static_cast<double>(total)));
    uint64_t seen = 0;
    for (int b = 0; b < 64; ++b) {
      seen += buckets[b];
      if (seen >= want) return b >= 63 ? ~0ull : (2ull << b);
    }
    return s.max_ns;
  };
  s.p50_ns = quantile(0.50);
  s.p99_ns = quantile(0.99);
  return s;
}

}  // namespace sgxb::txn
