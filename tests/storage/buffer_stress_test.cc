// Concurrent pin/unpin/scan stress over a pool far smaller than the
// working set, so eviction and concurrent demand reloads race. Run under TSan in CI (-L storage_stress_test); the invariants —
// pinned data never changes underfoot, per-thread sums match the source —
// catch use-after-evict as data corruption even without a sanitizer.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/random.h"
#include "storage/buffer_manager.h"
#include "storage/column_view.h"

namespace sgxb::storage {
namespace {

constexpr size_t kPartRows = 2048;
constexpr size_t kParts = 24;
constexpr size_t kRows = kPartRows * kParts;

std::vector<uint32_t> MakeValues() {
  std::vector<uint32_t> vals(kRows);
  for (size_t i = 0; i < kRows; ++i) {
    vals[i] = 1000000u + static_cast<uint32_t>(i * 2654435761u % 3000);
  }
  return vals;
}

TEST(BufferStressTest, ConcurrentPinEvictScan) {
  BufferManager::Config cfg;
  cfg.partition_rows = kPartRows;
  // ~5 decoded u32 partitions (8 KiB each) for 24 partitions x 8 threads.
  cfg.buffer_bytes = 44 << 10;
  cfg.pin_wait_timeout_ms = 30000;
  BufferManager bm(cfg);

  const std::vector<uint32_t> vals = MakeValues();
  PagedColumn<uint32_t>* col =
      bm.AddColumn("stress.c", vals.data(), vals.size()).value();
  ASSERT_EQ(col->num_partitions(), kParts);

  constexpr int kThreads = 8;
  constexpr int kRounds = 60;
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      Xoshiro256 rng(100 + t);
      for (int round = 0; round < kRounds; ++round) {
        const size_t p = rng.NextBounded(kParts);
        switch (rng.NextBounded(4)) {
          case 0: {
            // Sequential scan of a random row range, partition by
            // partition, checked value by value.
            const size_t begin = rng.NextBounded(kRows);
            const size_t end = begin + 1 + rng.NextBounded(kRows - begin);
            Status s = ForEachRun(
                ColumnView<uint32_t>(col), begin, end,
                [&](const uint32_t* run, size_t base, size_t n) {
                  for (size_t i = 0; i < n; ++i) {
                    if (run[i] != vals[base + i]) {
                      failures.fetch_add(1);
                      return;
                    }
                  }
                });
            if (!s.ok()) failures.fetch_add(1);
            break;
          }
          case 1: {
            // Random-access reader across partition boundaries.
            ColumnReader<uint32_t> reader((ColumnView<uint32_t>(col)));
            for (int i = 0; i < 200; ++i) {
              const size_t idx = rng.NextBounded(kRows);
              if (reader[idx] != vals[idx]) {
                failures.fetch_add(1);
                return;
              }
            }
            if (!reader.status().ok()) failures.fetch_add(1);
            break;
          }
          default: {
            // Pin one partition and verify every value while other
            // threads force evictions around it.
            auto pinned = col->PinPartition(p);
            if (!pinned.ok()) {
              failures.fetch_add(1);
              return;
            }
            const uint32_t* run = pinned.value();
            const size_t base = col->PartitionBegin(p);
            for (size_t i = 0; i < col->PartitionValues(p); ++i) {
              if (run[i] != vals[base + i]) {
                failures.fetch_add(1);
                break;
              }
            }
            col->UnpinPartition(p);
            break;
          }
        }
      }
    });
  }
  for (auto& w : workers) w.join();

  EXPECT_EQ(failures.load(), 0);
  BufferManagerStats s = bm.stats();
  // The pool is ~5 partitions for a 24-partition working set: the clock
  // must have cycled.
  EXPECT_GT(s.partitions_evicted, kParts);
  EXPECT_GT(s.partitions_reloaded, kParts);
  EXPECT_EQ(s.partitions_registered, kParts);
}

TEST(BufferStressTest, ParallelSequentialScansAgree) {
  BufferManager::Config cfg;
  cfg.partition_rows = kPartRows;
  cfg.buffer_bytes = 60 << 10;
  cfg.pin_wait_timeout_ms = 30000;
  BufferManager bm(cfg);

  const std::vector<uint32_t> vals = MakeValues();
  PagedColumn<uint32_t>* col =
      bm.AddColumn("stress.scan", vals.data(), vals.size()).value();

  uint64_t expected = 0;
  for (uint32_t v : vals) expected += v;

  constexpr int kThreads = 6;
  std::vector<uint64_t> sums(kThreads, 0);
  std::atomic<int> errors{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      uint64_t sum = 0;
      Status s = ForEachRun(ColumnView<uint32_t>(col), 0, kRows,
                            [&](const uint32_t* run, size_t, size_t n) {
                              for (size_t i = 0; i < n; ++i) sum += run[i];
                            });
      if (!s.ok()) errors.fetch_add(1);
      sums[t] = sum;
    });
  }
  for (auto& w : workers) w.join();

  EXPECT_EQ(errors.load(), 0);
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(sums[t], expected) << t;
}

}  // namespace
}  // namespace sgxb::storage
