// Equivalence matrix for the out-of-EPC buffer manager (docs/storage.md):
// every query must produce byte-identical results whether its columns are
// resident (TpchDb) or paged through a pool far smaller than the dataset
// (PagedTpchDb over a storage::BufferManager), in both the materializing
// and the fused-pipeline execution modes — while actually evicting and
// reloading (asserted via manager stats, so the matrix cannot silently
// degrade into an all-resident run).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>

#include "obs/query_report.h"
#include "plan/catalog.h"
#include "storage/buffer_manager.h"
#include "tpch/paged_db.h"
#include "tpch/queries.h"
#include "tpch/tpch_gen.h"

namespace sgxb::tpch {
namespace {

// SF 0.01 (~60k lineitem rows, ~2.4 MB of columns) paged through a
// 768 KiB pool with 4096-row partitions, so scans cross many partition
// boundaries and the clock evicts continuously.
storage::BufferManager::Config PoolConfig() {
  storage::BufferManager::Config cfg;
  cfg.buffer_bytes = 768 << 10;
  cfg.partition_rows = 4096;
  return cfg;
}

// A pool of its own over `db`: nothing is resident until the first pin.
struct PagedCopy {
  std::unique_ptr<storage::BufferManager> bm;
  PagedTpchDb paged;

  explicit PagedCopy(const TpchDb& db)
      : bm(std::make_unique<storage::BufferManager>(PoolConfig())),
        paged(PagedTpchDb::Build(db, bm.get()).value()) {}
};

// One generated database, plus one paged copy shared by the tests that
// do not depend on what earlier tests left resident.
struct PagedWorld {
  TpchDb db;
  std::unique_ptr<PagedCopy> shared;

  PagedWorld() {
    GenConfig gen;
    gen.scale_factor = 0.01;
    db = Generate(gen).value();
    shared = std::make_unique<PagedCopy>(db);
  }
};

PagedWorld& World() {
  static PagedWorld* world = new PagedWorld();
  return *world;
}

using PagedParam = std::tuple<int, bool>;  // query, fused pipeline

class PagedQueryTest : public ::testing::TestWithParam<PagedParam> {};

TEST_P(PagedQueryTest, PagedMatchesResident) {
  auto [query, fused] = GetParam();
  PagedWorld& w = World();
  // A cold pool per case: on the shared one, partitions left resident by
  // earlier cases could serve the whole query without a reload.
  PagedCopy cold(w.db);

  QueryConfig cfg;
  cfg.num_threads = 4;
  cfg.pipeline = fused;

  auto resident = RunQuery(query, w.db, cfg);
  ASSERT_TRUE(resident.ok()) << resident.status().ToString();

  const storage::BufferManagerStats before = cold.bm->stats();
  auto paged = RunQuery(query, cold.paged.View(), cfg);
  ASSERT_TRUE(paged.ok()) << paged.status().ToString();
  const storage::BufferManagerStats after = cold.bm->stats();

  EXPECT_EQ(paged.value().count, resident.value().count);
  EXPECT_EQ(paged.value().group_counts, resident.value().group_counts);
  // The paged run must have gone through the manager, not a cached
  // resident copy: the pool holds ~1/3 of the data, so every query
  // reloads at least some partitions.
  EXPECT_GT(after.partitions_reloaded, before.partitions_reloaded);
  EXPECT_GT(after.decrypt_bytes, before.decrypt_bytes);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, PagedQueryTest,
    ::testing::Combine(::testing::Values(1, 3, 6, 10, 12, 19),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<PagedParam>& info) {
      return "Q" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_Fused" : "_Mat");
    });

TEST(PagedQueryTest, Q12GroupedPagedMatchesResident) {
  PagedWorld& w = World();
  for (bool fused : {false, true}) {
    QueryConfig cfg;
    cfg.num_threads = 4;
    cfg.pipeline = fused;
    auto resident = RunQuery(plan::kQueryQ12Grouped, w.db, cfg);
    ASSERT_TRUE(resident.ok()) << resident.status().ToString();
    auto paged =
        RunQuery(plan::kQueryQ12Grouped, w.shared->paged.View(), cfg);
    ASSERT_TRUE(paged.ok()) << paged.status().ToString();
    EXPECT_EQ(paged.value().count, resident.value().count) << fused;
    EXPECT_EQ(paged.value().group_counts, resident.value().group_counts)
        << fused;
  }
}

TEST(PagedQueryTest, ViewOfResidentDbMatchesToo) {
  // TpchDbView is also the adapter for resident columns; the view
  // overloads must agree with the Column-based ones bit for bit.
  PagedWorld& w = World();
  QueryConfig cfg;
  cfg.num_threads = 2;
  for (int q : {1, 3, 6, 10, 12, 19}) {
    auto a = RunQuery(q, w.db, cfg);
    auto b = RunQuery(q, ViewOf(w.db), cfg);
    ASSERT_TRUE(a.ok() && b.ok()) << q;
    EXPECT_EQ(a.value().count, b.value().count) << q;
    EXPECT_EQ(a.value().group_counts, b.value().group_counts) << q;
  }
}

TEST(PagedQueryTest, ReportStorageCountersMatchManagerDeltas) {
  // The storage section of QueryReport is fed from the obs registry
  // mirror of the manager's counters. Loads happen only inside pins, so
  // a paged query's report must show exactly the activity the manager
  // performed in its window.
  PagedWorld& w = World();
  QueryConfig cfg;
  cfg.num_threads = 4;
  cfg.pipeline = false;

  const storage::BufferManagerStats before = w.shared->bm->stats();
  auto r = RunQuery(3, w.shared->paged.View(), cfg);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const obs::QueryReport& report = r.value().report;
  const storage::BufferManagerStats after = w.shared->bm->stats();

  EXPECT_GT(report.partitions_reloaded, 0u);
  EXPECT_GT(report.storage_decrypt_bytes, 0u);
  EXPECT_EQ(report.partitions_reloaded,
            after.partitions_reloaded - before.partitions_reloaded);
  EXPECT_EQ(report.partitions_evicted,
            after.partitions_evicted - before.partitions_evicted);
  EXPECT_EQ(report.storage_decrypt_bytes,
            after.decrypt_bytes - before.decrypt_bytes);
  EXPECT_EQ(report.storage_pin_waits, after.pin_waits - before.pin_waits);
  // The textual rendering carries the storage line for paged queries.
  EXPECT_NE(report.ToString().find("storage:"), std::string::npos);

  // A fully resident query reports zero storage activity.
  auto resident = RunQuery(3, w.db, cfg);
  ASSERT_TRUE(resident.ok());
  EXPECT_EQ(resident.value().report.partitions_reloaded, 0u);
  EXPECT_EQ(resident.value().report.storage_decrypt_bytes, 0u);
}

TEST(PagedQueryTest, SpillImagesAreCompressed) {
  PagedWorld& w = World();
  const storage::BufferManagerStats s = w.shared->bm->stats();
  EXPECT_GT(s.logical_bytes, 0u);
  // TPC-H dates/keys/flags compress well; require a conservative 1.5x.
  EXPECT_GT(s.CompressionRatio(), 1.5);
}

}  // namespace
}  // namespace sgxb::tpch
