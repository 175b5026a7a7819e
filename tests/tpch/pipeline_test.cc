// Result-equivalence matrix for the fused morsel-driven pipelines
// (plan/fused.cc): for every query, the fused plan must produce a
// QueryResult byte-identical (count + group_counts) to the materializing
// plan across thread counts, execution settings, and probe modes. Also
// hosts the unit tests for the allocation-overflow guards that the fused
// work leaned on (RowIdList::Allocate, ScatterBufferScratch::Reserve).
//
// This suite is wired into the ASan/UBSan and TSan CI jobs (`ctest -L
// pipeline_test`), so the fused driver's worker-local scratch and shared
// hash-table builds get raced under TSan on every change.

#include "tpch/queries.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <tuple>

#include "common/aligned_buffer.h"
#include "exec/probe_pipeline.h"
#include "join/radix_common.h"
#include "sgx/enclave.h"
#include "plan/catalog.h"
#include "tpch/tpch_gen.h"

namespace sgxb::tpch {
namespace {

const TpchDb& Db() {
  static const TpchDb db = [] {
    GenConfig cfg;
    cfg.scale_factor = 0.01;
    return Generate(cfg).value();
  }();
  return db;
}

using MatrixParam = std::tuple<int, ExecutionSetting, int, exec::ProbeMode>;

class PipelineEquivalenceTest : public ::testing::TestWithParam<MatrixParam> {
};

TEST_P(PipelineEquivalenceTest, FusedMatchesMaterializing) {
  auto [query, setting, threads, probe_mode] = GetParam();

  sgx::Enclave* enclave = nullptr;
  if (setting != ExecutionSetting::kPlainCpu) {
    sgx::EnclaveConfig ecfg;
    ecfg.initial_heap_bytes = 128_MiB;
    enclave = sgx::Enclave::Create(ecfg).value();
  }

  QueryConfig cfg;
  cfg.num_threads = threads;
  cfg.setting = setting;
  cfg.enclave = enclave;
  cfg.radix_bits = 8;
  cfg.probe_mode = probe_mode;

  cfg.pipeline = false;
  auto materializing = RunQuery(query, Db(), cfg);
  ASSERT_TRUE(materializing.ok()) << materializing.status().ToString();

  cfg.pipeline = true;
  auto fused = RunQuery(query, Db(), cfg);
  ASSERT_TRUE(fused.ok()) << fused.status().ToString();

  EXPECT_EQ(fused.value().count, materializing.value().count)
      << "Q" << query;
  EXPECT_EQ(fused.value().group_counts, materializing.value().group_counts)
      << "Q" << query;
  EXPECT_GT(fused.value().host_ns, 0.0);
  EXPECT_FALSE(fused.value().phases.phases.empty());
  if (enclave != nullptr) sgx::DestroyEnclave(enclave);
}

INSTANTIATE_TEST_SUITE_P(
    AllQueries, PipelineEquivalenceTest,
    ::testing::Combine(::testing::Values(1, 3, 6, 10, 12, 19,
                                         plan::kQueryQ12Grouped),
                       ::testing::Values(
                           ExecutionSetting::kPlainCpu,
                           ExecutionSetting::kSgxDataInEnclave),
                       ::testing::Values(1, 4),
                       ::testing::Values(exec::ProbeMode::kTupleAtATime,
                                         exec::ProbeMode::kGroupPrefetch,
                                         exec::ProbeMode::kAmac)),
    [](const ::testing::TestParamInfo<MatrixParam>& info) {
      int q = std::get<0>(info.param);
      std::string name =
          q == plan::kQueryQ12Grouped ? "Q12G" : "Q" + std::to_string(q);
      name += std::get<1>(info.param) == ExecutionSetting::kPlainCpu
                  ? "_Plain"
                  : "_Sgx";
      name += "_T" + std::to_string(std::get<2>(info.param));
      switch (std::get<3>(info.param)) {
        case exec::ProbeMode::kTupleAtATime:
          name += "_Tuple";
          break;
        case exec::ProbeMode::kGroupPrefetch:
          name += "_Gp";
          break;
        case exec::ProbeMode::kAmac:
          name += "_Amac";
          break;
      }
      return name;
    });

TEST(PipelineReportTest, FusedPlansMaterializeFewerBytes) {
  // The point of fusion: the multi-join queries stop writing global
  // row-id lists, gathered relations, and join intermediates. The
  // per-query bytes_materialized counter delta must reflect that.
  for (int q : {3, 10, 12, 19}) {
    QueryConfig cfg;
    cfg.num_threads = 2;
    cfg.radix_bits = 8;

    cfg.pipeline = false;
    auto materializing = RunQuery(q, Db(), cfg);
    ASSERT_TRUE(materializing.ok()) << materializing.status().ToString();

    cfg.pipeline = true;
    auto fused = RunQuery(q, Db(), cfg);
    ASSERT_TRUE(fused.ok()) << fused.status().ToString();

    EXPECT_GT(materializing.value().report.bytes_materialized, 0u)
        << "Q" << q;
    EXPECT_LT(fused.value().report.bytes_materialized,
              materializing.value().report.bytes_materialized)
        << "Q" << q;
  }
}

// --- Allocation-guard unit tests (satellite: overflow hardening) -----------

TEST(RowIdListGuardTest, RejectsCapacityOverflow) {
  QueryConfig cfg;
  auto list = RowIdList::Allocate(
      std::numeric_limits<size_t>::max() / sizeof(uint64_t) + 1, cfg);
  EXPECT_FALSE(list.ok());
}

TEST(RowIdListGuardTest, ZeroCapacityStillUsable) {
  // Empty filters allocate "0" rows; the list must still hold the
  // canonical empty state, not a null buffer.
  QueryConfig cfg;
  auto list = RowIdList::Allocate(0, cfg);
  ASSERT_TRUE(list.ok()) << list.status().ToString();
  EXPECT_GE(list.value().capacity(), 1u);
  EXPECT_EQ(list.value().count(), 0u);
  EXPECT_NE(list.value().ids(), nullptr);
}

TEST(ScatterScratchGuardTest, RejectsNegativeAndOversizedBits) {
  join::ScatterBufferScratch scratch;
  EXPECT_FALSE(scratch.Reserve(-1).ok());
  EXPECT_FALSE(scratch.Reserve(63).ok());
  EXPECT_TRUE(scratch.Reserve(8).ok());
  EXPECT_NE(scratch.buffers(), nullptr);
  EXPECT_NE(scratch.fill(), nullptr);
}

}  // namespace
}  // namespace sgxb::tpch
