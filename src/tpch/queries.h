// Simplified TPC-H queries (paper Section 6) and their extensions.
//
// Following the paper's setup: only scans and joins remain, the final
// aggregation is count(*), and dates and categorical strings are
// integers. Every query is a catalog plan (plan/catalog.h) run through
// the planner, which picks the lowering (materializing operators or
// fused pipelines) and each join's flavour. QueryConfig::pipeline =
// false plus join_algo = kRho pins the paper's setup: every operator
// fully materializes its output and every join is the (optionally
// SGXv2-optimized) RHO join.

#ifndef SGXB_TPCH_QUERIES_H_
#define SGXB_TPCH_QUERIES_H_

#include "obs/query_report.h"
#include "perf/access_profile.h"
#include "tpch/db_view.h"
#include "tpch/operators.h"
#include "tpch/tpch_schema.h"

namespace sgxb::plan {
class Plan;
}

namespace sgxb::tpch {

struct QueryResult {
  uint64_t count = 0;
  double host_ns = 0;
  perf::PhaseBreakdown phases;
  /// Extension: per-group counts when the query ends in a GROUP BY
  /// (empty for the paper's count(*) finals).
  std::vector<uint64_t> group_counts;
  /// Registry-counter deltas over this execution (transitions, EDMM page
  /// churn, arena/pool and executor activity). Filled by RunQuery and
  /// RunPlan.
  obs::QueryReport report;
  /// The planner's annotated plan dump (node tree, chosen join flavour /
  /// probe mode / estimated costs). Filled only when SGXBENCH_EXPLAIN is
  /// set; empty otherwise.
  std::string explain;
};

// Every entry point has a TpchDbView overload: the view's columns may be
// resident or paged through the out-of-EPC buffer manager
// (tpch/paged_db.h, docs/storage.md); both overloads run the same
// (templated) body and produce byte-identical results.

/// \brief Any catalog query by number (plan/catalog.h): the paper's
/// 3/10/12/19, the extensions 1/6, and the plan-only queries 105/106/112
/// (112 = plan::kQueryQ12Grouped). Dispatch is table-driven off the
/// catalog; unknown numbers return Status::InvalidArgument listing what
/// exists.
Result<QueryResult> RunQuery(int query_number, const TpchDb& db,
                             const QueryConfig& config);
Result<QueryResult> RunQuery(int query_number, const TpchDbView& db,
                             const QueryConfig& config);

/// \brief Runs an arbitrary validated plan through the planner (mode +
/// join-flavour choice, then lowering), with the same report/metric
/// attribution as RunQuery. This is how the serving layer submits plans
/// directly (serve::QueryRequest::plan) and how plan-only queries run.
Result<QueryResult> RunPlan(const plan::Plan& plan, const TpchDb& db,
                            const QueryConfig& config);
Result<QueryResult> RunPlan(const plan::Plan& plan, const TpchDbView& db,
                            const QueryConfig& config);

/// \brief Oracle for the grouped Q12 (plan::kQueryQ12Grouped): line
/// counts per priority class, (high = URGENT/HIGH orders, low).
std::pair<uint64_t, uint64_t> ReferenceQ12Grouped(const TpchDb& db);

/// \brief Oracles for the extension queries. Q1 is a pure scan + GROUP
/// BY (returnflag, linestatus) over shipdate <= 1998-09-02, with count(*)
/// and sum(quantity) per group (index flag * kNumLineStatuses + status).
/// Q6 sums extendedprice * discount over shipdate in 1994, discount in
/// [5, 7] and quantity < 24; RunQuery(6) returns the qualifying row
/// count in `count` and this sum in group_counts[0].
std::vector<uint64_t> ReferenceQ1Counts(const TpchDb& db);
std::vector<uint64_t> ReferenceQ1Sums(const TpchDb& db);
uint64_t ReferenceQ6(const TpchDb& db);

/// \brief Reference (single-threaded, obviously-correct) evaluation of the
/// same queries; the test oracle.
uint64_t ReferenceQ3(const TpchDb& db);
uint64_t ReferenceQ10(const TpchDb& db);
uint64_t ReferenceQ12(const TpchDb& db);
uint64_t ReferenceQ19(const TpchDb& db);

}  // namespace sgxb::tpch

#endif  // SGXB_TPCH_QUERIES_H_
