// Workload driver of the repo benchmark (perfbench/README.md).
//
// Runs one named workload against the engine's public entry points and
// prints one JSON document on its last stdout line: set-up times, every
// timed request (latency, outcome, and in traced windows the counter
// deltas, phases and planner decision beside it), the window lengths,
// peak RSS, the correctness checks and, when tracing, the span list.
// perfbench/run.py turns that document into the benchmark's metrics.
//
//   perfbench_driver --workload olap_resident|olap_paged|htap_serve
//                    --seed N --seconds S --trace 0|1 --min-queries Q
//
// An untraced window that holds fewer than Q queries after S seconds runs
// on until it does, for at most 3 S. run.py starts several driver
// processes per run and pools their windows.
//
// With --trace 1 the run measures an untraced window of S/2 seconds and
// then a traced window of S/2 seconds, so the tracing overhead is the
// ratio of the two in one process.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "exec/executor.h"
#include "mem/arena_pool.h"
#include "mem/enclave_resource.h"
#include "plan/catalog.h"
#include "plan/planner.h"
#include "serve/serve.h"
#include "sgx/enclave.h"
#include "storage/buffer_manager.h"
#include "tpch/paged_db.h"
#include "tpch/queries.h"
#include "tpch/tpch_gen.h"
#include "txn/versioned_db.h"

using namespace sgxb;

namespace {

// --- Fixed workload parameters (perfbench/README.md, "Workloads") -----------

constexpr double kScaleFactor = 1.0;
// Static enclave heap: covers base data, intermediates and version chunks
// of every workload, so no query pays an EDMM commit (paper Fig 11).
constexpr size_t kEnclaveHeapBytes = size_t{4} << 30;
// The paged pool holds 1/kPoolDivisor of the decoded dataset.
constexpr size_t kPoolDivisor = 8;
// HTAP writer: 20-row batches on a fixed 250 batch/s schedule.
constexpr int kHtapClients = 3;
constexpr size_t kBatchRows = 20;
constexpr double kBatchesPerSec = 250;
constexpr double kWriterZipfTheta = 0.5;

const std::vector<int> kResidentMix = {1, 3, 6, 10, 12, 19, 105, 106, 112};
const std::vector<int> kPagedMix = {1, 6, 12, 19, 112};
const std::vector<int> kHtapMix = {6, 1, 12, 19, 3};

const auto kProcessStart = std::chrono::steady_clock::now();

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - kProcessStart)
      .count();
}

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench_driver: %s\n", what.c_str());
  std::exit(2);
}

template <typename T>
T ValueOrDie(Result<T> r, const char* what) {
  if (!r.ok()) Die(std::string(what) + ": " + r.status().ToString());
  return std::move(r).value();
}

// --- Minimal JSON output ----------------------------------------------------

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Builds one JSON object field by field.
class JsonObject {
 public:
  JsonObject& Add(const std::string& key, double v) {
    return Raw(key, Num(v));
  }
  JsonObject& Str(const std::string& key, const std::string& v) {
    return Raw(key, Quote(v));
  }
  JsonObject& Raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ",") + Quote(key) + ":" + json;
    return *this;
  }
  std::string Done() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

template <typename T, typename Fn>
std::string JsonArray(const std::vector<T>& items, Fn&& to_json) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ",";
    out += to_json(items[i]);
  }
  return out + "]";
}

std::string NumArray(const std::vector<double>& v) {
  return JsonArray(v, [](double x) { return Num(x); });
}

// --- Spans ------------------------------------------------------------------

/// In-memory spans around each call the benchmark makes into a layer.
/// Disabled tracers record nothing; spans are written once, at exit. A
/// span's parent is the innermost span its thread has open, so spans of
/// one thread must close in reverse order of opening.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span; `parent` applies only when the calling thread has no
  /// span open (the first span of a worker thread).
  int Begin(const std::string& name, int64_t request = -1, int parent = -1) {
    if (!enabled_) return -1;
    if (!open_.empty()) parent = open_.back();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{name, NowNs(), 0, parent, request, ""});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  /// Closes span `id`; `counters` (a JSON object) is attached verbatim.
  void End(int id, std::string counters = "") {
    if (id < 0) return;
    open_.pop_back();
    const int64_t now = NowNs();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[id].end_ns = now;
    spans_[id].counters = std::move(counters);
  }

  std::string ToJson() const {
    std::lock_guard<std::mutex> lock(mu_);
    return JsonArray(spans_, [](const Span& s) {
      JsonObject o;
      o.Str("name", s.name)
          .Add("start_ns", static_cast<double>(s.start_ns))
          .Add("end_ns", static_cast<double>(s.end_ns))
          .Add("parent", s.parent)
          .Add("request", static_cast<double>(s.request));
      if (!s.counters.empty()) o.Raw("counters", s.counters);
      return o.Done();
    });
  }

 private:
  struct Span {
    std::string name;
    int64_t start_ns;
    int64_t end_ns;
    int parent;
    int64_t request;
    std::string counters;
  };

  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  static thread_local std::vector<int> open_;  ///< this thread's open spans
};

thread_local std::vector<int> Tracer::open_;

/// Span for the enclosing scope.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name)
      : tracer_(tracer), id_(tracer->Begin(name)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

// --- Requests and windows ---------------------------------------------------

/// A query's checked output: the count and any group counts.
struct Answer {
  uint64_t count = 0;
  std::vector<uint64_t> groups;
  bool operator==(const Answer& o) const {
    return count == o.count && groups == o.groups;
  }
};

Answer AnswerOf(const tpch::QueryResult& r) {
  return Answer{r.count, r.group_counts};
}

/// One timed request: a query ('q') or an update batch ('u').
struct Request {
  char kind = 'q';
  int query = 0;
  int client = 0;
  int64_t start_ns = 0;
  double latency_ns = 0;
  bool ok = false;       ///< the call succeeded
  bool correct = false;  ///< and its output matched the expectation
  Answer answer;
  std::string detail;  ///< JSON object: traced-window extras, batch lateness
};

struct Window {
  bool traced = false;
  double elapsed_s = 0;
  std::vector<Request> requests;
  std::string extra = "{}";  ///< workload-specific window counters
};

std::string WindowJson(const Window& w) {
  JsonObject o;
  o.Add("traced", w.traced ? 1 : 0)
      .Add("elapsed_s", w.elapsed_s)
      .Raw("extra", w.extra)
      .Raw("requests", JsonArray(w.requests, [](const Request& r) {
             JsonObject q;
             q.Str("kind", std::string(1, r.kind))
                 .Add("query", r.query)
                 .Add("client", r.client)
                 .Add("latency_ns", r.latency_ns)
                 .Add("ok", r.ok ? 1 : 0)
                 .Add("correct", r.correct ? 1 : 0)
                 .Add("count", static_cast<double>(r.answer.count));
             if (!r.detail.empty()) q.Raw("detail", r.detail);
             return q.Done();
           }));
  return o.Done();
}

/// Correctness checks made beside the timed requests (reference oracles,
/// final-state comparisons), each with its outcome.
struct Checks {
  std::vector<std::pair<std::string, bool>> items;
  void Add(bool ok, const std::string& what) { items.emplace_back(what, ok); }
};

/// One timed window: its length, the queries it must hold before it may
/// end, and the tracer it records into (a disabled one when untraced).
struct WindowSpec {
  double seconds = 0;
  size_t min_queries = 0;
  Tracer* tracer = nullptr;
};

/// Stops a closed-loop window: after `seconds`, once at least
/// `min_queries` queries completed, and never later than three times
/// `seconds`.
class WindowClock {
 public:
  explicit WindowClock(const WindowSpec& spec)
      : start_ns_(NowNs()),
        end_ns_(start_ns_ + static_cast<int64_t>(spec.seconds * 1e9)),
        cap_ns_(start_ns_ + static_cast<int64_t>(3 * spec.seconds * 1e9)),
        min_queries_(spec.min_queries) {}

  int64_t start_ns() const { return start_ns_; }

  bool Expired(size_t completed_queries) const {
    const int64_t now = NowNs();
    if (now < end_ns_) return false;
    if (completed_queries < min_queries_) {
      return now >= cap_ns_;
    }
    return true;
  }

 private:
  int64_t start_ns_;
  int64_t end_ns_;
  int64_t cap_ns_;
  size_t min_queries_;
};

/// Command-line options of one driver process.
struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  /// Queries an untraced window must hold before it may end.
  size_t min_queries = 0;
};

// --- Common set-up ----------------------------------------------------------

struct EnclaveDeleter {
  void operator()(sgx::Enclave* e) const { sgx::DestroyEnclave(e); }
};
using EnclavePtr = std::unique_ptr<sgx::Enclave, EnclaveDeleter>;

EnclavePtr CreateEnclave(Tracer* tracer) {
  ScopedSpan span(tracer, "sgx::Enclave::Create");
  sgx::EnclaveConfig config;
  config.initial_heap_bytes = kEnclaveHeapBytes;
  config.dynamic = false;
  config.name = "perfbench";
  return EnclavePtr(ValueOrDie(sgx::Enclave::Create(config), "enclave"));
}

tpch::TpchDb GenerateDb(uint64_t seed, mem::MemoryResource* resource,
                        Tracer* tracer, std::vector<double>* generate_s) {
  ScopedSpan span(tracer, "tpch::Generate");
  const int64_t t0 = NowNs();
  tpch::GenConfig gen;
  gen.scale_factor = kScaleFactor;
  gen.seed = seed;
  gen.resource = resource;
  tpch::TpchDb db = ValueOrDie(tpch::Generate(gen), "generate");
  if (generate_s != nullptr) generate_s->push_back((NowNs() - t0) * 1e-9);
  return db;
}

tpch::QueryConfig EnclaveQueryConfig(sgx::Enclave* enclave) {
  tpch::QueryConfig config;
  config.num_threads = exec::Executor::DefaultParallelism();
  config.setting = ExecutionSetting::kSgxDataInEnclave;
  config.enclave = enclave;
  return config;
}

/// Decoded bytes of every column the paged database registers.
size_t DecodedBytes(const tpch::TpchDb& db) {
  const tpch::TpchDbView v = tpch::ViewOf(db);
  return v.customer.c_custkey.size_bytes() +
         v.customer.c_mktsegment.size_bytes() +
         v.orders.o_orderkey.size_bytes() + v.orders.o_custkey.size_bytes() +
         v.orders.o_orderdate.size_bytes() +
         v.orders.o_orderpriority.size_bytes() +
         v.lineitem.l_orderkey.size_bytes() +
         v.lineitem.l_partkey.size_bytes() +
         v.lineitem.l_quantity.size_bytes() +
         v.lineitem.l_extendedprice.size_bytes() +
         v.lineitem.l_discount.size_bytes() +
         v.lineitem.l_shipdate.size_bytes() +
         v.lineitem.l_commitdate.size_bytes() +
         v.lineitem.l_receiptdate.size_bytes() +
         v.lineitem.l_shipmode.size_bytes() +
         v.lineitem.l_shipinstruct.size_bytes() +
         v.lineitem.l_returnflag.size_bytes() +
         v.lineitem.l_linestatus.size_bytes() +
         v.part.p_partkey.size_bytes() + v.part.p_size.size_bytes() +
         v.part.p_brand.size_bytes() + v.part.p_container.size_bytes();
}

/// Start offset of client `client` in its query cycle, from the seed.
size_t CycleOffset(uint64_t seed, int client, size_t cycle_len) {
  uint64_t state = seed * 0x9e3779b97f4a7c15ull + static_cast<uint64_t>(client);
  return static_cast<size_t>(SplitMix64(state) % cycle_len);
}

/// Planner decision beside a query (traced windows only): the time
/// plan::DecideFor takes, whether it picks fused, and the root estimate.
std::string DecideTraced(Tracer* tracer, int query,
                         const tpch::TpchDbView& view,
                         const tpch::QueryConfig& config, int64_t request,
                         int parent = -1) {
  const plan::CatalogEntry* entry = plan::FindQuery(query);
  const int span = tracer->Begin("plan::DecideFor", request, parent);
  const int64_t t0 = NowNs();
  const plan::PlanDecisions d = plan::DecideFor(entry->plan, view, config);
  const double decide_ns = static_cast<double>(NowNs() - t0);
  tracer->End(span);
  JsonObject o;
  o.Add("decide_ns", decide_ns)
      .Add("fused", d.fused ? 1 : 0)
      .Add("root_est_rows", d.est_rows.at(entry->plan.root()));
  return o.Done();
}

/// One closed-loop client cycling `mix` over `view` until the window ends.
Window RunSingleClient(const std::vector<int>& mix, size_t offset,
                       const tpch::TpchDbView& view,
                       const tpch::QueryConfig& config,
                       const WindowSpec& spec) {
  Tracer* tracer = spec.tracer;
  const bool traced = tracer->enabled();
  ScopedSpan window(tracer, "window");
  Window w;
  w.traced = traced;
  WindowClock clock(spec);
  for (size_t i = 0; !clock.Expired(w.requests.size()); ++i) {
    Request req;
    req.query = mix[(offset + i) % mix.size()];
    const int64_t id = static_cast<int64_t>(w.requests.size());
    std::string decide;
    if (traced) decide = DecideTraced(tracer, req.query, view, config, id);
    const int span = tracer->Begin("tpch::RunQuery", id);
    req.start_ns = NowNs();
    Result<tpch::QueryResult> r = tpch::RunQuery(req.query, view, config);
    req.latency_ns = static_cast<double>(NowNs() - req.start_ns);
    req.ok = r.ok();
    if (r.ok()) {
      req.answer = AnswerOf(r.value());
      if (traced) {
        const obs::QueryReport& rep = r.value().report;
        tracer->End(span, rep.ToJson());
        JsonObject t;
        t.Raw("report", rep.ToJson()).Raw("plan", decide);
        req.detail = t.Done();
      }
    } else {
      tracer->End(span);
      std::fprintf(stderr, "Q%d failed: %s\n", req.query,
                   r.status().ToString().c_str());
    }
    w.requests.push_back(std::move(req));
  }
  w.elapsed_s = (NowNs() - clock.start_ns()) * 1e-9;
  return w;
}

/// Untraced window (all of `seconds`), or with tracing an untraced and a
/// traced window of half each; the untraced one records no spans. Only
/// the window of an untraced run is held open for `min_queries`.
template <typename RunFn>
std::vector<Window> RunWindows(const Options& opt, Tracer* tracer,
                               RunFn&& run) {
  std::vector<Window> windows;
  if (!opt.trace) {
    windows.push_back(run(WindowSpec{opt.seconds, opt.min_queries, tracer}));
    return windows;
  }
  Tracer untraced(false);
  windows.push_back(run(WindowSpec{opt.seconds / 2, 0, &untraced}));
  windows.push_back(run(WindowSpec{opt.seconds / 2, 0, tracer}));
  return windows;
}

/// Marks each query of `windows` correct when it succeeded with the
/// expected answer.
void CheckAnswers(const std::map<int, Answer>& expected,
                  std::vector<Window>* windows) {
  for (Window& w : *windows) {
    for (Request& r : w.requests) {
      auto it = expected.find(r.query);
      r.correct = r.ok && it != expected.end() && it->second == r.answer;
    }
  }
}

double PeakRssMb() {
  struct rusage ru;
  std::memset(&ru, 0, sizeof(ru));
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Samples an enclave's heap use every millisecond and keeps the peak: the
/// heap a statically sized enclave must be given to run the workload.
class HeapPeakSampler {
 public:
  explicit HeapPeakSampler(const sgx::Enclave* enclave)
      : thread_([this, enclave] {
          while (!stop_.load()) {
            peak_ = std::max(peak_, enclave->memory_stats().heap_used_bytes);
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
        }) {}
  ~HeapPeakSampler() { Stop(); }
  HeapPeakSampler(const HeapPeakSampler&) = delete;
  HeapPeakSampler& operator=(const HeapPeakSampler&) = delete;

  /// Stops sampling; returns the peak in MiB.
  double Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
    return static_cast<double>(peak_) / (1 << 20);
  }

 private:
  std::atomic<bool> stop_{false};
  size_t peak_ = 0;
  std::thread thread_;  // last: runs on the members above
};

/// What every workload returns to main.
struct Outcome {
  std::vector<double> setup_s;
  std::vector<double> generate_s;
  std::vector<double> build_s;
  std::vector<Window> windows;
  double peak_rss_mb = 0;
  double enclave_heap_peak_mb = 0;
  Checks checks;
  JsonObject facts;  ///< provenance and layer state (pool bytes, ...)
};

/// Runs the workload's set-up (tables, enclave, layers, warm-up pass) and
/// records its time since process start as setup_s.
template <typename SetupFn>
auto TimedSetup(Tracer* tracer, SetupFn&& setup, Outcome* out) {
  ScopedSpan span(tracer, "setup");
  auto state = setup();
  out->setup_s.push_back(NowNs() * 1e-9);
  return state;
}

// --- olap_resident ----------------------------------------------------------

struct ResidentState {
  EnclavePtr enclave;  // destroyed last: everything below charges it
  std::unique_ptr<HeapPeakSampler> heap_peak;
  tpch::TpchDb db;
  std::unique_ptr<mem::ArenaPool> pool;
  tpch::QueryConfig config;
  std::map<int, Answer> warm;
};

Outcome RunResident(const Options& opt, Tracer* tracer) {
  const uint64_t seed = opt.seed;
  Outcome out;
  auto state = TimedSetup(
      tracer,
      [&] {
        auto s = std::make_unique<ResidentState>();
        s->enclave = CreateEnclave(tracer);
        s->heap_peak = std::make_unique<HeapPeakSampler>(s->enclave.get());
        s->db = GenerateDb(seed, mem::ForEnclave(s->enclave.get()), tracer,
                           &out.generate_s);
        s->pool = std::make_unique<mem::ArenaPool>(
            mem::ForEnclave(s->enclave.get()));
        s->config = EnclaveQueryConfig(s->enclave.get());
        s->config.arena_pool = s->pool.get();
        ScopedSpan warm(tracer, "warmup");
        for (int q : kResidentMix) {
          s->warm[q] = AnswerOf(ValueOrDie(
              tpch::RunQuery(q, s->db, s->config), "warm-up query"));
        }
        return s;
      },
      &out);

  const tpch::TpchDbView view = tpch::ViewOf(state->db);
  const size_t offset = CycleOffset(seed, 0, kResidentMix.size());
  out.windows = RunWindows(opt, tracer, [&](const WindowSpec& spec) {
    return RunSingleClient(kResidentMix, offset, view, state->config, spec);
  });
  out.peak_rss_mb = PeakRssMb();
  out.enclave_heap_peak_mb = state->heap_peak->Stop();

  // The warm-up answers are the expectation; they must match the
  // single-threaded reference oracles wherever one exists.
  const tpch::TpchDb& db = state->db;
  const std::map<int, Answer>& warm = state->warm;
  Checks& v = out.checks;
  const std::vector<uint64_t> q1 = tpch::ReferenceQ1Counts(db);
  uint64_t q1_total = 0;
  for (uint64_t c : q1) q1_total += c;
  v.Add(warm.at(1).groups == q1 && warm.at(1).count == q1_total,
        "Q1 differs from ReferenceQ1Counts");
  v.Add(warm.at(3).count == tpch::ReferenceQ3(db), "Q3 differs from reference");
  v.Add(!warm.at(6).groups.empty() &&
            warm.at(6).groups[0] == tpch::ReferenceQ6(db),
        "Q6 revenue differs from reference");
  v.Add(warm.at(10).count == tpch::ReferenceQ10(db),
        "Q10 differs from reference");
  v.Add(warm.at(12).count == tpch::ReferenceQ12(db),
        "Q12 differs from reference");
  v.Add(warm.at(19).count == tpch::ReferenceQ19(db),
        "Q19 differs from reference");
  const auto [high, low] = tpch::ReferenceQ12Grouped(db);
  v.Add(warm.at(112).groups == std::vector<uint64_t>{high, low},
        "Q112 groups differ from ReferenceQ12Grouped");
  CheckAnswers(warm, &out.windows);
  return out;
}

// --- olap_paged -------------------------------------------------------------

struct PagedState {
  EnclavePtr enclave;  // destroyed last
  std::unique_ptr<HeapPeakSampler> heap_peak;
  std::unique_ptr<storage::BufferManager> bm;
  std::optional<tpch::PagedTpchDb> pdb;
  std::unique_ptr<mem::ArenaPool> pool;
  tpch::QueryConfig config;
  size_t dataset_bytes = 0;
  std::map<int, Answer> warm;
};

Outcome RunPaged(const Options& opt, Tracer* tracer) {
  const uint64_t seed = opt.seed;
  Outcome out;
  auto state = TimedSetup(
      tracer,
      [&] {
        auto s = std::make_unique<PagedState>();
        s->enclave = CreateEnclave(tracer);
        s->heap_peak = std::make_unique<HeapPeakSampler>(s->enclave.get());
        // The source tables play the role of untrusted storage: they are
        // dropped once the manager holds the encrypted spill images.
        tpch::TpchDb source = GenerateDb(seed, nullptr, tracer,
                                         &out.generate_s);
        s->dataset_bytes = DecodedBytes(source);
        storage::BufferManager::Config bm_config;
        bm_config.buffer_bytes = s->dataset_bytes / kPoolDivisor;
        bm_config.trusted = mem::ForEnclave(s->enclave.get());
        s->bm = std::make_unique<storage::BufferManager>(bm_config);
        {
          ScopedSpan span(tracer, "tpch::PagedTpchDb::Build");
          const int64_t t0 = NowNs();
          s->pdb = ValueOrDie(tpch::PagedTpchDb::Build(source, s->bm.get()),
                              "paged build");
          out.build_s.push_back((NowNs() - t0) * 1e-9);
        }
        s->pool = std::make_unique<mem::ArenaPool>(
            mem::ForEnclave(s->enclave.get()));
        s->config = EnclaveQueryConfig(s->enclave.get());
        s->config.arena_pool = s->pool.get();
        ScopedSpan warm(tracer, "warmup");
        const tpch::TpchDbView view = s->pdb->View();
        for (int q : kPagedMix) {
          s->warm[q] = AnswerOf(ValueOrDie(
              tpch::RunQuery(q, view, s->config), "warm-up query"));
        }
        return s;
      },
      &out);

  const tpch::TpchDbView view = state->pdb->View();
  const size_t offset = CycleOffset(seed, 0, kPagedMix.size());
  out.windows = RunWindows(opt, tracer, [&](const WindowSpec& spec) {
    return RunSingleClient(kPagedMix, offset, view, state->config, spec);
  });
  out.peak_rss_mb = PeakRssMb();
  out.enclave_heap_peak_mb = state->heap_peak->Stop();

  const storage::BufferManagerStats bs = state->bm->stats();
  out.facts
      .Add("pool_bytes",
           static_cast<double>(state->bm->config().buffer_bytes))
      .Add("dataset_bytes", static_cast<double>(state->dataset_bytes))
      .Add("compression_ratio", bs.CompressionRatio());
  const std::map<int, Answer> warm = state->warm;
  state.reset();

  // Expected answers: the same queries over the resident tables of the
  // same seed, regenerated after the timed window.
  ScopedSpan check(tracer, "check");
  EnclavePtr enclave = CreateEnclave(tracer);
  std::map<int, Answer> expected;
  {
    tpch::TpchDb db =
        GenerateDb(seed, mem::ForEnclave(enclave.get()), tracer, nullptr);
    const tpch::QueryConfig config = EnclaveQueryConfig(enclave.get());
    for (int q : kPagedMix) {
      expected[q] = AnswerOf(
          ValueOrDie(tpch::RunQuery(q, db, config), "resident query"));
    }
  }
  for (int q : kPagedMix) {
    out.checks.Add(warm.at(q) == expected.at(q),
                   "paged warm-up Q" + std::to_string(q) +
                       " differs from resident");
  }
  CheckAnswers(expected, &out.windows);
  return out;
}

// --- htap_serve -------------------------------------------------------------

struct HtapState {
  EnclavePtr enclave;  // destroyed last
  std::unique_ptr<HeapPeakSampler> heap_peak;
  tpch::TpchDb db;
  std::unique_ptr<txn::VersionedTpchDb> vdb;
  std::unique_ptr<serve::QueryServer> server;
  tpch::QueryConfig config;
};

/// The writer's deterministic update stream: Zipf rows (scrambled across
/// chunks), columns rotating per op, values from the column's domain.
class UpdateStream {
 public:
  UpdateStream(uint64_t seed, const txn::VersionedTpchDb& vdb)
      : key_space_(std::max<uint64_t>(
            1, std::max(vdb.lineitem_rows(), vdb.orders_rows()))),
        zipf_(key_space_, kWriterZipfTheta, seed ^ 0x7a1f),
        rng_(seed ^ 0x5eed),
        vdb_(vdb) {}

  std::vector<txn::UpdateOp> NextBatch() {
    std::vector<txn::UpdateOp> ops(kBatchRows);
    for (txn::UpdateOp& op : ops) {
      op.column = static_cast<txn::UpdateColumn>(next_op_++ %
                                                 txn::kNumUpdateColumns);
      op.row = (zipf_.Next() * 0x9e3779b97f4a7c15ull) % key_space_ %
               vdb_.RowsFor(op.column);
      switch (op.column) {
        case txn::UpdateColumn::kLQuantity:
          op.value = 1 + static_cast<uint32_t>(rng_.NextBounded(50));
          break;
        case txn::UpdateColumn::kLExtendedPrice:
          op.value = 100 + static_cast<uint32_t>(rng_.NextBounded(10000000));
          break;
        case txn::UpdateColumn::kLDiscount:
          op.value = static_cast<uint32_t>(rng_.NextBounded(11));
          break;
        case txn::UpdateColumn::kOOrderDate:
          op.value = static_cast<uint32_t>(
              rng_.NextBounded(tpch::kDate19980802 + 1));
          break;
      }
    }
    return ops;
  }

 private:
  uint64_t key_space_;
  ZipfGenerator zipf_;
  Xoshiro256 rng_;
  const txn::VersionedTpchDb& vdb_;
  uint64_t next_op_ = 0;
};

std::string ResponseTraced(const serve::QueryResponse& resp,
                           const std::string& plan) {
  JsonObject t;
  t.Add("queue_ns", resp.queue_ns)
      .Add("exec_ns", resp.exec_ns)
      .Add("granted_threads", resp.granted_threads)
      .Raw("report", resp.result.report.ToJson());
  if (!plan.empty()) t.Raw("plan", plan);
  return t.Done();
}

/// One HTAP window: kHtapClients closed-loop query clients plus the
/// paced writer, all through the server. Acknowledged batches are
/// appended to `acked` in commit order.
Window RunHtapWindow(HtapState* s, uint64_t seed, const WindowSpec& spec,
                     UpdateStream* stream, std::vector<txn::UpdateOp>* acked) {
  Tracer* tracer = spec.tracer;
  const bool traced = tracer->enabled();
  ScopedSpan window(tracer, "window");
  Window w;
  w.traced = traced;
  const txn::TxnStats txn_before = s->vdb->stats();
  const serve::ServerStats srv_before = s->server->stats();
  WindowClock clock(spec);
  std::atomic<size_t> completed{0};
  std::atomic<bool> stop{false};
  std::atomic<int64_t> request_ids{0};

  std::vector<std::vector<Request>> per_client(kHtapClients);
  std::vector<int64_t> finished_ns(kHtapClients, 0);
  std::vector<std::thread> clients;
  for (int c = 0; c < kHtapClients; ++c) {
    clients.emplace_back([&, c] {
      const size_t offset = CycleOffset(seed, c, kHtapMix.size());
      for (size_t i = 0; !stop.load(); ++i) {
        Request req;
        req.client = c;
        req.query = kHtapMix[(offset + i) % kHtapMix.size()];
        const int64_t id = request_ids.fetch_add(1);
        std::string decide;
        if (traced) {
          decide = DecideTraced(tracer, req.query, s->vdb->base(), s->config,
                                id, window.id());
        }
        serve::QueryRequest qr;
        qr.query_number = req.query;
        qr.config = s->config;
        const int span =
            tracer->Begin("serve::QueryServer::Submit", id, window.id());
        req.start_ns = NowNs();
        serve::QueryResponse resp = s->server->Submit(std::move(qr)).get();
        req.latency_ns = static_cast<double>(NowNs() - req.start_ns);
        req.ok = resp.status.ok();
        tracer->End(span, req.ok ? resp.result.report.ToJson() : "");
        if (req.ok) req.answer = AnswerOf(resp.result);
        if (traced && req.ok) req.detail = ResponseTraced(resp, decide);
        per_client[c].push_back(std::move(req));
        completed.fetch_add(1);
      }
      finished_ns[c] = NowNs();
    });
  }

  std::vector<Request> batches;
  uint64_t retired_pending_max = 0;
  std::thread writer([&] {
    const int64_t period_ns = static_cast<int64_t>(1e9 / kBatchesPerSec);
    const int64_t t0 = clock.start_ns();
    for (int64_t i = 0; !stop.load(); ++i) {
      const int64_t due = t0 + i * period_ns;
      while (NowNs() < due && !stop.load()) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(
            std::min<int64_t>(due - NowNs(), 1000000)));
      }
      if (stop.load()) break;
      std::vector<txn::UpdateOp> ops = stream->NextBatch();
      serve::QueryRequest qr;
      qr.updates = ops;
      qr.config = s->config;
      Request req;
      req.kind = 'u';
      const int64_t id = request_ids.fetch_add(1);
      const int span =
          tracer->Begin("serve::QueryServer::Submit", id, window.id());
      req.start_ns = NowNs();
      serve::QueryResponse resp = s->server->Submit(std::move(qr)).get();
      const int64_t done = NowNs();
      req.latency_ns = static_cast<double>(done - due);
      req.ok = resp.status.ok() && resp.result.count == ops.size();
      req.answer.count = resp.result.count;
      tracer->End(span,
                  resp.status.ok() ? resp.result.report.ToJson() : "");
      if (req.ok) acked->insert(acked->end(), ops.begin(), ops.end());
      if (traced) {
        const uint64_t pending = s->vdb->stats().retired_pending;
        retired_pending_max = std::max(retired_pending_max, pending);
        JsonObject t;
        t.Add("late_ns", static_cast<double>(req.start_ns - due))
            .Add("queue_ns", resp.queue_ns)
            .Add("exec_ns", resp.exec_ns)
            .Raw("report", resp.result.report.ToJson());
        req.detail = t.Done();
      } else {
        req.detail = "{\"late_ns\":" +
                     Num(static_cast<double>(req.start_ns - due)) + "}";
      }
      batches.push_back(std::move(req));
    }
  });

  while (!clock.Expired(completed.load())) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const int64_t stop_ns = NowNs();
  stop.store(true);
  for (std::thread& t : clients) t.join();
  writer.join();

  const int64_t last =
      *std::max_element(finished_ns.begin(), finished_ns.end());
  w.elapsed_s = (last - clock.start_ns()) * 1e-9;
  for (auto& reqs : per_client) {
    for (Request& r : reqs) w.requests.push_back(std::move(r));
  }
  for (Request& r : batches) w.requests.push_back(std::move(r));

  const txn::TxnStats txn_after = s->vdb->stats();
  const serve::ServerStats srv_after = s->server->stats();
  JsonObject extra;
  extra.Add("writer_window_s", (stop_ns - clock.start_ns()) * 1e-9)
      .Add("versions_created", static_cast<double>(
                                   txn_after.versions_created -
                                   txn_before.versions_created))
      .Add("cow_bytes",
           static_cast<double>(txn_after.cow_bytes - txn_before.cow_bytes))
      .Add("retired_pending_max", static_cast<double>(retired_pending_max))
      .Add("rejected", static_cast<double>(
                           srv_after.rejected_queue_full +
                           srv_after.rejected_deadline -
                           srv_before.rejected_queue_full -
                           srv_before.rejected_deadline));
  w.extra = extra.Done();
  return w;
}

Outcome RunHtap(const Options& opt, Tracer* tracer) {
  const uint64_t seed = opt.seed;
  Outcome out;
  auto state = TimedSetup(
      tracer,
      [&] {
        auto s = std::make_unique<HtapState>();
        s->enclave = CreateEnclave(tracer);
        s->heap_peak = std::make_unique<HeapPeakSampler>(s->enclave.get());
        mem::MemoryResource* trusted = mem::ForEnclave(s->enclave.get());
        s->db = GenerateDb(seed, trusted, tracer, &out.generate_s);
        txn::TxnOptions txn_options;
        txn_options.resource = trusted;
        {
          ScopedSpan span(tracer, "txn::VersionedTpchDb");
          s->vdb = std::make_unique<txn::VersionedTpchDb>(s->db, txn_options);
        }
        {
          ScopedSpan span(tracer, "serve::QueryServer");
          s->server = std::make_unique<serve::QueryServer>(
              *s->vdb, serve::ServerOptions{});
        }
        s->config = EnclaveQueryConfig(s->enclave.get());
        ScopedSpan warm(tracer, "warmup");
        for (int q : kHtapMix) {
          serve::QueryRequest qr;
          qr.query_number = q;
          qr.config = s->config;
          const serve::QueryResponse resp = s->server->Submit(qr).get();
          if (!resp.status.ok()) {
            Die("warm-up query: " + resp.status.ToString());
          }
        }
        return s;
      },
      &out);

  UpdateStream stream(seed, *state->vdb);
  std::vector<txn::UpdateOp> acked;
  out.windows = RunWindows(opt, tracer, [&](const WindowSpec& spec) {
    return RunHtapWindow(state.get(), seed, spec, &stream, &acked);
  });
  out.peak_rss_mb = PeakRssMb();
  out.enclave_heap_peak_mb = state->heap_peak->Stop();

  // Snapshot answers during the window have no fixed expectation: a query
  // is correct when it succeeds, a batch when every row committed.
  for (Window& w : out.windows) {
    for (Request& r : w.requests) r.correct = r.ok;
  }
  Checks& v = out.checks;

  // After the writer stopped: each query over a fresh snapshot must equal
  // the same query over a private copy of the base tables with every
  // acknowledged batch applied in order.
  const tpch::TpchDb& db = state->db;
  std::vector<uint32_t> quantity(db.lineitem.l_quantity.data(),
                                 db.lineitem.l_quantity.data() +
                                     db.lineitem.num_rows);
  std::vector<uint32_t> price(db.lineitem.l_extendedprice.data(),
                              db.lineitem.l_extendedprice.data() +
                                  db.lineitem.num_rows);
  std::vector<uint32_t> discount(db.lineitem.l_discount.data(),
                                 db.lineitem.l_discount.data() +
                                     db.lineitem.num_rows);
  std::vector<uint32_t> orderdate(db.orders.o_orderdate.data(),
                                  db.orders.o_orderdate.data() +
                                      db.orders.num_rows);
  for (const txn::UpdateOp& op : acked) {
    switch (op.column) {
      case txn::UpdateColumn::kLQuantity: quantity[op.row] = op.value; break;
      case txn::UpdateColumn::kLExtendedPrice: price[op.row] = op.value; break;
      case txn::UpdateColumn::kLDiscount: discount[op.row] = op.value; break;
      case txn::UpdateColumn::kOOrderDate: orderdate[op.row] = op.value; break;
    }
  }
  tpch::TpchDbView copy = tpch::ViewOf(db);
  copy.lineitem.l_quantity = {quantity.data(), quantity.size()};
  copy.lineitem.l_extendedprice = {price.data(), price.size()};
  copy.lineitem.l_discount = {discount.data(), discount.size()};
  copy.orders.o_orderdate = {orderdate.data(), orderdate.size()};
  for (int q : kHtapMix) {
    serve::QueryRequest qr;
    qr.query_number = q;
    qr.config = state->config;
    const serve::QueryResponse resp = state->server->Submit(qr).get();
    Result<tpch::QueryResult> expected =
        tpch::RunQuery(q, copy, state->config);
    v.Add(resp.status.ok() && expected.ok() &&
              AnswerOf(resp.result) == AnswerOf(expected.value()),
          "Q" + std::to_string(q) +
              " over the final snapshot differs from the private copy");
  }

  state->server->Shutdown();
  const Status drained = state->vdb->Drain();
  v.Add(drained.ok(), "retire list did not drain: " + drained.ToString());
  const txn::TxnStats ts = state->vdb->stats();
  out.facts.Add("write_rows_per_s", kBatchesPerSec * kBatchRows)
      .Add("versions_created", static_cast<double>(ts.versions_created))
      .Add("versions_reclaimed", static_cast<double>(ts.versions_reclaimed))
      .Add("acked_rows", static_cast<double>(acked.size()));
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else if (flag == "--min-queries") {
      opt.min_queries = std::strtoull(value, nullptr, 10);
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (opt.workload.empty() || !(opt.seconds > 0) ||
      (trace != 0 && trace != 1)) {
    Die("usage: --workload W --seed N --seconds S --trace 0|1 "
        "--min-queries Q");
  }
  opt.trace = trace == 1;

  Tracer tracer(opt.trace);
  Outcome out;
  if (opt.workload == "olap_resident") {
    out = RunResident(opt, &tracer);
  } else if (opt.workload == "olap_paged") {
    out = RunPaged(opt, &tracer);
  } else if (opt.workload == "htap_serve") {
    out = RunHtap(opt, &tracer);
  } else {
    Die("unknown workload " + opt.workload);
  }

  out.facts.Add("nproc", exec::Executor::DefaultParallelism())
      .Add("scale_factor", kScaleFactor)
      .Add("enclave_heap_bytes", static_cast<double>(kEnclaveHeapBytes));
  JsonObject doc;
  doc.Str("workload", opt.workload)
      .Add("seed", static_cast<double>(opt.seed))
      .Raw("facts", out.facts.Done())
      .Raw("setup_s", NumArray(out.setup_s))
      .Raw("generate_s", NumArray(out.generate_s))
      .Raw("build_s", NumArray(out.build_s))
      .Add("peak_rss_mb", out.peak_rss_mb)
      .Add("enclave_heap_peak_mb", out.enclave_heap_peak_mb)
      .Raw("checks", JsonArray(out.checks.items, [](const auto& c) {
             return "{\"what\":" + Quote(c.first) +
                    ",\"ok\":" + (c.second ? "1" : "0") + "}";
           }))
      .Raw("windows", JsonArray(out.windows, WindowJson))
      .Raw("spans", tracer.ToJson());
  std::printf("%s\n", doc.Done().c_str());
  return 0;
}
