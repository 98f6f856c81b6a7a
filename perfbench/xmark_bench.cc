// The eXrQuy XMark benchmark (perfbench/README.md): one workload per run,
// selected by --workload, with inputs made from --seed.
//
//   xmark_bench --workload cold_adhoc|warm_mix|large_doc --seed N
//               --seconds S --trace 0|1 [--out-dir D] [--cache-dir D]
//               [--git-commit C]
//
// perfbench/run.py builds it and passes BENCHMARK.json's run length as
// --seconds.
//
// A run generates the XMark document, computes (or loads) the reference
// results, sets the workload up several times, checks every query x mode
// result against the reference and across paths and thread counts, and
// then either measures the end-to-end metrics with tracing off
// (--trace 0) or replays the same request sequence through each layer's
// public entry point with spans (--trace 1). The last stdout line is one
// JSON object: {"correct", "attempted", "failed", "metrics"}. The exit
// code is non-zero when any result is wrong or any request fails.
#include <malloc.h>
#include <sched.h>
#include <time.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/service.h"
#include "api/session.h"
#include "bench_core.h"
#include "compiler/compile.h"
#include "engine/eval.h"
#include "opt/morsel_plan.h"
#include "opt/pipeline.h"
#include "opt/verify.h"
#include "reference.h"
#include "xmark/generator.h"
#include "xmark/queries.h"
#include "xml/node_store.h"
#include "xml/xml_parser.h"
#include "xquery/normalize.h"
#include "xquery/parser.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using exrquy::QueryOptions;
using exrquy::QueryResult;
using exrquy::QueryService;
using exrquy::Result;
using exrquy::Session;

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// -- Workloads -------------------------------------------------------------

// Why each workload exists is recorded in BENCHMARK.json and README.md.
struct Workload {
  const char* name;
  double scale;
  bool service;          // QueryService with a primed plan cache; else Session
  bool concurrent;       // nproc clients and workers; else 1 client
  bool parallel_engine;  // engine at nproc threads; else 1
  int setup_reps;        // set-ups per run; setup_s is their median
};

constexpr Workload kWorkloads[] = {
    {"cold_adhoc", 0.016, false, false, false, 15},
    {"warm_mix", 0.016, true, true, false, 9},
    {"large_doc", 0.1, true, false, true, 3},
};

// Small enough that the original Q9 runs in the interpreter in ~0.2 s.
constexpr double kProbeScale = 0.004;

// Every request is one (query, ordering mode) pair.
constexpr size_t kModes = 2;
size_t PairCount() { return exrquy::XMarkQueries().size() * kModes; }
size_t QueryOf(size_t pair) { return pair / kModes; }
bool Unordered(size_t pair) { return pair % kModes == 1; }
std::string PairName(size_t pair) {
  return exrquy::XMarkQueries()[QueryOf(pair)].name +
         (Unordered(pair) ? "/unordered" : "/ordered");
}

QueryOptions Options(size_t pair, int threads) {
  QueryOptions o;
  o.default_ordering = Unordered(pair) ? exrquy::OrderingMode::kUnordered
                                       : exrquy::OrderingMode::kOrdered;
  o.num_threads = threads;
  return o;
}

int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

// -- Request order ---------------------------------------------------------

// Rounds of requests, each a seeded shuffle of every pair. Timed windows
// end on a round boundary, so every pair is sampled equally often and a
// percentile never shifts because the mix did.
class RequestSequence {
 public:
  explicit RequestSequence(uint64_t seed)
      : rng_(seed ^ 0x5851f42d4c957f2dULL) {}

  size_t At(size_t i) {
    while (order_.size() <= i) {
      std::vector<size_t> round(PairCount());
      for (size_t p = 0; p < round.size(); ++p) round[p] = p;
      std::shuffle(round.begin(), round.end(), rng_);
      order_.insert(order_.end(), round.begin(), round.end());
    }
    return order_[i];
  }

 private:
  std::mt19937_64 rng_;
  std::vector<size_t> order_;
};

// Hands request indices to closed-loop clients until `seconds` have
// passed and the current round is complete.
class Dispenser {
 public:
  Dispenser(RequestSequence* seq, double seconds)
      : seq_(seq),
        deadline_(Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(seconds))) {}

  bool Next(size_t* index, size_t* pair) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!stopped_ && next_ % PairCount() == 0 && next_ > 0 &&
        Clock::now() >= deadline_) {
      stopped_ = true;
    }
    if (stopped_) return false;
    *index = next_++;
    *pair = seq_->At(*index);
    return true;
  }

 private:
  std::mutex mu_;
  RequestSequence* seq_;  // guarded by mu_
  size_t next_ = 0;       // guarded by mu_
  bool stopped_ = false;  // guarded by mu_
  Clock::time_point deadline_;
};

// -- Results and their check -----------------------------------------------

// Counts every operation the run issued and remembers the first failure.
class Tally {
 public:
  void Attempt() { attempted_.fetch_add(1, std::memory_order_relaxed); }
  void Fail(const std::string& why) {
    failed_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mu_);
    if (first_.empty()) first_ = why;
  }
  uint64_t attempted() const { return attempted_.load(); }
  uint64_t failed() const { return failed_.load(); }
  std::string first() {
    std::lock_guard<std::mutex> lock(mu_);
    return first_;
  }

 private:
  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
  std::mutex mu_;
  std::string first_;  // guarded by mu_
};

// The accepted answer of every pair: the first reply, once it matched the
// reference. Every later reply must reproduce it byte for byte.
struct Expected {
  std::vector<std::string> serialized;
  std::vector<std::vector<std::string>> items;
};

// Checks one reply against the accepted answer of its pair.
bool CheckReply(const Result<QueryResult>& reply, size_t pair,
                const Expected& expected, const char* where, Tally* tally) {
  tally->Attempt();
  std::string why;
  if (!reply.ok()) {
    why = reply.status().ToString();
  } else {
    why = CheckBytes(expected.serialized[pair], reply->serialized);
    if (why.empty() && reply->items != expected.items[pair]) {
      why = "result items differ from the accepted answer";
    }
  }
  if (why.empty()) return true;
  tally->Fail(std::string(where) + " " + PairName(pair) + ": " + why);
  return false;
}

// -- The two request paths -------------------------------------------------

// One way of answering requests: Session::Execute, or QueryService::
// Execute with the result cache off and the plan cache on.
struct Path {
  std::unique_ptr<Session> session;
  std::unique_ptr<QueryService> service;

  Result<QueryResult> Execute(size_t pair, int threads) {
    const std::string& text = exrquy::XMarkQueries()[QueryOf(pair)].text;
    QueryOptions options = Options(pair, threads);
    if (session != nullptr) return session->Execute(text, options);
    Result<exrquy::ServiceResult> r = service->Execute(text, options);
    if (!r.ok()) return r.status();
    return std::move(r->result);
  }
};

Result<Path> MakeSessionPath(const std::string& doc) {
  Path path;
  path.session = std::make_unique<Session>();
  EXRQUY_RETURN_IF_ERROR(path.session->LoadDocument("auction.xml", doc));
  return path;
}

Result<Path> MakeServicePath(const std::string& doc, size_t workers) {
  exrquy::ServiceConfig config;
  config.workers = workers;
  config.plan_cache = 1;
  config.result_cache_bytes = 0;  // a result-cache hit bypasses every layer
  config.max_queue_depth = static_cast<int64_t>(workers);
  config.queue_timeout_ms = 0;
  config.max_retries = 1;
  Path path;
  path.service = std::make_unique<QueryService>(config);
  EXRQUY_RETURN_IF_ERROR(path.service->LoadDocument("auction.xml", doc));
  return path;
}

// -- Measurement helpers ---------------------------------------------------

double ThreadCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return ts.tv_sec * 1e3 + ts.tv_nsec / 1e6;
}

double ProcessCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return ts.tv_sec * 1e3 + ts.tv_nsec / 1e6;
}

// Resets the process's peak resident set size (VmHWM) to its current
// size; false when the kernel does not allow it.
bool ResetPeakRss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return clear.good();
}

// The peak resident set size since the last ResetPeakRss, in bytes.
size_t PeakRssBytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stoull(line.substr(6)) * 1024;
  }
  return 0;
}

// -- Output ----------------------------------------------------------------

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

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += Quote(metrics[i].name) + ": {\"value\": " + Num(metrics[i].value) +
           ", \"unit\": " + Quote(metrics[i].unit) + "}";
  }
  return out + "}";
}

// -- Tracing ---------------------------------------------------------------

struct Span {
  const char* name;
  uint64_t request;
  uint32_t id;
  uint32_t parent;  // 0 = root
  double start_ms;  // since the tracer was created
  double end_ms;
  double thread_cpu_ms;
  double process_cpu_ms;
};

// Spans stay in memory until the run writes them out.
class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  uint32_t Begin(const char* name, uint64_t request, uint32_t parent) {
    Span s{name, request, static_cast<uint32_t>(spans_.size() + 1), parent,
           MsBetween(origin_, Clock::now()), 0, ThreadCpuMs(), ProcessCpuMs()};
    spans_.push_back(s);
    return s.id;
  }

  // Closes span `id` and returns its wall time in ms.
  double End(uint32_t id) {
    Span& s = spans_[id - 1];
    s.end_ms = MsBetween(origin_, Clock::now());
    s.thread_cpu_ms = ThreadCpuMs() - s.thread_cpu_ms;
    s.process_cpu_ms = ProcessCpuMs() - s.process_cpu_ms;
    return s.end_ms - s.start_ms;
  }

  const Span& span(uint32_t id) const { return spans_[id - 1]; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// Per-request quantities of the traced run; every per-layer metric is a
// per-row median of one of these or derived from them.
enum Field {
  kParse,
  kNormalize,
  kCompile,
  kCompilerOps,
  kVerifyCompiled,
  kOptimize,
  kVerifyOptimized,
  kRewrites,
  kCertsRejected,
  kOptOps,
  kRownumOps,
  kPhysplan,
  kPipelines,
  kUnits,
  kEvalSelf,  // Evaluator::Eval minus the physical re-planning it repeats
  kEvalCpu,
  kResultRows,
  kEvalSerial,    // Eval wall time at 1 engine thread
  kEvalParallel,  // Eval wall time at nproc engine threads
  kSerialize,
  kSerializeBytes,
  kTraced,            // the traced request's root span
  kSessionExecute,    // untraced Session::Execute
  kServiceExecute,    // untraced QueryService::Execute (plan-cache hit)
  kFieldCount
};

using Sample = std::vector<double>;  // indexed by Field

// Releases what an evaluation constructed in a Session's store and pool,
// like Session::Execute does on return.
class StoreRollback {
 public:
  explicit StoreRollback(Session* s)
      : session_(s),
        nodes_(s->store().node_count()),
        fragments_(s->store().fragment_count()),
        strings_(s->strings().size()) {}
  ~StoreRollback() {
    session_->store().TruncateTo(nodes_, fragments_);
    session_->strings().TruncateTo(strings_);
  }
  StoreRollback(const StoreRollback&) = delete;
  StoreRollback& operator=(const StoreRollback&) = delete;

 private:
  Session* session_;
  size_t nodes_;
  size_t fragments_;
  size_t strings_;
};

// Runs one request through each layer's public function, the way
// PlanQuery, Session::Execute and QueryService::Execute chain them, with
// a span around every call. With `planning_in_request` the planning spans
// belong to the request (Session path); otherwise they form a separate
// plan_replay root, the work a plan-cache hit skips (QueryService path).
// A last Eval at the other engine thread count measures engine.speedup
// and checks that the bytes do not depend on the thread count.
exrquy::Status TraceRequest(Tracer* tr, Session* session, uint64_t req,
                            size_t pair, int threads, int other_threads,
                            bool planning_in_request, const Expected& expected,
                            Tally* tally, Sample* out) {
  Sample& f = *out;
  f.assign(kFieldCount, 0);
  const std::string& text = exrquy::XMarkQueries()[QueryOf(pair)].text;
  QueryOptions options = Options(pair, threads);
  StoreRollback rollback(session);

  uint32_t root =
      tr->Begin(planning_in_request ? "request" : "plan_replay", req, 0);
  uint32_t s = tr->Begin("xquery.parse", req, root);
  Result<exrquy::Query> parsed = exrquy::ParseQuery(text);
  f[kParse] = tr->End(s);
  EXRQUY_RETURN_IF_ERROR(parsed.status());

  s = tr->Begin("xquery.normalize", req, root);
  // The option mapping is PlanQuery's (api/session.cc).
  const bool exploit = options.enable_order_indifference;
  exrquy::NormalizeOptions norm;
  norm.insert_unordered = exploit && options.insert_unordered;
  exrquy::Status st = exrquy::Normalize(&*parsed, norm);
  f[kNormalize] = tr->End(s);
  EXRQUY_RETURN_IF_ERROR(st);

  s = tr->Begin("compiler.compile", req, root);
  exrquy::CompileOptions copts;
  copts.default_mode = options.default_ordering;
  copts.exploit_unordered = exploit && options.mode_rules;
  Result<exrquy::CompiledQuery> compiled =
      exrquy::CompileQuery(*parsed, &session->strings(), copts);
  f[kCompile] = tr->End(s);
  EXRQUY_RETURN_IF_ERROR(compiled.status());
  exrquy::Dag& dag = *compiled->dag;
  f[kCompilerOps] = exrquy::CollectPlanStats(dag, compiled->root).total_ops;

  s = tr->Begin("opt.verify_compiled", req, root);
  st = exrquy::VerifyPlan(dag, compiled->root);
  f[kVerifyCompiled] = tr->End(s);
  EXRQUY_RETURN_IF_ERROR(st);

  s = tr->Begin("opt.optimize", req, root);
  std::vector<exrquy::RewriteTrade> trades;
  exrquy::OptimizeOptions oopts;
  oopts.enable = exploit;
  oopts.rewrites.column_pruning = options.column_pruning;
  oopts.rewrites.weaken_rownum = options.weaken_rownum;
  oopts.rewrites.distinct_elimination = options.distinct_elimination;
  oopts.rewrites.step_merging = options.step_merging;
  oopts.rewrites.distinct_by_keys = options.distinct_by_keys;
  oopts.rewrites.empty_short_circuit = options.empty_short_circuit;
  oopts.rewrites.rownum_by_keys = options.rownum_by_keys;
  oopts.rewrites.rownum_by_od = options.rownum_by_od;
  oopts.rewrites.join_recognition = options.join_recognition;
  oopts.rewrites.theta_join = options.theta_join;
  oopts.rewrites.certify = options.certify;
  oopts.verify_each_pass = options.verify_each_pass;
  oopts.strings = &session->strings();
  oopts.trade_log = &trades;
  Result<exrquy::OpId> optimized =
      exrquy::Optimize(&dag, compiled->root, oopts);
  f[kOptimize] = tr->End(s);
  EXRQUY_RETURN_IF_ERROR(optimized.status());
  exrquy::OpId plan = *optimized;
  exrquy::PlanStats stats = exrquy::CollectPlanStats(dag, plan);
  f[kRewrites] = trades.size();
  for (const exrquy::RewriteTrade& t : trades) {
    if (t.checked && !t.valid) f[kCertsRejected] += 1;
  }
  f[kOptOps] = stats.total_ops;
  f[kRownumOps] = stats.rownum_ops;

  s = tr->Begin("opt.verify_optimized", req, root);
  st = exrquy::VerifyPlan(dag, plan);
  f[kVerifyOptimized] = tr->End(s);
  EXRQUY_RETURN_IF_ERROR(st);

  if (!planning_in_request) {
    tr->End(root);
    root = tr->Begin("request", req, 0);
  }

  // What every Evaluator::Eval repeats before running an operator.
  s = tr->Begin("physplan", req, root);
  exrquy::VerifyOptions guard;
  guard.check_properties = false;
  st = exrquy::VerifyPlan(dag, plan, guard);
  std::vector<exrquy::OpId> order = dag.ReachableFrom(plan);
  exrquy::MorselPlan mplan = exrquy::PlanPipelines(dag, order, plan);
  if (st.ok()) st = exrquy::AuditMorselPlan(dag, order, plan, mplan);
  f[kPhysplan] = tr->End(s);
  EXRQUY_RETURN_IF_ERROR(st);
  f[kPipelines] = mplan.pipelines.size();
  for (exrquy::OpId id : order) f[kUnits] += mplan.fused(id) ? 0 : 1;
  f[kUnits] += mplan.pipelines.size();

  auto eval = [&](int eval_threads, const char* name, uint32_t parent,
                  std::string* serialized,
                  std::vector<std::string>* items) -> exrquy::Status {
    exrquy::EvalContext ctx;
    ctx.store = &session->store();
    ctx.strings = &session->strings();
    ctx.documents = session->documents();
    ctx.num_threads = eval_threads;
    uint32_t e = tr->Begin(name, req, parent);
    Result<exrquy::TablePtr> table = exrquy::Evaluator(dag, &ctx).Eval(plan);
    double ms = tr->End(e);
    EXRQUY_RETURN_IF_ERROR(table.status());
    (eval_threads == 1 ? f[kEvalSerial] : f[kEvalParallel]) = ms;
    if (eval_threads == threads) {
      f[kEvalSelf] = std::max(0.0, ms - f[kPhysplan]);
      f[kEvalCpu] = tr->span(e).process_cpu_ms;
      f[kResultRows] = (*table)->rows();
    }
    uint32_t r = tr->Begin("serialize", req, parent);
    Result<std::string> bytes = exrquy::SerializeResult(**table, ctx);
    Result<std::vector<std::string>> rendered =
        exrquy::ResultItems(**table, ctx);
    double render_ms = tr->End(r);
    EXRQUY_RETURN_IF_ERROR(bytes.status());
    EXRQUY_RETURN_IF_ERROR(rendered.status());
    if (eval_threads == threads) {
      f[kSerialize] = render_ms;
      f[kSerializeBytes] = bytes->size();
    }
    *serialized = std::move(bytes).value();
    *items = std::move(rendered).value();
    return exrquy::Status::Ok();
  };

  QueryResult reply;
  {
    StoreRollback eval_rollback(session);
    EXRQUY_RETURN_IF_ERROR(
        eval(threads, "engine.eval", root, &reply.serialized, &reply.items));
  }
  f[kTraced] = tr->End(root);
  CheckReply(reply, pair, expected, "traced replay", tally);

  uint32_t probe = tr->Begin("speedup_probe", req, 0);
  EXRQUY_RETURN_IF_ERROR(eval(other_threads, "engine.eval", probe,
                              &reply.serialized, &reply.items));
  tr->End(probe);
  CheckReply(reply, pair, expected, "other thread count", tally);
  return exrquy::Status::Ok();
}

// Per-layer self time: each span's duration minus what its children
// cover, summed by span name.
std::map<std::string, double> SelfTimes(const std::vector<Span>& spans) {
  std::vector<double> child_ms(spans.size() + 1, 0);
  for (const Span& s : spans) {
    if (s.parent != 0) child_ms[s.parent] += s.end_ms - s.start_ms;
  }
  std::map<std::string, double> self;
  for (const Span& s : spans) {
    self[s.name] += s.end_ms - s.start_ms - child_ms[s.id];
  }
  return self;
}

// -- The run ---------------------------------------------------------------

struct Args {
  const Workload* workload = nullptr;
  uint64_t seed = 1;
  double seconds = 0;  // required
  bool trace = false;
  std::string out_dir = ".bench_build/out";
  std::string cache_dir = ".bench_build/refcache";
  std::string git_commit = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (value == w.name) args->workload = &w;
      }
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args->seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else if (flag == "--cache-dir") {
      args->cache_dir = value;
    } else if (flag == "--git-commit") {
      args->git_commit = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && args->workload != nullptr && args->seconds > 0;
}

class Run {
 public:
  explicit Run(const Args& args)
      : args_(args),
        w_(*args.workload),
        nproc_(Nproc()),
        threads_(w_.parallel_engine ? nproc_ : 1),
        other_threads_(w_.parallel_engine ? 1 : nproc_),
        clients_(w_.concurrent ? nproc_ : 1),
        seq_(args.seed) {}

  int Main();

 private:
  exrquy::Status Prepare();
  exrquy::Status SetUp();
  exrquy::Status CrossCheck();
  exrquy::Status Timed();
  exrquy::Status Traced();
  void Info(const std::string& key, const std::string& json_value) {
    info_.emplace_back(key, json_value);
    std::printf("info %s = %s\n", key.c_str(), json_value.c_str());
  }
  void Emit(const Metric& m) {
    metrics_.push_back(m);
    std::printf("metric %s = %s %s\n", m.name.c_str(), Num(m.value).c_str(),
                m.unit.c_str());
  }

  Args args_;
  const Workload& w_;
  int nproc_;
  int threads_;
  int other_threads_;
  int clients_;
  RequestSequence seq_;
  std::string doc_;
  ReferenceItems reference_;
  Expected expected_;
  Path primary_;  // the workload's path
  Path other_;    // the other path, for the cross-check and the trace
  Tally tally_;
  std::vector<std::pair<std::string, std::string>> info_;
  std::vector<Metric> metrics_;
  double setup_s_ = 0;
  std::string rows_json_;   // per-row figures, for the run record
  std::string trace_json_;  // self times and spans of a traced run
};

exrquy::Status Run::Prepare() {
  Info("workload", Quote(w_.name));
  Info("xmark_seed", Num(args_.seed));
  Info("order_seed", Num(args_.seed));
  Info("scale", Num(w_.scale));
  Info("hardware_concurrency", Num(std::thread::hardware_concurrency()));
  Info("nproc", Num(nproc_));
  Info("engine_threads", Num(threads_));
  Info("clients", Num(clients_));
  Info("path", Quote(w_.service ? "QueryService" : "Session"));
  Info("build_type", Quote(PERFBENCH_BUILD_TYPE));
#ifdef __clang__
  Info("compiler", Quote(__VERSION__));
#else
  Info("compiler", Quote("gcc " __VERSION__));
#endif
  Info("git_commit", Quote(args_.git_commit));

  exrquy::XMarkOptions xo;
  xo.scale = w_.scale;
  xo.seed = args_.seed;
  doc_ = exrquy::GenerateXMark(xo);
  xo.scale = kProbeScale;
  std::string probe = exrquy::GenerateXMark(xo);
  Info("doc_bytes", Num(doc_.size()));

  Clock::time_point t0 = Clock::now();
  bool cached = false;
  EXRQUY_RETURN_IF_ERROR(ComputeReference(doc_, probe, args_.cache_dir,
                                          nproc_, &reference_, &cached));
  Info("reference_s", Num(MsBetween(t0, Clock::now()) / 1e3));
  Info("reference_cached", cached ? "true" : "false");
  return exrquy::Status::Ok();
}

// Sets the workload up setup_reps times; the last set-up is kept. The
// first replies (priming, or a check pass for the Session path) must
// match the reference; every later repetition must match them byte for
// byte.
exrquy::Status Run::SetUp() {
  const size_t pairs = PairCount();
  std::vector<double> setup_ms;
  for (int rep = 0; rep < w_.setup_reps; ++rep) {
    primary_ = Path();
    malloc_trim(0);
    std::vector<Result<QueryResult>> replies;
    Clock::time_point t0 = Clock::now();
    Result<Path> path = w_.service ? MakeServicePath(doc_, clients_)
                                   : MakeSessionPath(doc_);
    EXRQUY_RETURN_IF_ERROR(path.status());
    if (w_.service) {
      for (size_t p = 0; p < pairs; ++p) {
        replies.push_back(path->Execute(p, threads_));
      }
    }
    setup_ms.push_back(MsBetween(t0, Clock::now()));
    primary_ = std::move(path).value();
    // The Session path has nothing to prime: check it once, at the end.
    if (!w_.service && rep + 1 == w_.setup_reps) {
      for (size_t p = 0; p < pairs; ++p) {
        replies.push_back(primary_.Execute(p, threads_));
      }
    }
    for (size_t p = 0; p < replies.size(); ++p) {
      if (expected_.serialized.size() == pairs) {
        CheckReply(replies[p], p, expected_, "set-up repetition", &tally_);
        continue;
      }
      tally_.Attempt();
      if (!replies[p].ok()) {
        tally_.Fail("first reply " + PairName(p) + ": " +
                    replies[p].status().ToString());
        expected_.serialized.emplace_back();
        expected_.items.emplace_back();
        continue;
      }
      // Q10's distinct-values order ties are free even in ordered mode.
      bool exact = !Unordered(p) &&
                   exrquy::XMarkQueries()[QueryOf(p)].name != "Q10";
      std::string why =
          CheckItems(reference_[QueryOf(p)], replies[p]->items, exact);
      if (!why.empty()) {
        tally_.Fail("reference check " + PairName(p) + ": " + why);
      }
      expected_.serialized.push_back(std::move(replies[p]->serialized));
      expected_.items.push_back(std::move(replies[p]->items));
    }
  }
  setup_s_ = Median(setup_ms) / 1e3;
  std::string reps = "[";
  for (double ms : setup_ms) {
    reps += (reps.size() > 1 ? ", " : "") + Num(ms / 1e3);
  }
  Info("setup_reps_s", reps + "]");
  return exrquy::Status::Ok();
}

// The other path at the other engine thread count must reproduce every
// accepted answer byte for byte.
exrquy::Status Run::CrossCheck() {
  Result<Path> other =
      w_.service ? MakeSessionPath(doc_) : MakeServicePath(doc_, 1);
  EXRQUY_RETURN_IF_ERROR(other.status());
  other_ = std::move(other).value();
  for (size_t p = 0; p < PairCount(); ++p) {
    CheckReply(other_.Execute(p, other_threads_), p, expected_, "other path",
               &tally_);
  }
  return exrquy::Status::Ok();
}

// The end-to-end measurement: closed-loop clients, tracing off, every
// Execute timed with steady_clock around the call. Every metric covers
// the whole window, which closes on a round boundary, so every pair is
// sampled equally often.
exrquy::Status Run::Timed() {
  // Only the accepted answers are needed from here on.
  other_ = Path();
  reference_ = ReferenceItems();
  std::string().swap(doc_);
  malloc_trim(0);
  const size_t pairs = PairCount();
  std::vector<std::vector<double>> by_pair(pairs);  // latencies, ms
  std::mutex by_pair_mu;
  std::atomic<uint64_t> failed{0};
  if (!ResetPeakRss()) {
    return exrquy::Internal(
        "cannot reset the peak RSS through /proc/self/clear_refs");
  }
  Dispenser dispenser(&seq_, args_.seconds);
  Clock::time_point start = Clock::now();
  auto client = [&] {
    std::vector<std::pair<size_t, double>> done;
    size_t index = 0;
    size_t pair = 0;
    while (dispenser.Next(&index, &pair)) {
      Clock::time_point t0 = Clock::now();
      Result<QueryResult> reply = primary_.Execute(pair, threads_);
      double ms = MsBetween(t0, Clock::now());
      if (CheckReply(reply, pair, expected_, "timed request", &tally_)) {
        done.emplace_back(pair, ms);
      } else {
        failed.fetch_add(1);
      }
    }
    std::lock_guard<std::mutex> lock(by_pair_mu);
    for (const auto& [p, ms] : done) by_pair[p].push_back(ms);
  };
  std::vector<std::thread> threads;
  for (int c = 1; c < clients_; ++c) threads.emplace_back(client);
  client();
  for (std::thread& t : threads) t.join();
  double window_s = MsBetween(start, Clock::now()) / 1e3;
  double peak_mb = PeakRssBytes() / (1024.0 * 1024.0);

  std::vector<double> all;
  std::vector<double> pair_medians;
  for (const auto& samples : by_pair) {
    all.insert(all.end(), samples.begin(), samples.end());
    if (!samples.empty()) pair_medians.push_back(Median(samples));
  }
  double tail_p = TailPercentile(all.size());
  size_t attempted = all.size() + failed.load();

  Emit({"throughput_qps", all.size() / window_s, "1/s"});
  Emit({"latency_p50_ms", Median(all), "ms"});
  Emit({"query_geomean_ms", GeoMean(pair_medians), "ms"});
  Emit({"peak_rss_mb", peak_mb, "MB"});
  Emit({"setup_s", setup_s_, "s"});
  // Reported but not a gated metric: its percentile moves with the sample
  // count, so with the program's speed (README.md, "Host noise").
  Info("latency_tail_ms", Num(Percentile(all, tail_p)));
  Info("latency_tail_percentile", Num(tail_p));
  Info("latency_samples", Num(all.size()));
  Info("timed_window_s", Num(window_s));
  Info("failed_share",
       Num(attempted == 0 ? 0.0 : static_cast<double>(failed) / attempted));

  rows_json_ = "[";
  for (size_t p = 0; p < pairs; ++p) {
    if (p > 0) rows_json_ += ", ";
    rows_json_ += "{\"pair\": " + Quote(PairName(p)) +
                  ", \"samples\": " + Num(by_pair[p].size()) +
                  ", \"latency_median_ms\": " + Num(Median(by_pair[p])) + "}";
  }
  rows_json_ += "]";
  return exrquy::Status::Ok();
}

// The layers Session::Execute chains, and the subset a plan-cache hit in
// QueryService::Execute runs.
double ServiceLayers(const Sample& s) {
  return s[kPhysplan] + s[kEvalSelf] + s[kSerialize];
}
double SessionLayers(const Sample& s) {
  return s[kParse] + s[kNormalize] + s[kCompile] + s[kVerifyCompiled] +
         s[kOptimize] + s[kVerifyOptimized] + ServiceLayers(s);
}

// The per-layer metrics of one row (or, summed, of the workload) from
// per-request medians.
std::vector<Metric> LayerMetrics(const Sample& s) {
  return {
      {"xquery.parse_ms", s[kParse], "ms"},
      {"xquery.normalize_ms", s[kNormalize], "ms"},
      {"compiler.compile_ms", s[kCompile], "ms"},
      {"compiler.ops", s[kCompilerOps], "count"},
      {"opt.verify_compiled_ms", s[kVerifyCompiled], "ms"},
      {"opt.optimize_ms", s[kOptimize], "ms"},
      {"opt.verify_optimized_ms", s[kVerifyOptimized], "ms"},
      {"opt.rewrites", s[kRewrites], "count"},
      {"opt.certs_rejected", s[kCertsRejected], "count"},
      {"opt.ops", s[kOptOps], "count"},
      {"opt.rownum_ops", s[kRownumOps], "count"},
      {"physplan.ms", s[kPhysplan], "ms"},
      {"physplan.pipelines", s[kPipelines], "count"},
      {"physplan.units", s[kUnits], "count"},
      {"engine.eval_ms", s[kEvalSelf], "ms"},
      {"engine.eval_cpu_ms", s[kEvalCpu], "ms"},
      {"engine.result_rows", s[kResultRows], "count"},
      {"engine.speedup", s[kEvalSerial] / s[kEvalParallel], "x"},
      {"serialize.ms", s[kSerialize], "ms"},
      {"serialize.bytes", s[kSerializeBytes], "bytes"},
      {"session.overhead_ms", s[kSessionExecute] - SessionLayers(s), "ms"},
      {"service.overhead_ms", s[kServiceExecute] - ServiceLayers(s), "ms"},
  };
}

// The traced run. Per request in sequence order: untraced Session::
// Execute and QueryService::Execute (plan-cache hit), each timed, then
// the traced replay. A single client, so spans never overlap.
exrquy::Status Run::Traced() {
  Path& session_path = w_.service ? other_ : primary_;
  Path& service_path = w_.service ? primary_ : other_;
  Session* session = session_path.session.get();
  Tracer tracer;

  std::vector<double> load_ms;
  size_t nodes = 0;
  for (int rep = 0; rep < 3; ++rep) {
    exrquy::StrPool pool;
    exrquy::NodeStore store(&pool);
    uint32_t s = tracer.Begin("xml.load", 0, 0);
    Result<exrquy::NodeIdx> root = exrquy::ParseXml(&store, doc_);
    if (root.ok()) store.IndexFragment(store.fragment_count() - 1);
    load_ms.push_back(tracer.End(s));
    EXRQUY_RETURN_IF_ERROR(root.status());
    nodes = store.node_count();
  }

  const size_t pairs = PairCount();
  std::vector<std::vector<Sample>> samples(pairs);
  exrquy::ServiceCounters before = service_path.service->counters();
  Dispenser dispenser(&seq_, args_.seconds);
  size_t index = 0;
  size_t pair = 0;
  while (dispenser.Next(&index, &pair)) {
    Clock::time_point t0 = Clock::now();
    Result<QueryResult> reply = session_path.Execute(pair, threads_);
    Clock::time_point t1 = Clock::now();
    bool session_ok =
        CheckReply(reply, pair, expected_, "Session path", &tally_);
    exrquy::PlanStats initial;
    exrquy::PlanStats optimized;
    if (session_ok) {
      initial = reply->plan_initial;
      optimized = reply->plan_optimized;
    }
    reply = service_path.Execute(pair, threads_);
    Clock::time_point t2 = Clock::now();
    CheckReply(reply, pair, expected_, "QueryService path", &tally_);
    Sample sample;
    EXRQUY_RETURN_IF_ERROR(TraceRequest(&tracer, session, index + 1, pair,
                                        threads_, other_threads_, !w_.service,
                                        expected_, &tally_, &sample));
    // The replay must plan exactly what Session::Execute planned.
    if (session_ok && (sample[kCompilerOps] != initial.total_ops ||
                       sample[kOptOps] != optimized.total_ops ||
                       sample[kRownumOps] != optimized.rownum_ops)) {
      tally_.Fail("traced replay " + PairName(pair) +
                  ": planned differently from Session::Execute");
    }
    sample[kSessionExecute] = MsBetween(t0, t1);
    sample[kServiceExecute] = MsBetween(t1, t2);
    samples[pair].push_back(std::move(sample));
  }
  exrquy::ServiceCounters after = service_path.service->counters();

  Sample total(kFieldCount, 0);
  rows_json_ = "[";
  for (size_t p = 0; p < pairs; ++p) {
    Sample row(kFieldCount, 0);
    for (int f = 0; f < kFieldCount; ++f) {
      std::vector<double> column;
      for (const Sample& s : samples[p]) column.push_back(s[f]);
      row[f] = Median(column);
      total[f] += row[f];
    }
    double untraced = w_.service ? row[kServiceExecute] : row[kSessionExecute];
    std::vector<Metric> m = LayerMetrics(row);
    m.push_back({"trace.overhead_ms", row[kTraced] - untraced, "ms"});
    if (p > 0) rows_json_ += ",\n  ";
    rows_json_ += "{\"pair\": " + Quote(PairName(p)) +
                  ", \"samples\": " + Num(samples[p].size()) +
                  ", \"metrics\": " + MetricsJson(m) + "}";
  }
  rows_json_ += "]";

  uint64_t hits = after.plan_cache.hits - before.plan_cache.hits;
  uint64_t misses = after.plan_cache.misses - before.plan_cache.misses;
  auto shed = [](const exrquy::AdmissionStats& a) {
    return a.shed_queue_full + a.shed_queue_timeout + a.shed_deadline;
  };
  double untraced_total =
      w_.service ? total[kServiceExecute] : total[kSessionExecute];
  for (const Metric& m : LayerMetrics(total)) Emit(m);
  Emit({"xml.load_ms", Median(load_ms), "ms"});
  Emit({"xml.doc_bytes", static_cast<double>(doc_.size()), "bytes"});
  Emit({"xml.nodes", static_cast<double>(nodes), "count"});
  Emit({"service.plan_cache_hit_ratio",
        hits + misses == 0 ? 0.0 : static_cast<double>(hits) / (hits + misses),
        "ratio"});
  Emit({"service.retries", static_cast<double>(after.retries - before.retries),
        "count"});
  Emit({"service.degraded_runs",
        static_cast<double>(after.degraded_runs - before.degraded_runs),
        "count"});
  Emit({"service.shed",
        static_cast<double>(shed(after.admission) - shed(before.admission)),
        "count"});
  Emit({"trace.overhead_ms", total[kTraced] - untraced_total, "ms"});

  // How much of the untraced Session::Execute the layer spans account
  // for; session.overhead_ms is the rest.
  Info("session_layer_coverage",
       Num(SessionLayers(total) / total[kSessionExecute]));
  std::map<std::string, double> self = SelfTimes(tracer.spans());
  trace_json_ = "\"self_ms\": {";
  bool first = true;
  for (const auto& [name, ms] : self) {
    trace_json_ += (first ? "" : ", ") + Quote(name) + ": " + Num(ms);
    first = false;
  }
  trace_json_ += "},\n \"spans\": [";
  for (const Span& s : tracer.spans()) {
    trace_json_ += (s.id == 1 ? "\n  " : ",\n  ");
    trace_json_ += "{\"name\": " + Quote(s.name) +
                   ", \"request\": " + Num(s.request) +
                   ", \"id\": " + Num(s.id) + ", \"parent\": " + Num(s.parent) +
                   ", \"start_ms\": " + Num(s.start_ms) +
                   ", \"end_ms\": " + Num(s.end_ms) +
                   ", \"thread_cpu_ms\": " + Num(s.thread_cpu_ms) +
                   ", \"process_cpu_ms\": " + Num(s.process_cpu_ms) + "}";
  }
  trace_json_ += "]";
  return exrquy::Status::Ok();
}

int Run::Main() {
  exrquy::Status st = Prepare();
  if (st.ok()) st = SetUp();
  if (st.ok()) st = CrossCheck();
  if (st.ok()) {
    st = args_.trace ? Traced() : Timed();
  }
  if (!st.ok()) {
    std::fprintf(stderr, "xmark_bench: %s\n", st.ToString().c_str());
    return 1;
  }
  bool correct = tally_.failed() == 0;
  if (!correct) {
    std::fprintf(stderr,
                 "xmark_bench: %llu of %llu operations failed; first: %s\n",
                 static_cast<unsigned long long>(tally_.failed()),
                 static_cast<unsigned long long>(tally_.attempted()),
                 tally_.first().c_str());
  }

  std::string result = std::string("{\"correct\": ") +
                       (correct ? "true" : "false") +
                       ", \"attempted\": " + Num(tally_.attempted()) +
                       ", \"failed\": " + Num(tally_.failed()) +
                       ", \"metrics\": " + MetricsJson(metrics_) + "}";

  std::string record = "{\"info\": {";
  for (size_t i = 0; i < info_.size(); ++i) {
    record += (i > 0 ? ", " : "") + Quote(info_[i].first) + ": " +
              info_[i].second;
  }
  record += "},\n \"result\": " + result + ",\n \"rows\": " + rows_json_;
  if (args_.trace) record += ",\n " + trace_json_;
  record += "}\n";
  std::error_code ec;
  std::filesystem::create_directories(args_.out_dir, ec);
  std::string path = args_.out_dir + "/" + w_.name + "-seed" +
                     std::to_string(args_.seed) + "-trace" +
                     (args_.trace ? "1" : "0") + ".json";
  std::ofstream(path) << record;
  std::printf("info record = %s\n", Quote(path).c_str());
  std::printf("%s\n", result.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: xmark_bench --workload cold_adhoc|warm_mix|large_doc "
                 "[--seed N] --seconds S [--trace 0|1] [--out-dir D] "
                 "[--cache-dir D] [--git-commit C]\n");
    return 2;
  }
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  return perfbench::Run(args).Main();
}
