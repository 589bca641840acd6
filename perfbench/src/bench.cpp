#include "bench.hpp"

#include <omp.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <stdexcept>
#include <thread>

namespace perfbench {

// ------------------------------------------------------------------ clock

namespace {
const Clock::time_point& epoch() {
  static const Clock::time_point t0 = Clock::now();
  return t0;
}
}  // namespace

double now_s() {
  return std::chrono::duration<double>(Clock::now() - epoch()).count();
}

void sleep_until_s(double t) {
  const double dt = t - now_s();
  if (dt <= 0.0) return;
  std::this_thread::sleep_until(
      epoch() + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(t)));
}

// ------------------------------------------------------------- statistics

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += std::log(x);
  return std::exp(s / static_cast<double>(v.size()));
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

std::string joined(const std::vector<double>& v) {
  std::string s;
  for (double x : v) s.append(" ").append(std::to_string(x));
  return s;
}

namespace {
constexpr double kTailLadder[] = {99.0, 98.0, 95.0, 90.0, 75.0, 50.0};
}

Tail tail(const std::vector<double>& v, double max_pct) {
  Tail t;
  t.n = v.size();
  if (v.empty()) return t;
  std::vector<double> s = v;
  std::sort(s.begin(), s.end());
  for (double p : kTailLadder) {
    if (p > max_pct) continue;
    t.pct = p;
    t.value = quantile(s, p / 100.0);
    const auto beyond = static_cast<std::size_t>(
        s.end() - std::upper_bound(s.begin(), s.end(), t.value));
    if (beyond >= 10) break;
  }
  return t;
}

// ------------------------------------------------------------ correctness

Reference make_reference(const CsrMatrix<float>& a, std::span<const float> x) {
  Reference r;
  r.y = spmv::kernels::spmv_exact(a, x);
  r.scale.assign(static_cast<std::size_t>(a.rows()), 0.0);
  const auto rp = a.row_ptr();
  const auto ci = a.col_idx();
  const auto v = a.vals();
  for (spmv::index_t i = 0; i < a.rows(); ++i) {
    double s = 0.0;
    for (auto j = rp[static_cast<std::size_t>(i)];
         j < rp[static_cast<std::size_t>(i) + 1]; ++j)
      s += std::fabs(static_cast<double>(v[static_cast<std::size_t>(j)]) *
                     static_cast<double>(
                         x[static_cast<std::size_t>(ci[static_cast<std::size_t>(j)])]));
    r.scale[static_cast<std::size_t>(i)] = s;
  }
  return r;
}

bool matches(const Reference& ref, std::span<const float> y, double* worst) {
  if (y.size() != ref.y.size()) {
    if (worst != nullptr) *worst = INFINITY;
    return false;
  }
  double w = 0.0;
  bool ok = true;
  for (std::size_t i = 0; i < y.size(); ++i) {
    const double err = std::fabs(static_cast<double>(y[i]) - ref.y[i]);
    const double lim = kRelTol * ref.scale[i];
    if (!(err <= lim)) ok = false;  // also catches NaN
    if (ref.scale[i] > 0.0) w = std::max(w, err / ref.scale[i]);
    else if (err > 0.0) w = INFINITY;
  }
  if (worst != nullptr) *worst = w;
  return ok;
}

// ----------------------------------------------------------------- inputs

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  spmv::util::SplitMix64 sm(seed * 0x9e3779b97f4a7c15ULL + stream);
  sm.next();
  return sm.next();
}

std::vector<float> random_vector(std::size_t n, std::uint64_t seed) {
  spmv::util::Xoshiro256 rng(seed);
  std::vector<float> x(n);
  for (auto& v : x) v = static_cast<float>(0.5 + rng.uniform());
  return x;
}

void InputHash::bytes(const void* p, std::size_t n) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= b[i];
    h_ *= 1099511628211ULL;
  }
}

void InputHash::add(const CsrMatrix<float>& a) {
  add(static_cast<std::uint64_t>(a.rows()));
  add(static_cast<std::uint64_t>(a.cols()));
  bytes(a.row_ptr().data(), a.row_ptr().size_bytes());
  bytes(a.col_idx().data(), a.col_idx().size_bytes());
  bytes(a.vals().data(), a.vals().size_bytes());
}

void InputHash::add(std::span<const float> v) { bytes(v.data(), v.size_bytes()); }

void InputHash::add(std::uint64_t v) { bytes(&v, sizeof v); }

double spmv_bytes(const CsrMatrix<float>& a) {
  return static_cast<double>(a.nnz()) * (sizeof(float) + sizeof(spmv::index_t)) +
         static_cast<double>(a.rows() + 1) * sizeof(spmv::offset_t) +
         static_cast<double>(a.cols()) * sizeof(float) +
         static_cast<double>(a.rows()) * sizeof(float);
}

// ------------------------------------------------------------------ spans

namespace {

struct SpanRec {
  const char* name = nullptr;
  const char* layer = nullptr;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t req = 0;
  std::uint32_t tid = 0;
  double t0 = 0.0;
  double t1 = 0.0;
};

/// Program trace event, re-timed onto now_s().
struct ProgramEvent {
  spmv::trace::TraceEvent ev;
  double t0 = 0.0;
};

// Spans past this many are counted, not kept, so a long traced run cannot
// grow without bound.
constexpr std::size_t kMaxSpans = 400000;

struct TracerState {
  std::mutex mu;  // guards every member below
  std::vector<SpanRec> spans;
  std::uint64_t dropped = 0;
  std::vector<ProgramEvent> program;
  double program_origin = 0.0;
  std::uint32_t next_tid = 1;
};

TracerState& tracer() {
  static TracerState s;
  return s;
}

std::atomic<bool> g_tracing{false};
std::atomic<std::uint64_t> g_span_ids{1};

thread_local std::uint64_t t_parent = 0;
thread_local std::uint64_t t_req = 0;
thread_local std::uint32_t t_tid = 0;

std::uint32_t thread_number() {
  if (t_tid == 0) {
    std::lock_guard lock(tracer().mu);
    t_tid = tracer().next_tid++;
  }
  return t_tid;
}

std::size_t push_span(const SpanRec& r) {
  auto& s = tracer();
  std::lock_guard lock(s.mu);
  if (s.spans.size() >= kMaxSpans) {
    ++s.dropped;
    return SIZE_MAX;
  }
  s.spans.push_back(r);
  return s.spans.size() - 1;
}

}  // namespace

void tracer_enable(bool on) { g_tracing.store(on); }
bool tracer_on() { return g_tracing.load(std::memory_order_relaxed); }

std::uint64_t next_request_id() { return spmv::trace::next_request_id(); }

Span::Span(const char* name, const char* layer, std::uint64_t req)
    : on_(tracer_on()) {
  if (!on_) return;
  SpanRec r;
  r.name = name;
  r.layer = layer;
  r.id = g_span_ids.fetch_add(1);
  r.parent = t_parent;
  r.req = req == kNewRequest ? next_request_id() : req != 0 ? req : t_req;
  r.tid = thread_number();
  prev_parent_ = t_parent;
  prev_req_ = t_req;
  t_parent = r.id;
  t_req = r.req;
  // Program spans recorded on this thread meanwhile carry the same id.
  if (r.req != 0) scoped_.emplace(r.req);
  r.t0 = now_s();
  slot_ = push_span(r);
}

Span::~Span() {
  if (!on_) return;
  const double t1 = now_s();
  scoped_.reset();
  t_parent = prev_parent_;
  t_req = prev_req_;
  if (slot_ == SIZE_MAX) return;
  std::lock_guard lock(tracer().mu);
  tracer().spans[slot_].t1 = t1;
}

void emit_span(const char* name, const char* layer, std::uint64_t req,
               double t0, double t1) {
  if (!tracer_on()) return;
  SpanRec r;
  r.name = name;
  r.layer = layer;
  r.id = g_span_ids.fetch_add(1);
  r.req = req;
  r.tid = thread_number();
  r.t0 = t0;
  r.t1 = t1;
  push_span(r);
}

void program_trace_start() {
  spmv::trace::TraceConfig cfg;
  spmv::trace::start(cfg);
  const double origin = now_s();
  std::lock_guard lock(tracer().mu);
  tracer().program_origin = origin;
}

void program_trace_collect(std::size_t cap) {
  spmv::trace::stop();
  auto snap = spmv::trace::snapshot();
  auto& s = tracer();
  std::lock_guard lock(s.mu);
  const std::size_t first =
      snap.events.size() > cap ? snap.events.size() - cap : 0;
  for (std::size_t i = first; i < snap.events.size(); ++i) {
    ProgramEvent pe;
    pe.ev = snap.events[i];
    pe.t0 = s.program_origin + static_cast<double>(pe.ev.ts_ns) * 1e-9;
    s.program.push_back(pe);
  }
  s.dropped += snap.dropped + first;
}

std::map<std::string, double> self_times() {
  auto& s = tracer();
  std::lock_guard lock(s.mu);
  // Children per parent id: benchmark spans by parent link, program spans
  // by request id and containment.
  std::map<std::uint64_t, std::vector<std::pair<double, double>>> covered;
  std::map<std::uint64_t, const SpanRec*> by_id;
  for (const auto& r : s.spans) by_id[r.id] = &r;
  for (const auto& r : s.spans)
    if (r.parent != 0) covered[r.parent].emplace_back(r.t0, r.t1);
  std::map<std::uint64_t, std::vector<const SpanRec*>> leaf_by_req;
  for (const auto& r : s.spans)
    if (r.req != 0) leaf_by_req[r.req].push_back(&r);
  for (const auto& pe : s.program) {
    if (pe.ev.phase != 'X' || pe.ev.id == 0) continue;
    const double a = pe.t0;
    const double b = a + static_cast<double>(pe.ev.dur_ns) * 1e-9;
    auto it = leaf_by_req.find(pe.ev.id);
    if (it == leaf_by_req.end()) continue;
    // Attribute to the innermost (latest-starting) span containing it.
    const SpanRec* best = nullptr;
    for (const SpanRec* r : it->second)
      if (r->t0 <= a && b <= r->t1 && (best == nullptr || r->t0 > best->t0))
        best = r;
    if (best != nullptr) covered[best->id].emplace_back(a, b);
  }
  std::map<std::string, double> out;
  for (const auto& r : s.spans) {
    double self = r.t1 - r.t0;
    auto it = covered.find(r.id);
    if (it != covered.end()) {
      auto iv = it->second;
      std::sort(iv.begin(), iv.end());
      double cur_a = -1.0, cur_b = -1.0, cov = 0.0;
      for (auto [a, b] : iv) {
        a = std::max(a, r.t0);
        b = std::min(b, r.t1);
        if (b <= a) continue;
        if (a > cur_b) {
          if (cur_b > cur_a) cov += cur_b - cur_a;
          cur_a = a;
          cur_b = b;
        } else {
          cur_b = std::max(cur_b, b);
        }
      }
      if (cur_b > cur_a) cov += cur_b - cur_a;
      self -= cov;
    }
    out[std::string(r.layer) + "." + r.name] += std::max(0.0, self);
  }
  return out;
}

namespace {
void json_escape(std::ostream& os, const char* s) {
  os << '"';
  for (const char* p = s != nullptr ? s : ""; *p != '\0'; ++p) {
    if (*p == '"' || *p == '\\') os << '\\';
    os << *p;
  }
  os << '"';
}
}  // namespace

std::size_t write_chrome_trace(const std::string& path) {
  auto& s = tracer();
  std::lock_guard lock(s.mu);
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write " + path);
  os << "{\"traceEvents\":[\n";
  std::size_t n = 0;
  char buf[64];
  auto us = [&](double t) {
    std::snprintf(buf, sizeof buf, "%.3f", t * 1e6);
    return std::string(buf);
  };
  for (const auto& r : s.spans) {
    if (n++ > 0) os << ",\n";
    os << "{\"ph\":\"X\",\"pid\":1,\"tid\":" << r.tid << ",\"name\":";
    json_escape(os, r.name);
    os << ",\"cat\":";
    json_escape(os, r.layer);
    os << ",\"ts\":" << us(r.t0) << ",\"dur\":" << us(r.t1 - r.t0)
       << ",\"args\":{\"req\":" << r.req << ",\"span\":" << r.id
       << ",\"parent\":" << r.parent << "}}";
  }
  for (const auto& pe : s.program) {
    const char ph = pe.ev.phase;
    if (n++ > 0) os << ",\n";
    os << "{\"ph\":\"" << ph << "\",\"pid\":2,\"tid\":" << pe.ev.tid
       << ",\"name\":";
    json_escape(os, pe.ev.name);
    os << ",\"cat\":";
    json_escape(os, pe.ev.category);
    os << ",\"ts\":" << us(pe.t0);
    if (ph == 'X') os << ",\"dur\":" << us(static_cast<double>(pe.ev.dur_ns) * 1e-9);
    if (ph == 'b' || ph == 'e' || ph == 'n') os << ",\"id\":" << pe.ev.id;
    if (ph == 'i') os << ",\"s\":\"t\"";
    os << ",\"args\":{\"req\":" << pe.ev.id << "}}";
  }
  os << "\n],\"otherData\":{\"dropped_events\":" << s.dropped << "}}\n";
  return n;
}

// ----------------------------------------------------------------- result

void Result::line(const char* fmt, ...) {
  char buf[1024];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  std::printf("%s\n", buf);
  std::fflush(stdout);
  report.emplace_back(buf);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

int hardware_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

int omp_team_size() { return omp_get_max_threads(); }

long llc_bytes() {
  long b = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (b <= 0) b = sysconf(_SC_LEVEL2_CACHE_SIZE);
  return b > 0 ? b : 32L << 20;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_units() {
  static const std::vector<std::pair<std::string, std::string>> units = {
      {"ml.features_s", "s"},
      {"core.predict_s", "s"},
      {"binning.bin_s", "s"},
      {"core.bins_per_plan", "count"},
      {"exec.kernel_s", "s"},
      {"exec.launch_overhead_frac", "ratio"},
      {"exec.gbs", "GB/s"},
      {"exec.roofline_frac", "ratio"},
      {"kernels.omp_rows_gflops", "GFLOP/s"},
      {"exec.spmm_gflops", "GFLOP/s"},
      {"exec.spmm_fallback_columns", "count"},
      {"fmt.non_csr_bins", "count"},
      {"fmt.layout_bytes", "bytes"},
      {"fmt.layout_build_s", "s"},
      {"fmt.refresh_s", "s"},
      {"serve.queue_wait_p50_s", "s"},
      {"serve.queue_wait_p99_s", "s"},
      {"serve.batch_exec_p50_s", "s"},
      {"serve.batch_width_mean", "count"},
      {"serve.cache_hit_rate", "ratio"},
      {"serve.cache_evictions", "count"},
      {"serve.planning_passes", "count"},
      {"serve.rejected", "count"},
      {"adapt.trials", "count"},
      {"adapt.promotions", "count"},
      {"adapt.useful_ratio", "ratio"},
      {"adapt.regret_s", "s"},
      {"adapt.l_trials", "count"},
      {"adapt.l_promotions", "count"},
      {"shard.partition_s", "s"},
      {"shard.exec_s.max", "s"},
      {"shard.imbalance", "ratio"},
      {"shard.queue_wait_p99_s", "s"},
      {"shard.threads_per_core", "ratio"},
      {"shard.rejected.light", "count"},
      {"shard.rejected.heavy", "count"},
      {"iter.step_p50_s", "s"},
      {"iter.step_p99_s", "s"},
      {"iter.update_values_s", "s"},
      {"iter.planning_passes", "count"},
      {"iter.structure_rebinds", "count"},
      {"gen.lag_p99_s", "s"},
      {"request.p50_s", "s"},
      {"request.p99_s", "s"},
      {"request.p95_s.light", "s"},
      {"trace.overhead_frac", "ratio"},
      {"host.triad_gbs", "GB/s"},
      {"harness.failed_frac", "ratio"},
  };
  return units;
}

}  // namespace perfbench
