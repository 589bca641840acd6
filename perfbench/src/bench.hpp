// Shared harness for the perfbench workloads: run options, statistics,
// correctness references, input hashing, benchmark-side spans, and the
// result record each workload fills in.
//
// Everything here sits outside the library: spans and timers wrap calls
// into the library's public API, and the program's own telemetry
// (prof::RunProfile, spmv::trace, ServeStats, SessionStats) is only
// switched on and read back.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "autospmv.hpp"

namespace perfbench {

using spmv::CsrMatrix;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------- options

enum class Size { Full, Tiny };

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Size size = Size::Full;
  bool inputs_only = false;  ///< generate inputs, print their hash, stop
  std::string out_dir;       ///< report and trace files go here
};

// ------------------------------------------------------------------ clock

/// Seconds on the steady clock since the first call in the process.
double now_s();

/// Sleep until now_s() reaches `t` (returns at once when already past).
void sleep_until_s(double t);

// ------------------------------------------------------------- statistics

double median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> v, double q);
double geomean(const std::vector<double>& v);
double mean(const std::vector<double>& v);
/// The values, each after a space, for report lines.
std::string joined(const std::vector<double>& v);

/// A tail figure: the highest percentile from {99, 98, 95, 90, 75, 50}
/// (capped at `max_pct`) that has at least ten samples beyond it.
struct Tail {
  double pct = 0.0;
  double value = 0.0;
  std::size_t n = 0;  ///< samples the percentile was taken over
};
Tail tail(const std::vector<double>& v, double max_pct = 99.0);

// ------------------------------------------------------------ correctness

/// Relative tolerance of every output check: |y_i - exact_i| must stay
/// within kRelTol * sum_j |a_ij * x_j| (the row's magnitude scale).
inline constexpr double kRelTol = 1e-4;

/// Double-accumulated product (kernels::spmv_exact) plus the per-row
/// magnitude scale the tolerance is measured against.
struct Reference {
  std::vector<double> y;
  std::vector<double> scale;
};
Reference make_reference(const CsrMatrix<float>& a, std::span<const float> x);

/// True when `y` matches `ref` within kRelTol; `worst` (optional) receives
/// the largest |error| / scale seen.
bool matches(const Reference& ref, std::span<const float> y,
             double* worst = nullptr);

// ----------------------------------------------------------------- inputs

/// Seed of the i-th input stream derived from the workload seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

/// Dense vector with entries uniform in [0.5, 1.5).
std::vector<float> random_vector(std::size_t n, std::uint64_t seed);

/// FNV-1a over the generated inputs, so the self-test can check that one
/// seed gives one input set and another seed a different one.
class InputHash {
 public:
  void add(const CsrMatrix<float>& a);
  void add(std::span<const float> v);
  void add(std::uint64_t v);
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  void bytes(const void* p, std::size_t n);
  std::uint64_t h_ = 1469598103934665603ULL;
};

/// Computed compulsory traffic of one CSR SpMV in float: values and column
/// indices once, the 64-bit row pointer, x once and y once. Cache misses
/// beyond this are not counted (the figure is computed, not measured).
double spmv_bytes(const CsrMatrix<float>& a);

// ------------------------------------------------------------------ spans

/// Benchmark-side span recorder. Off unless the run is traced; then each
/// Span records (name, layer, request id, parent, thread, begin, end) in
/// memory, and write_chrome_trace() emits them — together with the
/// program's own spmv::trace events kept by program_trace_collect() —
/// as one Chrome trace JSON.
void tracer_enable(bool on);
bool tracer_on();

class Span {
 public:
  /// `req` tags the span (and, through trace::ScopedRequestId, every
  /// program span recorded on this thread meanwhile) with one request id;
  /// 0 inherits the enclosing span's id.
  Span(const char* name, const char* layer, std::uint64_t req = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool on_;
  std::size_t slot_ = 0;
  std::uint64_t prev_req_ = 0;
  std::uint64_t prev_parent_ = 0;
  std::optional<spmv::trace::ScopedRequestId> scoped_;
};

/// Record a span whose begin was observed elsewhere (e.g. a request's
/// scheduled send time); no parent.
void emit_span(const char* name, const char* layer, std::uint64_t req,
               double t0, double t1);

/// A fresh request id for spans (shared with the program's id space).
std::uint64_t next_request_id();

/// Span request argument: allocate a fresh id when tracing is on (and
/// nothing when it is off, keeping untraced timing free of the atomic).
inline constexpr std::uint64_t kNewRequest = ~std::uint64_t{0};

/// Start the program's trace recorder (spmv::trace::start) and remember
/// the clock offset so its events line up with benchmark spans.
void program_trace_start();
/// Stop the recorder and keep up to `cap` of its most recent events.
void program_trace_collect(std::size_t cap = 5000);

/// Self time per span name: span duration minus the part of it covered by
/// child spans (benchmark spans whose parent it is, and program spans with
/// its request id inside its interval on the program side).
std::map<std::string, double> self_times();

/// Write every recorded span as Chrome trace JSON (pid 1: benchmark, pid
/// 2: program). Returns the number of events written.
std::size_t write_chrome_trace(const std::string& path);

// ----------------------------------------------------------------- result

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload hands back to main: metrics (end-to-end when untraced,
/// per-layer when traced), operation counts, and report lines.
struct Result {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t input_hash = 0;
  std::vector<std::string> report;  ///< human-readable lines

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void line(const char* fmt, ...) __attribute__((format(printf, 2, 3)));
};

/// Peak resident set of the process so far, MiB (getrusage).
double peak_rss_mb();

/// Hardware threads of the host (the unit of shard.threads_per_core).
int hardware_threads();

/// Last-level cache size in bytes (sysconf; 32 MiB when unknown).
long llc_bytes();

/// OpenMP team size a parallel region gets by default here.
int omp_team_size();

// ----------------------------------------------------------- per-workload

Result run_table2(const Options& o);
Result run_serve(const Options& o);
Result run_shard(const Options& o);
Result run_solver(const Options& o);

/// Every per-layer metric name with its unit, in output order. A traced
/// run prints all of them; a layer the workload does not call reads 0.
const std::vector<std::pair<std::string, std::string>>& per_layer_units();

}  // namespace perfbench
