// perfbench — the repository benchmark. One binary, four workloads (table2,
// serve, shard, solver), each driven through the library's public API with
// kernels::spmv_omp_rows as the in-run baseline. See ../README.md.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--size full|tiny] [--inputs-only] [--out-dir <dir>]
//
// Untraced runs print the end-to-end metrics; traced runs turn the
// program's telemetry and the benchmark-side spans on and print the
// per-layer metrics. The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// Every result is stamped with the host (threads, CPU model, LLC size,
// OMP_*/SPMV_* environment, STREAM-triad GB/s) in the report file.
#include <cpuid.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bench.hpp"

extern char** environ;

namespace perfbench {
namespace {

struct Host {
  int threads = 0;
  std::string cpu;
  long llc_bytes = 0;
  std::vector<std::string> env;  ///< OMP_* and SPMV_* as set
  double triad_gbs = 0.0;
  std::size_t triad_array_bytes = 0;
};

std::string cpu_brand() {
  unsigned regs[12] = {};
  unsigned max_ext = __get_cpuid_max(0x80000000u, nullptr);
  if (max_ext < 0x80000004u) return "unknown";
  for (unsigned i = 0; i < 3; ++i)
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  std::string s(reinterpret_cast<const char*>(regs), sizeof regs);
  s = s.c_str();
  const auto b = s.find_first_not_of(' ');
  return b == std::string::npos ? "unknown" : s.substr(b);
}

Host stamp_host() {
  Host h;
  h.threads = hardware_threads();
  h.cpu = cpu_brand();
  h.llc_bytes = llc_bytes();
  for (char** e = environ; *e != nullptr; ++e)
    if (std::strncmp(*e, "OMP_", 4) == 0 || std::strncmp(*e, "SPMV_", 5) == 0)
      h.env.emplace_back(*e);
  std::sort(h.env.begin(), h.env.end());
  return h;
}

/// STREAM triad a = b + s*c over double arrays each at least four times
/// the LLC, on the default OpenMP team; best of five passes, counting the
/// three arrays' bytes once per pass (STREAM's convention).
void run_triad(Host& h) {
  const std::size_t bytes =
      std::max<std::size_t>(4 * static_cast<std::size_t>(h.llc_bytes), 64u << 20);
  const std::size_t n = bytes / sizeof(double);
  h.triad_array_bytes = n * sizeof(double);
  std::unique_ptr<double[]> a(new double[n]), b(new double[n]), c(new double[n]);
  double* pa = a.get();
  double* pb = b.get();
  double* pc = c.get();
#pragma omp parallel for schedule(static)
  for (std::size_t i = 0; i < n; ++i) {
    pa[i] = 0.0;
    pb[i] = 1.0;
    pc[i] = 2.0;
  }
  double best = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    const double t0 = now_s();
    const double s = 0.5 + rep;
#pragma omp parallel for schedule(static)
    for (std::size_t i = 0; i < n; ++i) pa[i] = pb[i] + s * pc[i];
    const double dt = now_s() - t0;
    best = std::max(best, 3.0 * static_cast<double>(h.triad_array_bytes) / dt * 1e-9);
  }
  volatile double sink = pa[n / 2];
  (void)sink;
  h.triad_gbs = best;
}

std::string json_str(const std::string& s) {
  std::string o = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    o += c;
  }
  return o + "\"";
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(const Result& r) {
  std::string o = "{";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    if (i > 0) o += ", ";
    o += json_str(r.metrics[i].name) + ": {\"value\": " + num(r.metrics[i].value) +
         ", \"unit\": " + json_str(r.metrics[i].unit) + "}";
  }
  return o + "}";
}

std::string host_json(const Host& h) {
  std::string env = "[";
  for (std::size_t i = 0; i < h.env.size(); ++i)
    env += (i > 0 ? ", " : "") + json_str(h.env[i]);
  env += "]";
  return "{\"hardware_threads\": " + std::to_string(h.threads) +
         ", \"cpu\": " + json_str(h.cpu) +
         ", \"llc_bytes\": " + std::to_string(h.llc_bytes) +
         ", \"omp_team\": " + std::to_string(omp_team_size()) +
         ", \"env\": " + env + ", \"triad_gbs\": " + num(h.triad_gbs) +
         ", \"triad_array_bytes\": " + std::to_string(h.triad_array_bytes) + "}";
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload table2|serve|shard|"
               "solver --seed N --seconds S --trace 0|1 [--size full|tiny] "
               "[--inputs-only] [--out-dir DIR]\n",
               why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + a);
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        o.workload = value();
        have_workload = true;
      } else if (a == "--seed") {
        o.seed = std::stoull(value());
      } else if (a == "--seconds") {
        o.seconds = std::stod(value());
      } else if (a == "--trace") {
        o.trace = value() == "1";
      } else if (a == "--size") {
        const std::string s = value();
        if (s != "full" && s != "tiny") usage("--size is full or tiny");
        o.size = s == "tiny" ? Size::Tiny : Size::Full;
      } else if (a == "--inputs-only") {
        o.inputs_only = true;
      } else if (a == "--out-dir") {
        o.out_dir = value();
      } else {
        usage("unknown flag " + a);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + a);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(o.seconds > 0.0) || o.seconds > 600.0) usage("--seconds out of range");
  return o;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options o = parse(argc, argv);
  Host host = stamp_host();
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d size=%s\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace ? 1 : 0,
              o.size == Size::Tiny ? "tiny" : "full");
  std::printf("host: %d hardware threads, %s, LLC %ld bytes, OpenMP team %d, "
              "env [%s]\n",
              host.threads, host.cpu.c_str(), host.llc_bytes, omp_team_size(),
              [&] {
                std::string s;
                for (const auto& e : host.env) s += (s.empty() ? "" : " ") + e;
                return s;
              }()
                  .c_str());
  std::fflush(stdout);

  if (o.trace) {
    tracer_enable(true);
    spmv::prof::set_enabled(true);
  }

  Result r;
  try {
    if (o.workload == "table2") {
      r = run_table2(o);
    } else if (o.workload == "serve") {
      r = run_serve(o);
    } else if (o.workload == "shard") {
      r = run_shard(o);
    } else if (o.workload == "solver") {
      r = run_solver(o);
    } else {
      usage("unknown workload " + o.workload);
    }
    if (o.inputs_only) {
      std::printf("inputs_hash %016llx\n",
                  static_cast<unsigned long long>(r.input_hash));
      return 0;
    }
    // The triad runs after the workload, so it cannot disturb it and
    // peak_rss_mb (read by the workload) excludes its arrays.
    run_triad(host);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s workload aborted: %s\n",
                 o.workload.c_str(), e.what());
    return 1;
  }
  std::printf("host: STREAM triad %.2f GB/s (best of 5, three arrays of %zu "
              "bytes each, >= 4x LLC)\n",
              host.triad_gbs, host.triad_array_bytes);

  if (o.trace) {
    // A traced run prints every per-layer metric; a layer this workload
    // does not call reads 0.
    std::set<std::string> have;
    for (const auto& m : r.metrics) have.insert(m.name);
    r.metric("host.triad_gbs", host.triad_gbs, "GB/s");
    r.metric("harness.failed_frac",
             r.attempted == 0 ? 0.0
                              : static_cast<double>(r.failed) /
                                    static_cast<double>(r.attempted),
             "ratio");
    have.insert("host.triad_gbs");
    const auto gbs = std::find_if(r.metrics.begin(), r.metrics.end(),
                                  [](const Metric& m) { return m.name == "exec.gbs"; });
    if (gbs != r.metrics.end() && host.triad_gbs > 0) {
      const double frac = gbs->value / host.triad_gbs;
      r.metric("exec.roofline_frac", frac, "ratio");
      have.insert("exec.roofline_frac");
    }
    have.insert("harness.failed_frac");
    for (const auto& [name, unit] : per_layer_units())
      if (have.count(name) == 0) r.metric(name, 0.0, unit);
  }

  const bool correct = r.failed == 0 && r.attempted > 0;
  std::printf("failed_frac %.6g (%llu failed of %llu attempted)\n",
              r.attempted == 0 ? 1.0
                               : static_cast<double>(r.failed) /
                                     static_cast<double>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.attempted));
  for (const auto& m : r.metrics)
    std::printf("metric %-28s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());

  if (!o.out_dir.empty()) {
    std::filesystem::create_directories(o.out_dir);
    const std::string stem = o.out_dir + "/" + o.workload + "-seed" +
                             std::to_string(o.seed) + (o.trace ? "-trace" : "");
    std::ofstream rep(stem + ".json");
    rep << "{\"workload\": " << json_str(o.workload) << ", \"seed\": " << o.seed
        << ", \"seconds\": " << num(o.seconds) << ", \"trace\": " << o.trace
        << ", \"host\": " << host_json(host) << ", \"correct\": "
        << (correct ? "true" : "false") << ", \"attempted\": " << r.attempted
        << ", \"failed\": " << r.failed << ", \"metrics\": " << metrics_json(r)
        << ", \"report\": [";
    for (std::size_t i = 0; i < r.report.size(); ++i)
      rep << (i > 0 ? ", " : "") << json_str(r.report[i]);
    rep << "]}\n";
    if (o.trace) {
      const std::size_t n = write_chrome_trace(stem + ".trace.json");
      std::printf("trace: %zu events written to %s.trace.json\n", n, stem.c_str());
    }
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), metrics_json(r).c_str());
  return correct ? 0 : 1;
}
