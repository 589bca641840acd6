// table2 — closed loop, one caller. For each of the 16 Table-II analogues:
// Tuner(a).predictor(Heuristic).backend(Native).formats(Auto).build(), a
// fixed warm-up, then timed run() calls interleaved pairwise with
// kernels::spmv_omp_rows on the same x. Matrices are processed one at a
// time so only one is resident.
#include <algorithm>
#include <cmath>
#include <optional>

#include "bench.hpp"

namespace perfbench {

namespace {

// Warm-up runs after build(): past fmt's lazy-layout amortization
// threshold (3 reuses), so layouts are built before timing starts.
constexpr int kWarmup = 8;
// Set-up repetitions per matrix; setup_s takes the median.
constexpr int kSetupReps = 3;
// At least this many timed pairs per matrix, whatever the time share.
constexpr int kMinPairs = 21;

struct Timed {
  std::vector<double> tuned;
  std::vector<double> omp;
};

using Auto = spmv::core::AutoSpmv<float>;

/// Interleaved pairs until `budget` seconds pass; alternate which side
/// goes first so neither inherits the other's cache state systematically.
Timed time_pairs(const Auto& sp, const CsrMatrix<float>& a,
                 std::span<const float> x, std::span<float> y_tuned,
                 std::span<float> y_omp, double budget,
                 spmv::prof::RunProfile* prof) {
  Timed t;
  const double end = now_s() + budget;
  for (int k = 0; k < kMinPairs || now_s() < end; ++k) {
    for (int side = 0; side < 2; ++side) {
      const bool tuned = (side == 0) == (k % 2 == 0);
      const double t0 = now_s();
      if (tuned) {
        Span s("run", "core", kNewRequest);
        sp.run(x, y_tuned, prof);
      } else {
        Span s("spmv_omp_rows", "kernels");
        spmv::kernels::spmv_omp_rows(a, x, y_omp);
      }
      (tuned ? t.tuned : t.omp).push_back(now_s() - t0);
    }
  }
  return t;
}

}  // namespace

Result run_table2(const Options& o) {
  Result r;
  InputHash hash;
  spmv::core::HeuristicPredictor pred;
  const auto& catalogue = spmv::gen::representative_catalogue();
  const auto n_mat = catalogue.size();
  const double budget = o.seconds / static_cast<double>(n_mat);
  const double llc = static_cast<double>(llc_bytes());

  std::vector<double> setup, ratio, gflops, omp_gflops;
  std::vector<std::vector<double>> tuned_all;
  std::vector<double> nnz_of;
  // Traced-run aggregates.
  double features_s = 0, predict_s = 0, bin_s = 0, bins = 0, kernel_s = 0,
         run_wall = 0, big_bytes = 0, big_time = 0, non_csr = 0,
         layout_bytes = 0, layout_build = 0, untraced_sum = 0, traced_sum = 0;

  r.line("%-15s %9s %10s %5s %9s %11s %11s %8s %9s", "matrix", "rows", "nnz",
         "bins", "setup_s", "tuned_s", "omp_s", "vs_omp", "GFLOP/s");
  for (std::size_t i = 0; i < n_mat; ++i) {
    auto info = catalogue[i];
    if (o.size == Size::Tiny)
      info.scale *= std::min(1.0, 3000.0 / (static_cast<double>(info.paper_rows) *
                                            info.scale));
    const auto a = spmv::gen::make_representative<float>(
        info, derive_seed(o.seed, i));
    const auto x = random_vector(static_cast<std::size_t>(a.cols()),
                                 derive_seed(o.seed, 1000 + i));
    hash.add(a);
    hash.add(x);
    if (o.inputs_only) continue;
    const Reference ref = make_reference(a, x);
    std::vector<float> y(static_cast<std::size_t>(a.rows()));
    std::vector<float> y_omp(y.size());

    // Set-up: build() plus the fixed warm-up, several times; keep the last.
    std::vector<double> reps;
    std::optional<Auto> sp;
    spmv::prof::RunProfile plan_prof;
    for (int rep = 0; rep < kSetupReps; ++rep) {
      sp.reset();
      plan_prof = {};
      const double t0 = now_s();
      {
        Span s("build", "core", kNewRequest);
        sp.emplace(spmv::core::Tuner<float>(a)
                       .predictor(pred)
                       .backend(spmv::exec::BackendKind::Native)
                       .formats(spmv::fmt::FormatMode::Auto)
                       .profile(o.trace ? &plan_prof : nullptr)
                       .build());
      }
      for (int w = 0; w < kWarmup; ++w) sp->run(x, y);
      reps.push_back(now_s() - t0);
    }
    setup.push_back(median(reps));

    Timed t;
    spmv::prof::RunProfile run_prof;
    if (o.trace) {
      // Half the share untraced, half traced: the pair gives
      // trace.overhead_frac from the same matrix and state.
      tracer_enable(false);
      const Timed plain = time_pairs(*sp, a, x, y, y_omp, budget / 2, nullptr);
      tracer_enable(true);
      program_trace_start();
      t = time_pairs(*sp, a, x, y, y_omp, budget / 2, &run_prof);
      program_trace_collect();
      untraced_sum += median(plain.tuned);
      traced_sum += median(t.tuned);
    } else {
      t = time_pairs(*sp, a, x, y, y_omp, budget, nullptr);
    }

    // Off the clock: the last outputs of both sides against spmv_exact.
    double worst = 0, worst_omp = 0;
    const bool ok = matches(ref, y, &worst);
    const bool ok_omp = matches(ref, y_omp, &worst_omp);
    r.attempted += t.tuned.size() + t.omp.size();
    if (!ok) r.failed += t.tuned.size();
    if (!ok_omp) r.failed += t.omp.size();
    if (!ok || !ok_omp)
      r.line("WRONG %s: tuned err %.3g, omp err %.3g (tolerance %.1g)",
             info.name.c_str(), worst, worst_omp, kRelTol);

    const double mt = median(t.tuned), mo = median(t.omp);
    const auto nnz = static_cast<double>(a.nnz());
    ratio.push_back(mo / mt);
    gflops.push_back(2.0 * nnz / mt * 1e-9);
    omp_gflops.push_back(2.0 * nnz / mo * 1e-9);
    tuned_all.push_back(t.tuned);
    nnz_of.push_back(nnz);
    const auto& plan = sp->plan();
    r.line("%-15s %9d %10lld %5zu %9.5f %11.6g %11.6g %8.3f %9.3f",
           info.name.c_str(), a.rows(), static_cast<long long>(a.nnz()),
           plan.bin_kernels.size(), setup.back(), mt, mo, mo / mt,
           gflops.back());

    if (o.trace) {
      features_s += plan_prof.plan_timing.features_s;
      predict_s += plan_prof.plan_timing.predict_s;
      bin_s += plan_prof.plan_timing.binning_s;
      bins += static_cast<double>(plan.bin_kernels.size());
      double bin_sum = 0;
      for (const auto& b : run_prof.bins) bin_sum += b.seconds;
      const double runs = static_cast<double>(std::max<std::uint64_t>(1, run_prof.runs));
      kernel_s += bin_sum / runs;
      run_wall += run_prof.run_total_s / runs;
      if (spmv_bytes(a) > llc) {
        big_bytes += spmv_bytes(a);
        big_time += mt;
      }
      if (auto* lay = sp->layouts(); lay != nullptr) {
        layout_build += lay->stats().build_s;
        for (const auto& bp : plan.bin_kernels) {
          if (bp.format == spmv::fmt::FormatKind::Csr) continue;
          non_csr += 1;
          const auto l = lay->acquire(a, sp->bins().bin(bp.bin_id), plan.unit,
                                      bp.format, bp.bin_id);
          if (l != nullptr) layout_bytes += static_cast<double>(l->bytes);
        }
      }
      r.line("  %-13s plan %s; per run: kernel %.6g s of %.6g s wall",
             "", plan.to_string().substr(0, 160).c_str(), bin_sum / runs,
             run_prof.run_total_s / runs);
    }
  }
  r.input_hash = hash.value();
  if (o.inputs_only) return r;

  // Per-matrix figures summed over the catalogue: the time one caller
  // needs to multiply every matrix once, typically (medians), at the tail
  // (each matrix's highest percentile with ten samples beyond it) and on
  // average (means, which set the throughput). The lighter half of the
  // catalogue by nnz is the "light" class.
  std::vector<std::size_t> order(n_mat);
  for (std::size_t i = 0; i < n_mat; ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](std::size_t l, std::size_t h) { return nnz_of[l] < nnz_of[h]; });
  double setup_s = 0, p50 = 0, p99 = 0, light = 0, solve_s = 0;
  double p99_pct = 99, light_pct = 95;
  for (double s : setup) setup_s += s;
  for (std::size_t k = 0; k < n_mat; ++k) {
    const auto& v = tuned_all[order[k]];
    const Tail t99 = tail(v, 99);
    p50 += median(v);
    p99 += t99.value;
    p99_pct = std::min(p99_pct, t99.pct);
    solve_s += mean(v);
    if (k < n_mat / 2) {
      const Tail t95 = tail(v, 95);
      light += t95.value;
      light_pct = std::min(light_pct, t95.pct);
    }
  }
  r.line("one tuned run() of every matrix: median %.6g s, tail %.6g s (lowest "
         "percentile used p%g), mean %.6g s; light half tail %.6g s (lowest p%g)",
         p50, p99, p99_pct, solve_s, light, light_pct);

  if (!o.trace) {
    r.metric("spmv_gflops", geomean(gflops), "GFLOP/s");
    r.metric("vs_omp_rows", geomean(ratio), "ratio");
    r.metric("setup_s", setup_s, "s");
    r.metric("max_rate_rps", static_cast<double>(n_mat) / solve_s, "req/s");
    r.metric("solve_s", solve_s, "s");
    r.metric("peak_rss_mb", peak_rss_mb(), "MiB");
  } else {
    r.metric("ml.features_s", features_s, "s");
    r.metric("core.predict_s", predict_s, "s");
    r.metric("binning.bin_s", bin_s, "s");
    r.metric("core.bins_per_plan", bins / static_cast<double>(n_mat), "count");
    r.metric("exec.kernel_s", kernel_s, "s");
    r.metric("exec.launch_overhead_frac", run_wall > 0 ? 1.0 - kernel_s / run_wall : 0.0,
             "ratio");
    const double gbs = big_time > 0 ? big_bytes / big_time * 1e-9 : 0.0;
    r.metric("exec.gbs", gbs, "GB/s");
    r.metric("kernels.omp_rows_gflops", geomean(omp_gflops), "GFLOP/s");
    r.metric("fmt.non_csr_bins", non_csr, "count");
    r.metric("fmt.layout_bytes", layout_bytes, "bytes");
    r.metric("fmt.layout_build_s", layout_build, "s");
    r.metric("trace.overhead_frac",
             untraced_sum > 0 ? traced_sum / untraced_sum - 1.0 : 0.0, "ratio");
    r.metric("request.p50_s", p50, "s");
    r.metric("request.p99_s", p99, "s");
    r.metric("request.p95_s.light", light, "s");
    for (const auto& [name, s] : self_times())
      r.line("self time %-28s %.6g s", name.c_str(), s);
  }
  return r;
}

}  // namespace perfbench
