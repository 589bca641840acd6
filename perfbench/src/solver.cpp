// solver — closed loop, one caller. One IterativeSession per matrix
// (apache1: stencil; pkustk14: long rows, many bins; roadNet-CA: short-row
// graph) with spmm_width 8, format auto and latency-feedback adapt. Each
// runs block power iteration through seed()/step()/iterate() with
// per-column normalisation, plus update_values() with rescaled values
// every fixed number of steps. The script repeats with fresh sessions
// while time remains; setup and solve times are medians over repetitions.
#include <algorithm>
#include <cmath>
#include <memory>

#include "bench.hpp"

namespace perfbench {

namespace {

using Session = spmv::iter::IterativeSession<float>;

// Workload parameters, fixed here and quoted in BENCHMARK.json.
constexpr const char* kMatrices[] = {"apache1", "pkustk14", "roadNet-CA"};
constexpr int kWidth = 8;           // spmm_width
constexpr int kWarmSteps = 4;       // part of set-up
// The timed script, per matrix. apache1's steps are cheap, so it runs more
// of them: its step tail is p95_s.light and needs the samples.
constexpr int kSteps[] = {96, 24, 24};
constexpr int kOmpReps = 51;
constexpr int kRefreshEvery = 8;    // update_values() cadence, in steps
constexpr float kRescale = 1.5f;    // values alternate between x1 and x1.5
constexpr int kMinReps = 3;
// Power iteration is scale-free, so the rescaling leaves the normalised
// iterate unchanged; the float iterate must stay this close (2-norm,
// per column, relative) to a double-precision reference iteration.
constexpr double kIterTol = 1e-3;

struct Problem {
  std::string name;
  std::shared_ptr<const CsrMatrix<float>> a;
  std::vector<float> vals[2];  // original and rescaled values
  std::vector<float> x0;       // rows * kWidth, column-major
  std::vector<double> expect;  // reference iterate after all steps
  Reference omp_ref;           // the baseline's output, on x0's first column
};

/// Normalise each column of a column-major block to unit 2-norm.
template <typename T>
void normalise(std::span<T> block, std::size_t rows) {
  for (int c = 0; c < kWidth; ++c) {
    T* col = block.data() + static_cast<std::size_t>(c) * rows;
    double ss = 0.0;
#pragma omp parallel for reduction(+ : ss) schedule(static)
    for (std::size_t i = 0; i < rows; ++i) ss += static_cast<double>(col[i]) * col[i];
    const double inv = ss > 0 ? 1.0 / std::sqrt(ss) : 0.0;
#pragma omp parallel for schedule(static)
    for (std::size_t i = 0; i < rows; ++i) col[i] = static_cast<T>(col[i] * inv);
  }
}

/// The reference: the same block power iteration in double precision.
std::vector<double> reference_iterate(const CsrMatrix<float>& a,
                                      const std::vector<float>& x0, int steps) {
  const auto rows = static_cast<std::size_t>(a.rows());
  std::vector<double> x(x0.begin(), x0.end()), y(x.size());
  const auto rp = a.row_ptr();
  const auto ci = a.col_idx();
  const auto v = a.vals();
  for (int s = 0; s < steps; ++s) {
#pragma omp parallel for schedule(dynamic, 256)
    for (std::size_t i = 0; i < rows; ++i) {
      double acc[kWidth] = {};
      for (auto j = rp[i]; j < rp[i + 1]; ++j) {
        const double aij = v[static_cast<std::size_t>(j)];
        const auto col = static_cast<std::size_t>(ci[static_cast<std::size_t>(j)]);
        for (int c = 0; c < kWidth; ++c) acc[c] += aij * x[c * rows + col];
      }
      for (int c = 0; c < kWidth; ++c) y[c * rows + i] = acc[c];
    }
    std::swap(x, y);
    normalise<double>(x, rows);
  }
  return x;
}

bool close_to(std::span<const float> got, const std::vector<double>& want,
              std::size_t rows, double* worst) {
  double w = 0.0;
  for (int c = 0; c < kWidth; ++c) {
    double num = 0.0, den = 0.0;
    for (std::size_t i = 0; i < rows; ++i) {
      const double d = got[c * rows + i] - want[c * rows + i];
      num += d * d;
      den += want[c * rows + i] * want[c * rows + i];
    }
    w = std::max(w, den > 0 ? std::sqrt(num / den) : INFINITY);
  }
  *worst = w;
  return w <= kIterTol;
}

/// One step()'s output `y` against spmv_exact of its input block `x`,
/// column by column; `factor` is the rescaling the values carry.
bool step_matches(const CsrMatrix<float>& a, const std::vector<float>& x,
                  std::span<const float> y, double factor, double* worst) {
  const auto rows = static_cast<std::size_t>(a.rows());
  bool ok = y.size() == rows * kWidth;
  *worst = ok ? 0.0 : INFINITY;
  for (int c = 0; c < kWidth && ok; ++c) {
    Reference ref = make_reference(a, std::span(x).subspan(c * rows, rows));
    for (auto& v : ref.y) v *= factor;
    for (auto& v : ref.scale) v *= factor;
    double w = 0.0;
    ok = matches(ref, y.subspan(c * rows, rows), &w);
    *worst = std::max(*worst, w);
  }
  return ok;
}

spmv::iter::SessionOptions session_options(const Options& o, int rep,
                                           spmv::prof::RunProfile* profile) {
  spmv::iter::SessionOptions so;
  so.spmm_width = kWidth;
  so.backend = spmv::exec::BackendKind::Native;
  so.format = spmv::fmt::FormatMode::Auto;
  spmv::adapt::AdaptOptions ao;
  ao.seed = derive_seed(o.seed, 50 + rep);
  so.adapt = ao;
  so.profile = profile;
  return so;
}

/// Per-matrix samples over every repetition.
struct Samples {
  std::vector<double> steps;    // one timed step() each
  std::vector<double> updates;  // one update_values() each
  double refresh_s = 0.0;       // update_values() time that refreshed layouts
  std::uint64_t planning = 0, rebinds = 0, l_trials = 0, l_promotions = 0,
                iterations = 0, non_csr = 0;
  double exec_s = 0.0;
  std::vector<double> omp_x8;  // 8 x median spmv_omp_rows, per repetition
  std::vector<double> ratios;  // omp_x8 / median step(), per repetition
};

}  // namespace

Result run_solver(const Options& o) {
  Result r;
  InputHash hash;
  std::vector<Problem> probs;
  for (std::size_t m = 0; m < std::size(kMatrices); ++m) {
    const auto& cat = spmv::gen::representative_catalogue();
    auto info = *std::find_if(cat.begin(), cat.end(),
                              [&](const auto& e) { return e.name == kMatrices[m]; });
    if (o.size == Size::Tiny)
      info.scale *= std::min(1.0, 3000.0 / (static_cast<double>(info.paper_rows) *
                                            info.scale));
    Problem p;
    p.name = info.name;
    p.a = std::make_shared<const CsrMatrix<float>>(
        spmv::gen::make_representative<float>(info, derive_seed(o.seed, m)));
    p.vals[0].assign(p.a->vals().begin(), p.a->vals().end());
    p.vals[1] = p.vals[0];
    for (auto& v : p.vals[1]) v *= kRescale;
    p.x0 = random_vector(static_cast<std::size_t>(p.a->rows()) * kWidth,
                         derive_seed(o.seed, 100 + m));
    hash.add(*p.a);
    hash.add(p.x0);
    probs.push_back(std::move(p));
  }
  r.input_hash = hash.value();
  if (o.inputs_only) return r;
  for (auto& p : probs) {
    p.omp_ref = make_reference(
        *p.a, std::span<const float>(p.x0).first(static_cast<std::size_t>(p.a->cols())));
  }
  for (std::size_t m = 0; m < probs.size(); ++m)
    probs[m].expect = reference_iterate(*probs[m].a, probs[m].x0, kWarmSteps + kSteps[m]);

  spmv::core::HeuristicPredictor pred;
  std::vector<Samples> smp(probs.size());
  std::vector<double> setups, solves, solves_traced;
  std::uint64_t fallback = 0;  // SpMM columns run per column, traced reps

  // One repetition: per matrix, set-up (construct, seed, warm-up steps)
  // and then the timed script. Returns {setup, solve} seconds.
  auto repetition = [&](int rep, bool traced) {
    double setup = 0, solve = 0;
    for (std::size_t m = 0; m < probs.size(); ++m) {
      Problem& p = probs[m];
      Samples& s = smp[m];
      const auto rows = static_cast<std::size_t>(p.a->rows());
      spmv::prof::RunProfile profile;
      const double t0 = now_s();
      std::unique_ptr<Session> sess;
      {
        Span sp("IterativeSession", "iter", kNewRequest);
        sess = std::make_unique<Session>(
            p.a, pred, session_options(o, rep, traced ? &profile : nullptr));
      }
      sess->seed(p.x0);
      for (int k = 0; k < kWarmSteps; ++k) {
        sess->step();
        normalise<float>(sess->iterate(), rows);
      }
      const double t1 = now_s();
      const std::size_t first_step = s.steps.size();
      int which = 0;
      double off = 0;  // checking time inside the script, not counted
      for (int k = 0; k < kSteps[m]; ++k) {
        if (k > 0 && k % kRefreshEvery == 0) {
          which ^= 1;
          const auto before = sess->stats().layout_refreshes;
          const double u0 = now_s();
          {
            Span sp("update_values", "iter", kNewRequest);
            sess->update_values(p.vals[which]);
          }
          const double du = now_s() - u0;
          s.updates.push_back(du);
          if (sess->stats().layout_refreshes > before) s.refresh_s += du;
        }
        // The first step on rescaled values is checked against
        // spmv_exact, off the clock.
        const bool checked = k == kRefreshEvery;
        std::vector<float> input;
        if (checked) {
          const double c0 = now_s();
          input.assign(sess->iterate().begin(), sess->iterate().end());
          off += now_s() - c0;
        }
        const double k0 = now_s();
        std::span<const float> y;
        {
          Span sp("step", "iter", kNewRequest);
          y = sess->step();
        }
        s.steps.push_back(now_s() - k0);
        if (checked) {
          const double c0 = now_s();
          double worst = 0;
          r.attempted += 1;
          if (!step_matches(*p.a, input, y, which == 1 ? kRescale : 1.0, &worst)) {
            r.failed += 1;
            r.line("WRONG %s rep %d: step %d off spmv_exact by %.3g (tolerance %.1g)",
                   p.name.c_str(), rep, k, worst, kRelTol);
          }
          off += now_s() - c0;
        }
        normalise<float>(sess->iterate(), rows);
      }
      const double t2 = now_s();
      setup += t1 - t0;
      solve += t2 - t1 - off;

      // Off the clock and right after this script: the plain loop, once
      // per column, paired with this repetition's steps for vs_omp_rows.
      {
        std::vector<float> y(rows);
        const std::span<const float> x(p.x0.data(), static_cast<std::size_t>(p.a->cols()));
        std::vector<double> ts;
        for (int k = 0; k < kOmpReps; ++k) {
          const double k0 = now_s();
          spmv::kernels::spmv_omp_rows<float>(*p.a, x, y);
          ts.push_back(now_s() - k0);
        }
        const std::vector<double> steps(s.steps.begin() + static_cast<std::ptrdiff_t>(first_step),
                                        s.steps.end());
        s.omp_x8.push_back(kWidth * median(ts));
        s.ratios.push_back(kWidth * median(ts) / median(steps));
        r.attempted += 1;
        if (!matches(p.omp_ref, y)) {
          r.failed += 1;
          r.line("WRONG %s rep %d: spmv_omp_rows off spmv_exact", p.name.c_str(), rep);
        }
      }

      // Off the clock: the final iterate against the reference.
      double worst = 0;
      r.attempted += 1;
      if (!close_to(sess->iterate(), p.expect, rows, &worst)) {
        r.failed += 1;
        r.line("WRONG %s rep %d: iterate off the reference by %.3g (tolerance %.1g)",
               p.name.c_str(), rep, worst, kIterTol);
      }
      const auto st = sess->stats();
      const auto ad = sess->adapt_stats();
      s.planning += st.planning_passes;
      s.rebinds += st.structure_rebinds;
      s.iterations += st.iterations;
      s.exec_s += st.exec_total_s;
      s.l_trials += ad.l_trials;
      s.l_promotions += ad.l_promotions;
      const auto plan = sess->plan();
      s.non_csr = static_cast<std::uint64_t>(std::count_if(
          plan.bin_kernels.begin(), plan.bin_kernels.end(),
          [](const auto& b) { return b.format != spmv::fmt::FormatKind::Csr; }));
      sess.reset();  // flushes into `profile`
      if (traced) fallback += profile.spmm_fallback_columns;
    }
    return std::pair{setup, solve};
  };

  // The script repeats while time remains (at least kMinReps times). A
  // traced run spends the first half untraced and the second traced.
  const double start = now_s();
  const double half = o.trace ? start + o.seconds / 2 : start + o.seconds;
  if (o.trace) tracer_enable(false);
  for (int rep = 0; rep < kMinReps || now_s() < half; ++rep) {
    const auto [su, so] = repetition(rep, false);
    setups.push_back(su);
    solves.push_back(so);
  }
  if (o.trace) {
    tracer_enable(true);
    for (auto& s : smp) s = Samples{};
    program_trace_start();
    for (int rep = 0; rep < kMinReps || now_s() < start + o.seconds; ++rep)
      solves_traced.push_back(repetition(1000 + rep, true).second);
    program_trace_collect();
  }

  double p50 = 0, p99 = 0, flops = 0;
  double p99_pct = 99;
  std::vector<double> ratio;
  r.line("%-12s %10s %10s %11s %11s %11s %8s", "matrix", "rows", "nnz",
         "step_p50_s", "step_tail_s", "omp_x8_s", "vs_omp");
  for (std::size_t m = 0; m < probs.size(); ++m) {
    const auto& v = smp[m].steps;
    const Tail t = tail(v, 99);
    p50 += median(v);
    p99 += t.value;
    p99_pct = std::min(p99_pct, t.pct);
    flops += 2.0 * static_cast<double>(probs[m].a->nnz()) * kWidth * kSteps[m];
    ratio.push_back(median(smp[m].ratios));
    r.line("%-12s %10d %10lld %11.6g %11.6g %11.6g %8.3f", probs[m].name.c_str(),
           probs[m].a->rows(), static_cast<long long>(probs[m].a->nnz()),
           median(v), t.value, median(smp[m].omp_x8), ratio.back());
  }
  const double solve_s = median(solves);
  const Tail light = tail(smp[0].steps, 95);
  r.line("%zu repetitions: setup median %.6g s, solve median %.6g s; step tails "
         "at p%g or higher; light (apache1) p%g of %zu steps",
         solves.size(), median(setups), solve_s, p99_pct, light.pct, light.n);

  if (!o.trace) {
    r.metric("spmv_gflops", flops / solve_s * 1e-9, "GFLOP/s");
    r.metric("vs_omp_rows", geomean(ratio), "ratio");
    r.metric("setup_s", median(setups), "s");
    r.metric("max_rate_rps",
             (kSteps[0] + kSteps[1] + kSteps[2]) / solve_s, "req/s");
    r.metric("solve_s", solve_s, "s");
    r.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    return r;
  }

  Samples all;
  std::vector<double> updates;
  double spmm_flops = 0;
  for (std::size_t m = 0; m < probs.size(); ++m) {
    const auto& s = smp[m];
    all.steps.insert(all.steps.end(), s.steps.begin(), s.steps.end());
    updates.insert(updates.end(), s.updates.begin(), s.updates.end());
    all.refresh_s += s.refresh_s;
    all.planning += s.planning;
    all.rebinds += s.rebinds;
    all.l_trials += s.l_trials;
    all.l_promotions += s.l_promotions;
    all.non_csr += s.non_csr;
    all.exec_s += s.exec_s;
    spmm_flops += 2.0 * static_cast<double>(probs[m].a->nnz()) * kWidth *
                  static_cast<double>(s.iterations);
  }
  const double reps = static_cast<double>(solves_traced.size());
  r.metric("request.p50_s", p50, "s");
  r.metric("request.p99_s", p99, "s");
  r.metric("request.p95_s.light", light.value, "s");
  r.metric("exec.spmm_gflops", all.exec_s > 0 ? spmm_flops / all.exec_s * 1e-9 : 0.0,
           "GFLOP/s");
  r.metric("exec.spmm_fallback_columns",
           static_cast<double>(fallback) / reps, "count");
  r.metric("fmt.non_csr_bins", static_cast<double>(all.non_csr), "count");
  r.metric("fmt.refresh_s", all.refresh_s / reps, "s");
  r.metric("adapt.l_trials", static_cast<double>(all.l_trials) / reps, "count");
  r.metric("adapt.l_promotions", static_cast<double>(all.l_promotions) / reps, "count");
  r.metric("iter.step_p50_s", median(all.steps), "s");
  r.metric("iter.step_p99_s", tail(all.steps, 99).value, "s");
  r.metric("iter.update_values_s", median(updates), "s");
  r.metric("iter.planning_passes", static_cast<double>(all.planning) / reps, "count");
  r.metric("iter.structure_rebinds", static_cast<double>(all.rebinds), "count");
  r.metric("trace.overhead_frac", median(solves_traced) / solve_s - 1.0, "ratio");
  for (const auto& [name, self] : self_times())
    r.line("self time %-28s %.6g s", name.c_str(), self);
  return r;
}

}  // namespace perfbench
