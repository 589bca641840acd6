#include "adapt/bandit.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <string>
#include <utility>

#include "exec/backend.hpp"
#include "fmt/estimate.hpp"
#include "fmt/layout.hpp"
#include "trace/trace.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace spmv::adapt {

namespace {

/// Non-zeros covered by a bin's virtual rows (same computation as the
/// exhaustive tuner's workload accounting).
template <typename T>
std::int64_t bin_nnz(const CsrMatrix<T>& a, std::span<const index_t> vrows,
                     index_t unit) {
  std::int64_t total = 0;
  const index_t rows = a.rows();
  for (index_t v : vrows) {
    const index_t lo = v * unit;
    const index_t hi = std::min<index_t>(lo + unit, rows);
    total += static_cast<std::int64_t>(a.row_ptr()[hi] - a.row_ptr()[lo]);
  }
  return total;
}

/// Flops of one product over `nnz` non-zeros (at least one, so an empty
/// bin still scores finitely).
double flops_of(std::int64_t nnz) {
  return 2.0 * static_cast<double>(std::max<std::int64_t>(1, nnz));
}

double gflops_of(double flops, double seconds) {
  return flops / std::max(seconds, 1e-12) * 1e-9;
}

/// Timed execution of one whole plan: every listed bin launched with its
/// kernel, scored as 2*nnz / seconds. A kernel that cannot run earns a
/// zero-reward sample instead of crashing the worker.
template <typename T>
double whole_plan_gflops(const exec::Backend& backend, const CsrMatrix<T>& a,
                         std::span<const T> x, const binning::BinSet& bins,
                         const std::vector<core::BinPlan>& bin_kernels) {
  std::vector<T> y(static_cast<std::size_t>(a.rows()));
  try {
    util::Timer t;
    for (const core::BinPlan& bp : bin_kernels) {
      if (bp.bin_id >= bins.bin_count()) continue;
      const auto& vrows = bins.bin(bp.bin_id);
      if (vrows.empty()) continue;
      backend.run_binned(bp.kernel, a, x, std::span<T>(y),
                         std::span<const index_t>(vrows), bins.unit());
    }
    return gflops_of(flops_of(a.nnz()), t.elapsed_s());
  } catch (const std::exception& e) {
    util::log_warn() << "adapt whole-plan trial failed (U=" << bins.unit()
                     << ", backend=" << exec::backend_name(backend.kind())
                     << "): " << e.what();
    return 0.0;
  }
}

/// Timed execution of one bin: CSR runs `kernel` on the shared arrays, any
/// other format builds the layout OUTSIDE the timed section and launches
/// the backend's layout kernel. A layout the builder rejects returns the
/// negative rejection sentinel; a kernel that cannot run earns a
/// zero-reward sample. Neither crashes the worker.
template <typename T>
double bin_gflops(const exec::Backend& backend, const CsrMatrix<T>& a,
                  std::span<const T> x, std::span<T> y,
                  std::span<const index_t> vrows, index_t unit,
                  kernels::KernelId kernel, fmt::FormatKind format,
                  int bin_id, double flops) {
  fmt::BinLayout<T> layout;
  if (format != fmt::FormatKind::Csr) {
    try {
      layout = fmt::build_bin_layout(a, vrows, unit, format, bin_id);
    } catch (const std::exception& e) {
      util::log_warn() << "adapt format trial: builder rejected bin "
                       << bin_id << " as " << fmt::format_cname(format)
                       << " (excluded from future trials): " << e.what();
      return -1.0;
    }
  }
  try {
    util::Timer t;
    if (format == fmt::FormatKind::Csr)
      backend.run_binned(kernel, a, x, y, vrows, unit);
    else
      backend.run_layout(a, layout, x, y);
    return gflops_of(flops, t.elapsed_s());
  } catch (const std::exception& e) {
    util::log_warn() << "adapt trial failed (bin " << bin_id << ", "
                     << kernels::kernel_name(kernel) << "/"
                     << fmt::format_cname(format) << "): " << e.what();
    return 0.0;
  }
}

/// Per-level trace names, counters and log wording. A null counter means
/// the level is counted in the shared `trials`/`promotions` only.
struct LevelTelemetry {
  const char* name;
  const char* trial_span;
  const char* promote_instant;
  std::uint64_t prof::AdaptStats::*trials;
  std::uint64_t prof::AdaptStats::*promotions;
};

using S = prof::AdaptStats;
constexpr LevelTelemetry kShadowTelemetry[] = {
    {"kernel", "adapt-trial", "adapt-promote", nullptr, nullptr},
    {"U", "adapt-trial-u", "adapt-promote-u", &S::u_trials, &S::u_promotions},
    {"backend", "adapt-trial-backend", "adapt-promote-backend", &S::b_trials,
     &S::b_promotions},
    {"format", "adapt-trial-format", "adapt-promote-format", &S::f_trials,
     &S::f_promotions},
};
constexpr LevelTelemetry kLatencyTelemetry = {
    "latency-feedback kernel", nullptr, "adapt-promote-latency", &S::l_trials,
    &S::l_promotions};

const LevelTelemetry& shadow_telemetry(Level level) {
  return kShadowTelemetry[static_cast<int>(level) - 1];
}

std::string arm_label(kernels::KernelId k) { return kernels::kernel_name(k); }
std::string arm_label(index_t u) { return std::to_string(u); }
std::string arm_label(exec::BackendKind k) { return exec::backend_name(k); }
std::string arm_label(fmt::FormatKind k) { return fmt::format_cname(k); }

}  // namespace

template <typename T>
BanditTuner<T>::BanditTuner(AdaptOptions opts)
    : opts_(std::move(opts)), rng_(opts_.seed) {
  if (opts_.kernel_pool.empty()) opts_.kernel_pool = kernels::all_kernels();
  opts_.hot_bins = std::max(1, opts_.hot_bins);
  opts_.min_samples = std::max(1, opts_.min_samples);
  opts_.cooldown = std::max(0, opts_.cooldown);
  if (opts_.unit_pool.empty())
    opts_.unit_pool = binning::default_granularity_pool();
  std::sort(opts_.unit_pool.begin(), opts_.unit_pool.end());
  opts_.unit_pool.erase(
      std::unique(opts_.unit_pool.begin(), opts_.unit_pool.end()),
      opts_.unit_pool.end());
}

template <typename T>
template <typename Key>
Key BanditTuner<T>::pick(const ArmTable<Key>& t, std::span<const Key> fresh,
                         std::span<const Key> pool, Key incumbent,
                         double epsilon) {
  const auto live = [&](Key k) {
    return k != incumbent && !t.rejected.contains(k);
  };
  const auto samples = [&](Key k) {
    const auto it = t.arms.find(k);
    return it == t.arms.end() ? std::uint64_t{0} : it->second.samples;
  };
  // Unexplored arms first, in `fresh` order — every candidate gets one
  // sample before exploitation starts.
  for (Key k : fresh)
    if (live(k) && samples(k) == 0) return k;

  std::vector<Key> candidates;
  for (Key k : pool)
    if (live(k)) candidates.push_back(k);
  if (candidates.empty()) return incumbent;
  // Epsilon-greedy: explore a random live arm, otherwise exploit the best
  // sampled mean.
  if (epsilon > 0.0 && rng_.uniform() < epsilon)
    return candidates[rng_.bounded(candidates.size())];
  Key best = incumbent;
  double best_mean = -1.0;
  for (Key k : candidates) {
    const auto it = t.arms.find(k);
    if (it == t.arms.end() || it->second.samples == 0) continue;
    if (it->second.mean_gflops > best_mean) {
      best_mean = it->second.mean_gflops;
      best = k;
    }
  }
  return best;
}

template <typename T>
template <typename Key, typename TimeArm, typename NextPlan>
std::optional<typename BanditTuner<T>::Promotion> BanditTuner<T>::run_trial(
    KeyState& st, ArmTable<Key>& t, const Trial<Key>& tr,
    const core::Plan& plan, TimeArm&& time_arm, NextPlan&& next_plan) {
  double inc_gflops = 0.0;
  double ch_gflops = 0.0;
  {
    trace::TraceSpan span(shadow_telemetry(tr.level).trial_span, "adapt");
    if (tr.bin >= 0) span.arg("bin", tr.bin);
    span.arg(tr.level == Level::Unit ? "unit" : "challenger",
             static_cast<std::int64_t>(tr.challenger));
    if (opts_.measure_override) {
      inc_gflops = opts_.measure_override(
          tr.level, tr.bin, static_cast<std::int64_t>(tr.incumbent));
      ch_gflops = opts_.measure_override(
          tr.level, tr.bin, static_cast<std::int64_t>(tr.challenger));
    } else {
      // Incumbent first, challenger second, back-to-back.
      inc_gflops = time_arm(tr.incumbent);
      ch_gflops = time_arm(tr.challenger);
    }
  }
  return settle(st, t, tr, inc_gflops, ch_gflops, plan,
                std::forward<NextPlan>(next_plan));
}

template <typename T>
template <typename Key, typename NextPlan>
std::optional<typename BanditTuner<T>::Promotion> BanditTuner<T>::settle(
    KeyState& st, ArmTable<Key>& t, const Trial<Key>& tr,
    std::optional<double> inc_gflops, double ch_gflops,
    const core::Plan& plan, NextPlan&& next_plan) {
  // A negative measurement is the builder-rejection sentinel: exclude the
  // arm from future picks and record a zero-reward sample.
  const auto record = [&t](Key k, double gflops) {
    if (gflops < 0.0) {
      t.rejected.insert(k);
      gflops = 0.0;
    }
    t.arms[k].add(gflops);
    return gflops;
  };
  const bool shadow = inc_gflops.has_value();
  const LevelTelemetry& tel =
      shadow ? shadow_telemetry(tr.level) : kLatencyTelemetry;
  const double inc = shadow ? record(tr.incumbent, *inc_gflops)
                            : t.arms[tr.incumbent].mean_gflops;
  const double ch = record(tr.challenger, ch_gflops);
  if (shadow) stats_.trials += 1;
  if (tel.trials != nullptr) stats_.*tel.trials += 1;
  // Regret = wall time lost to a challenger slower than the incumbent
  // (what exploration cost on this trial).
  if (ch > 0.0 && inc > ch)
    stats_.regret_s += tr.flops * 1e-9 / ch - tr.flops * 1e-9 / inc;

  // The one promotion rule.
  const Arm& inc_arm = t.arms[tr.incumbent];
  const Arm& ch_arm = t.arms[tr.challenger];
  const auto min_n = static_cast<std::uint64_t>(opts_.min_samples);
  if (inc_arm.samples < min_n || ch_arm.samples < min_n) return std::nullopt;
  if (ch_arm.mean_gflops <= inc_arm.mean_gflops * opts_.hysteresis)
    return std::nullopt;

  Promotion promo;
  promo.plan = next_plan();
  promo.plan.revision = plan.revision + 1;
  promo.gflops = ch_arm.mean_gflops;
  promo.level = static_cast<std::uint8_t>(tr.level);
  stats_.promotions += 1;
  if (tel.promotions != nullptr) stats_.*tel.promotions += 1;
  st.cooldown[static_cast<int>(tr.level)] = opts_.cooldown;
  trace::emit_instant(tel.promote_instant, "adapt");
  auto log = util::log_info();
  log << "adapt: " << tel.name << " promotion";
  if (tr.bin >= 0) log << " on bin " << tr.bin;
  log << ": " << arm_label(tr.incumbent) << " -> " << arm_label(tr.challenger)
      << " (" << inc_arm.mean_gflops << " -> " << ch_arm.mean_gflops
      << " GFLOP/s, revision " << promo.plan.revision << ")";
  return promo;
}

template <typename T>
kernels::KernelId BanditTuner<T>::seed_kernel(const KeyState& st,
                                              const core::Plan& plan,
                                              int bin_id) const {
  // Bin id approximates the average row length inside the bin (workload /
  // U with workload ~= U * avg_len), independent of U — so knowledge about
  // bin b under the old granularity transfers to bin b under the new one.
  // Best sampled kernel arm first:
  if (const auto it = st.kernels.find(bin_id); it != st.kernels.end()) {
    bool any = false;
    kernels::KernelId best = kernels::KernelId::Serial;
    double best_mean = 0.0;
    for (kernels::KernelId id : opts_.kernel_pool) {
      const auto arm = it->second.arms.find(id);
      if (arm == it->second.arms.end() || arm->second.samples == 0) continue;
      if (!any || arm->second.mean_gflops > best_mean) {
        any = true;
        best = id;
        best_mean = arm->second.mean_gflops;
      }
    }
    if (any) return best;
  }
  // Then the incumbent plan's own choice for the same bin id:
  for (const core::BinPlan& bp : plan.bin_kernels)
    if (bp.bin_id == bin_id) return bp.kernel;
  // Finally the lanes-per-row heuristic (the HeuristicPredictor's shape):
  // pick the pool kernel whose 4*lanes is log-closest to the bin's
  // estimated row length.
  const double target = std::log(static_cast<double>(std::max(1, bin_id)));
  kernels::KernelId best = opts_.kernel_pool.front();
  double best_d = std::numeric_limits<double>::infinity();
  for (kernels::KernelId id : opts_.kernel_pool) {
    const double d = std::abs(
        std::log(4.0 * static_cast<double>(kernels::lanes_per_row(id))) -
        target);
    if (d < best_d) {
      best_d = d;
      best = id;
    }
  }
  return best;
}

template <typename T>
int BanditTuner<T>::next_hot_bin(KeyState& st) {
  const int bin = st.hot[st.next_hot % st.hot.size()];
  st.next_hot += 1;
  return bin;
}

template <typename T>
std::optional<typename BanditTuner<T>::Promotion>
BanditTuner<T>::kernel_trial(KeyState& st, const core::Plan& plan,
                             const binning::BinSet& bins,
                             const CsrMatrix<T>& a, std::span<const T> x) {
  const int bin = next_hot_bin(st);
  const kernels::KernelId incumbent = plan.kernel_for(bin);
  ArmTable<kernels::KernelId>& t = st.kernels[bin];
  const std::span<const kernels::KernelId> pool(opts_.kernel_pool);
  const kernels::KernelId challenger =
      pick(t, pool, pool, incumbent, opts_.epsilon);
  if (challenger == incumbent) return std::nullopt;

  const auto vrows = std::span<const index_t>(bins.bin(bin));
  const double flops = flops_of(bin_nnz(a, vrows, bins.unit()));
  // Both launches on the plan's own backend: kernel arms compare thread
  // shapes under the backend the plan actually runs on.
  const exec::Backend& backend = *exec::shared_backend(plan.backend);
  std::vector<T> y;
  return run_trial(
      st, t, Trial<kernels::KernelId>{Level::Kernel, bin, incumbent, challenger,
                                      flops},
      plan,
      [&](kernels::KernelId k) {
        y.resize(static_cast<std::size_t>(a.rows()));
        return bin_gflops(backend, a, x, std::span<T>(y), vrows, bins.unit(),
                          k, fmt::FormatKind::Csr, bin, flops);
      },
      [&] {
        // The old incumbent's mean trails the new one by at least the
        // hysteresis factor and survives the revision bump, so it cannot
        // flap straight back.
        core::Plan next = plan;
        for (core::BinPlan& bp : next.bin_kernels)
          if (bp.bin_id == bin) bp.kernel = challenger;
        return next;
      });
}

template <typename T>
std::optional<typename BanditTuner<T>::Promotion> BanditTuner<T>::unit_trial(
    KeyState& st, const core::Plan& plan, const binning::BinSet& bins,
    const CsrMatrix<T>& a, std::span<const T> x) {
  // Hill-climbing: the incumbent's grid neighbors are the unexplored arms
  // tried first; epsilon jumps and exploitation range over the whole pool.
  const index_t incumbent = bins.unit();
  const std::vector<index_t>& pool = opts_.unit_pool;
  const auto it = std::lower_bound(pool.begin(), pool.end(), incumbent);
  const auto idx = static_cast<std::size_t>(it - pool.begin());
  const bool exact = it != pool.end() && *it == incumbent;
  std::vector<index_t> neighbors;
  if (idx > 0) neighbors.push_back(pool[idx - 1]);
  if (exact && idx + 1 < pool.size()) neighbors.push_back(pool[idx + 1]);
  if (!exact && idx < pool.size()) neighbors.push_back(pool[idx]);
  const index_t challenger =
      pick<index_t>(st.units, neighbors, pool, incumbent, opts_.epsilon);
  if (challenger == incumbent || challenger <= 0) return std::nullopt;

  // Re-bin at the challenger granularity OUTSIDE the timed section (a
  // promotion pays planning once; the arms compare steady-state execution
  // throughput) and seed each candidate bin's kernel from the kernel arms.
  const binning::BinSet cbins = binning::bin_matrix(a, challenger);
  std::vector<core::BinPlan> ckernels;
  for (int b : cbins.occupied_bins())
    ckernels.push_back({b, seed_kernel(st, plan, b)});
  if (ckernels.empty()) return std::nullopt;

  // Both granularities timed on the plan's own backend — U arms compare
  // binning structure, not execution engines.
  const exec::Backend& backend = *exec::shared_backend(plan.backend);
  return run_trial(
      st, st.units,
      Trial<index_t>{Level::Unit, -1, incumbent, challenger,
                     flops_of(a.nnz())},
      plan,
      [&](index_t u) {
        return u == incumbent
                   ? whole_plan_gflops(backend, a, x, bins, plan.bin_kernels)
                   : whole_plan_gflops(backend, a, x, cbins, ckernels);
      },
      [&] {
        // A fully rebuilt plan carrying tuned-U provenance. The caller's
        // PlanCache::promote re-bins through the Tuner path and the store
        // write-through persists the corrected U.
        core::Plan next;
        next.unit = challenger;
        next.single_bin = false;
        next.backend = plan.backend;
        next.unit_tuned = true;
        next.predicted_unit =
            plan.predicted_unit != 0 ? plan.predicted_unit : plan.unit;
        next.bin_kernels = ckernels;
        return next;
      });
}

template <typename T>
std::optional<typename BanditTuner<T>::Promotion>
BanditTuner<T>::backend_trial(KeyState& st, const core::Plan& plan,
                              const binning::BinSet& bins,
                              const CsrMatrix<T>& a, std::span<const T> x) {
  // Two backends: the one non-incumbent arm is both the unexplored and the
  // greedy pick, so the picker makes no random draw (epsilon 0).
  const std::span<const exec::BackendKind> pool(exec::all_backends());
  const exec::BackendKind incumbent = plan.backend;
  const exec::BackendKind challenger =
      pick(st.backends, pool, pool, incumbent, 0.0);
  if (challenger == incumbent) return std::nullopt;

  // Identical bins and kernels on both arms — they isolate the execution
  // engine, nothing else.
  return run_trial(
      st, st.backends,
      Trial<exec::BackendKind>{Level::Backend, -1, incumbent, challenger,
                               flops_of(a.nnz())},
      plan,
      [&](exec::BackendKind k) {
        return whole_plan_gflops(*exec::shared_backend(k), a, x, bins,
                                 plan.bin_kernels);
      },
      [&] {
        // Bins and kernels untouched; ensure_state resets the other arm
        // levels when it next sees the new backend.
        core::Plan next = plan;
        next.backend = challenger;
        return next;
      });
}

template <typename T>
std::optional<typename BanditTuner<T>::Promotion> BanditTuner<T>::format_trial(
    KeyState& st, const core::Plan& plan, const binning::BinSet& bins,
    const CsrMatrix<T>& a, std::span<const T> x) {
  // Same hottest-bin rotation as the kernel trials — a format change pays
  // off where the non-zeros are.
  const int bin = next_hot_bin(st);
  const auto vrows = std::span<const index_t>(bins.bin(bin));

  // The pool is what the estimator deems plausible for this bin's shape
  // (CSR always included), so obviously hopeless layouts are never timed.
  const std::vector<fmt::FormatKind> pool =
      fmt::suitable_formats(fmt::compute_bin_features(a, vrows, bins.unit()));
  const fmt::FormatKind incumbent = plan.format_for(bin);
  ArmTable<fmt::FormatKind>& t = st.formats[bin];
  const fmt::FormatKind challenger = pick<fmt::FormatKind>(
      t, pool, pool, incumbent, opts_.epsilon);
  if (challenger == incumbent) return std::nullopt;

  const double flops = flops_of(bin_nnz(a, vrows, bins.unit()));
  // Both formats run the bin's planned kernel into the same scratch output.
  const exec::Backend& backend = *exec::shared_backend(plan.backend);
  const kernels::KernelId kernel = plan.kernel_for(bin);
  std::vector<T> y;
  return run_trial(
      st, t,
      Trial<fmt::FormatKind>{Level::Format, bin, incumbent, challenger, flops},
      plan,
      [&](fmt::FormatKind f) {
        y.resize(static_cast<std::size_t>(a.rows()));
        return bin_gflops(backend, a, x, std::span<T>(y), vrows, bins.unit(),
                          kernel, f, bin, flops);
      },
      [&] {
        // The serving layer's next AutoSpmv rebuild sees uses_formats()
        // and materializes the layout through the amortization policy.
        core::Plan next = plan;
        for (core::BinPlan& bp : next.bin_kernels)
          if (bp.bin_id == bin) bp.format = challenger;
        return next;
      });
}

template <typename T>
bool BanditTuner<T>::ensure_state(KeyState& st, const core::Plan& plan,
                                  const binning::BinSet& bins,
                                  const CsrMatrix<T>& a) {
  if (st.hot.empty() || st.unit != bins.unit() ||
      st.backend != static_cast<int>(plan.backend) ||
      st.plan_revision != plan.revision) {
    if (st.backend != static_cast<int>(plan.backend)) {
      // Backend switched (a backend promotion landed): every kernel-,
      // unit- and format-arm mean was timed on the old execution engine.
      // The backend arms persist — they are cross-backend comparisons.
      st.kernels.clear();
      st.units = {};
      st.formats.clear();
      st.next_hot = 0;
    } else if (st.unit != bins.unit()) {
      // New key, or re-binned at a different granularity: bin ids now
      // cover different rows, so every per-bin measurement is stale.
      st.kernels.clear();
      st.formats.clear();
      st.next_hot = 0;
    }
    // Otherwise the plan moved at the same granularity (a promotion
    // landed, or a warm re-plan). Arm means are per-bin timings of the
    // matrix itself and stay valid, so keep them — resetting here would
    // restart exploration from scratch after every promotion.
    st.unit = bins.unit();
    st.backend = static_cast<int>(plan.backend);
    st.plan_revision = plan.revision;
    std::vector<std::pair<std::int64_t, int>> by_nnz;
    for (const core::BinPlan& bp : plan.bin_kernels) {
      if (bp.bin_id >= bins.bin_count()) continue;
      const auto& vrows = bins.bin(bp.bin_id);
      if (vrows.empty()) continue;
      by_nnz.emplace_back(
          bin_nnz(a, std::span<const index_t>(vrows), bins.unit()),
          bp.bin_id);
    }
    std::sort(by_nnz.begin(), by_nnz.end(), [](const auto& l, const auto& r) {
      return l.first > r.first || (l.first == r.first && l.second < r.second);
    });
    st.hot.clear();
    for (std::size_t i = 0;
         i < by_nnz.size() &&
         i < static_cast<std::size_t>(opts_.hot_bins);
         ++i)
      st.hot.push_back(by_nnz[i].second);
  }
  return !st.hot.empty();
}

template <typename T>
std::optional<typename BanditTuner<T>::Promotion> BanditTuner<T>::observe(
    const serve::Fingerprint& key, const core::Plan& plan,
    const binning::BinSet& bins, const CsrMatrix<T>& a,
    std::span<const T> x) {
  if (plan.bin_kernels.empty() || opts_.kernel_pool.size() < 2)
    return std::nullopt;

  // The mutex covers the whole trial (state + rng + the measurement
  // itself): trials are rare (trial_fraction of requests) and cheap, and
  // serializing them keeps back-to-back pairs honest — two concurrent
  // trials would time each other's contention.
  std::lock_guard<std::mutex> lock(mutex_);
  if (rng_.uniform() >= opts_.trial_fraction) return std::nullopt;

  KeyState& st = states_[key];
  if (!ensure_state(st, plan, bins, a)) return std::nullopt;

  // Each enabled extra level may divert the trial, in this fixed order
  // (the rng draws are: trial, then U, backend, format, then the
  // picker's epsilon). A level in cooldown ticks down instead of drawing.
  // Single-bin plans have no bin structure to re-tune, and format-blind
  // backends (clsim) stay CSR-everywhere.
  using TrialFn = std::optional<Promotion> (BanditTuner::*)(
      KeyState&, const core::Plan&, const binning::BinSet&,
      const CsrMatrix<T>&, std::span<const T>);
  struct Diversion {
    Level level;
    bool enabled;
    TrialFn run;
  };
  const Diversion diversions[] = {
      {Level::Unit,
       opts_.explore_units && !plan.single_bin && opts_.unit_pool.size() >= 2,
       &BanditTuner::unit_trial},
      {Level::Backend, opts_.explore_backends, &BanditTuner::backend_trial},
      {Level::Format,
       opts_.explore_formats &&
           exec::shared_backend(plan.backend)->supports_formats(),
       &BanditTuner::format_trial},
  };
  for (const Diversion& d : diversions) {
    if (!d.enabled) continue;
    int& cooldown = st.cooldown[static_cast<int>(d.level)];
    if (cooldown > 0)
      cooldown -= 1;
    else if (rng_.uniform() < opts_.explore_fraction)
      return (this->*d.run)(st, plan, bins, a, x);
  }
  return kernel_trial(st, plan, bins, a, x);
}

template <typename T>
typename BanditTuner<T>::LatencyVariant BanditTuner<T>::next_variant(
    const serve::Fingerprint& key, const core::Plan& plan,
    const binning::BinSet& bins, const CsrMatrix<T>& a) {
  LatencyVariant v;
  v.plan = plan;
  if (plan.bin_kernels.empty() || opts_.kernel_pool.size() < 2) return v;

  std::lock_guard<std::mutex> lock(mutex_);
  KeyState& st = states_[key];
  if (!ensure_state(st, plan, bins, a)) return v;

  const int bin = st.hot[st.next_hot % st.hot.size()];
  v.bin = bin;
  v.incumbent = plan.kernel_for(bin);
  v.kernel = v.incumbent;
  if (!st.l_challenge_next) {
    // Incumbent iteration: execute the plan verbatim and credit its own
    // kernel on the rotated hot bin. The paired challenger iteration that
    // follows differs only on that bin, so the whole-plan latencies are an
    // apples-to-apples comparison of the two kernels.
    st.l_challenge_next = true;
    return v;
  }
  st.l_challenge_next = false;
  st.next_hot += 1;  // move to the next hot bin after each paired round
  const std::span<const kernels::KernelId> pool(opts_.kernel_pool);
  const kernels::KernelId challenger =
      pick(st.kernels[bin], pool, pool, v.incumbent, opts_.epsilon);
  if (challenger == v.incumbent) return v;
  v.kernel = challenger;
  v.challenger = true;
  for (core::BinPlan& bp : v.plan.bin_kernels)
    if (bp.bin_id == bin) bp.kernel = challenger;
  return v;
}

template <typename T>
std::optional<typename BanditTuner<T>::Promotion> BanditTuner<T>::feedback(
    const serve::Fingerprint& key, const LatencyVariant& variant,
    double seconds, std::int64_t nnz) {
  if (variant.bin < 0) return std::nullopt;
  const double flops = flops_of(nnz);
  const double gflops = gflops_of(flops, seconds);

  std::lock_guard<std::mutex> lock(mutex_);
  KeyState& st = states_[key];
  ArmTable<kernels::KernelId>& t = st.kernels[variant.bin];
  if (!variant.challenger) {
    t.arms[variant.kernel].add(gflops);
    return std::nullopt;
  }
  // The variant plan already carries the challenger on the bin; the
  // session applies a promotion (and its SpMM width provenance) exactly
  // like a shadow promotion.
  return settle(st, t,
                Trial<kernels::KernelId>{Level::Kernel, variant.bin,
                                         variant.incumbent, variant.kernel,
                                         flops},
                std::nullopt, gflops, variant.plan,
                [&] { return variant.plan; });
}

template <typename T>
prof::AdaptStats BanditTuner<T>::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

template class BanditTuner<float>;
template class BanditTuner<double>;

}  // namespace spmv::adapt
