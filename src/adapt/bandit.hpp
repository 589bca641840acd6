// spmv::adapt::BanditTuner — online plan refinement by shadow measurement.
//
// The serving layer plans once per matrix structure (predictor-driven or
// warm-started from a PlanStore) and then executes that plan forever. When
// the predictor mispredicts, the service is stuck with a slow plan. The
// BanditTuner fixes that without a stop-the-world retune: for a configurable
// fraction of served requests, the worker that just executed a batch also
// shadow-measures ONE alternative against the incumbent, back-to-back so
// the two samples see the same cache/frequency state. When a challenger has
// enough samples and beats the incumbent by the hysteresis margin, observe()
// returns a promoted Plan copy (revision + 1) for the caller to swap into
// its PlanCache.
//
// Four arm levels, all built from the same three pieces:
//
//   level 1  kernel   per (bin, kernel), GFLOP/s on one hot bin
//   level 2  unit     per granularity U, whole-plan GFLOP/s (explore_units)
//   level 3  backend  per exec::BackendKind, whole-plan (explore_backends)
//   level 4  format   per (bin, fmt::FormatKind), on one hot bin
//                     (explore_formats; format-capable backends only)
//
//  * One arm table per level (per bin for kernels and formats): a running
//    mean per arm plus the set of arms whose layout build was rejected —
//    a rejection is deterministic, so the arm is never picked again.
//  * One challenger picker: unexplored arms first, then epsilon-greedy
//    over the live non-incumbent arms. The U level's unexplored arms are
//    the incumbent's grid neighbors (hill-climbing); the backend level has
//    one non-incumbent arm and no random draw.
//  * One settle step: record the paired samples, the regret and the
//    per-level counters, then apply one promotion rule — `min_samples` on
//    both arms, the challenger's mean above `hysteresis` times the
//    incumbent's — and start the level's `cooldown` (levels 2-4).
//
// Each observe() trial is a kernel trial unless one of the enabled extra
// levels diverts it: U, then backend, then format, each with probability
// `explore_fraction` once its cooldown has run out. A U promotion re-bins
// the matrix (kernels seeded from the level-1 arms: bin id approximates the
// average row length regardless of U) and carries tuned-U provenance; a
// backend or format promotion re-stamps the plan. Arm means are reset only
// when their timings went stale: a granularity change resets the kernel
// and format arms (bin ids cover other rows), a backend change resets every
// arm but the backend arms. The arms that persist hold the evidence that
// demoted the old incumbent, which with the hysteresis margin stops an
// immediate flap back.
//
// Latency-feedback path (solver loops — spmv::iter): a workload that runs
// the SAME plan hundreds of times back-to-back does not need shadow
// launches — every iteration IS a measurement. next_variant() alternates
// the incumbent and a copy with ONE hot bin's kernel swapped to a
// challenger; feedback() scores the timed iteration in whole-plan GFLOP/s
// into the same kernel arms and runs the same settle step. Its trials count
// as adapt.l_trials, NOT adapt.trials, so a pure latency-feedback session
// reports trials == 0 == "no shadow launches".
//
// Everything is recorded: prof counters (adapt.trials / adapt.promotions /
// adapt.regret plus the u_, b_, f_ and l_ trial/promotion pairs) via
// stats(), and trace spans "adapt-trial", "adapt-trial-u",
// "adapt-trial-backend", "adapt-trial-format" with instants
// "adapt-promote", "adapt-promote-u", "adapt-promote-backend",
// "adapt-promote-format" and "adapt-promote-latency" in category "adapt".
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <span>
#include <unordered_map>
#include <vector>

#include "binning/binning.hpp"
#include "core/plan.hpp"
#include "exec/backend.hpp"
#include "fmt/format.hpp"
#include "kernels/registry.hpp"
#include "prof/profile.hpp"
#include "serve/fingerprint.hpp"
#include "sparse/csr.hpp"
#include "util/rng.hpp"

namespace spmv::adapt {

/// The arm levels, numbered like Promotion::level and
/// prof::Exemplar::promo_level.
enum class Level : std::uint8_t {
  Kernel = 1,
  Unit = 2,
  Backend = 3,
  Format = 4,
};

struct AdaptOptions {
  /// Fraction of observe() calls that run a shadow trial (the rest return
  /// immediately after one rng draw).
  double trial_fraction = 0.1;
  /// Samples required on BOTH the incumbent and the challenger arm before
  /// a promotion is considered, on every level.
  int min_samples = 3;
  /// Challenger's mean GFLOP/s must exceed incumbent's mean times this
  /// ratio to promote (1.10 = 10% better), on every level. Values <= 1
  /// promote on any win.
  double hysteresis = 1.10;
  /// Epsilon-greedy exploration rate of the challenger picker.
  double epsilon = 0.25;
  /// How many of the plan's hottest bins (by covered nnz) to rotate
  /// kernel and format trials through.
  int hot_bins = 2;
  /// Challenger kernel pool; empty = kernels::all_kernels().
  std::vector<kernels::KernelId> kernel_pool;
  /// Deterministic seed for trial sampling and exploration.
  std::uint64_t seed = 42;
  /// Trials to skip a level's diversion after that level promoted (U,
  /// backend and format levels), letting the new incumbent settle before
  /// it can be challenged again.
  int cooldown = 8;
  /// Of the trials observe() runs, the share each enabled extra level
  /// diverts to itself (U first, then backend, then format; the rest stay
  /// kernel trials).
  double explore_fraction = 0.25;

  /// Enable whole-plan shadow trials at neighboring granularities.
  bool explore_units = false;
  /// Candidate granularities; empty = binning::default_granularity_pool()
  /// (the paper's 10 .. 10^6 ladder). Sorted and deduplicated at
  /// construction.
  std::vector<index_t> unit_pool;
  /// Enable whole-plan shadow trials on the alternative exec backend.
  bool explore_backends = false;
  /// Enable per-bin shadow trials of alternative physical layouts. Only
  /// effective when the plan's backend supports formats (spmv::fmt);
  /// clsim plans stay CSR-everywhere and never divert trials here.
  bool explore_formats = false;

  /// Test seam: when set, replaces every timed launch of a shadow trial.
  /// Called for the incumbent arm, then the challenger, with the level,
  /// the trialed bin (-1 on the whole-plan unit and backend levels) and
  /// the arm (the KernelId, U, BackendKind or FormatKind as an integer);
  /// returns the "measured" GFLOP/s. A negative value is the
  /// builder-rejection sentinel: the arm is excluded from future picks and
  /// the trial records a zero-reward sample.
  std::function<double(Level, int, std::int64_t)> measure_override;
};

template <typename T>
class BanditTuner {
 public:
  /// A plan improvement found by observe() or feedback(): the refined plan
  /// (revision already bumped) and the challenger's mean throughput — on
  /// the trialed bin for kernel and format swaps, whole-plan otherwise.
  struct Promotion {
    core::Plan plan;
    double gflops = 0.0;
    /// Which arm level won (a Level value): 1 kernel, 2 unit (U, the plan
    /// was re-binned), 3 backend, 4 format — matching
    /// prof::Exemplar::promo_level, so a latency exemplar can name the
    /// provenance of the plan change that preceded it.
    std::uint8_t level = 1;
  };

  explicit BanditTuner(AdaptOptions opts);

  /// Consider one served request for a shadow trial. `plan`/`bins` are the
  /// cached entry's, `a`/`x` the request's own matrix and input vector
  /// (the trial runs real kernels against them unless measure_override is
  /// set). Returns a Promotion when this trial tipped a challenger past
  /// the hysteresis threshold; the caller owns applying it to its cache
  /// and store. Never throws on trial failure — a kernel that cannot run
  /// is recorded as a worthless arm.
  std::optional<Promotion> observe(const serve::Fingerprint& key,
                                   const core::Plan& plan,
                                   const binning::BinSet& bins,
                                   const CsrMatrix<T>& a,
                                   std::span<const T> x);

  /// One iteration's execution recipe for the latency-feedback path. The
  /// caller executes `plan` (the incumbent verbatim, or a copy with bin
  /// `bin`'s kernel swapped to `kernel` when `challenger` is true), times
  /// the iteration, and reports the wall time through feedback(). `bin` is
  /// -1 when the tuner has nothing to learn on this key (empty plan, no
  /// occupied bins, a one-kernel pool) — execute the plan and skip the
  /// feedback() call.
  struct LatencyVariant {
    core::Plan plan;
    int bin = -1;
    kernels::KernelId kernel = kernels::KernelId::Serial;
    /// The plan's own kernel on `bin` (== `kernel` on incumbent
    /// iterations); feedback() compares the two arms against it.
    kernels::KernelId incumbent = kernels::KernelId::Serial;
    bool challenger = false;
  };

  /// Pick which plan variant the next solver iteration should execute.
  /// Alternates incumbent / one-bin-challenger over the key's hottest bins
  /// so both arms accumulate paired whole-plan samples; never launches
  /// anything itself (trial_fraction does not apply — every iteration is a
  /// free measurement).
  LatencyVariant next_variant(const serve::Fingerprint& key,
                              const core::Plan& plan,
                              const binning::BinSet& bins,
                              const CsrMatrix<T>& a);

  /// Report a timed iteration of `variant`. Scores it as whole-plan
  /// GFLOP/s (2 * max(1, nnz) / seconds) into the (bin, kernel) arm and
  /// runs the shared settle step. Returns a Promotion (level 1, revision
  /// bumped) when this sample tipped the challenger past the bar; the
  /// caller owns applying it.
  std::optional<Promotion> feedback(const serve::Fingerprint& key,
                                    const LatencyVariant& variant,
                                    double seconds, std::int64_t nnz);

  [[nodiscard]] prof::AdaptStats stats() const;

 private:
  /// Running mean of one arm's GFLOP/s samples.
  struct Arm {
    std::uint64_t samples = 0;
    double mean_gflops = 0.0;
    void add(double gflops) {
      samples += 1;
      mean_gflops += (gflops - mean_gflops) / static_cast<double>(samples);
    }
  };

  /// One level's arm space on one key (kernels and formats: on one bin).
  template <typename Key>
  struct ArmTable {
    std::map<Key, Arm> arms;
    /// Arms whose layout build failed: deterministic dead weight, never
    /// picked again.
    std::set<Key> rejected;
  };

  /// One shadow or latency trial: what was compared, where, and the flops
  /// one measured launch moved (for regret).
  template <typename Key>
  struct Trial {
    Level level;
    int bin;  ///< -1 on whole-plan levels
    Key incumbent;
    Key challenger;
    double flops;
  };

  /// Per-fingerprint bandit state. Kernel- and format-arm means are
  /// per-bin measurements of the matrix itself, so they survive plan
  /// revision bumps; a granularity change resets them (bin ids then cover
  /// other rows). Unit arms are whole-plan measurements, valid across
  /// re-binning; a backend change resets everything but the backend arms.
  struct KeyState {
    std::uint64_t plan_revision = 0;
    index_t unit = -1;          ///< granularity the bin arms were measured at
    int backend = -1;           ///< backend the arms were measured on
    std::vector<int> hot;       ///< hottest occupied bins, descending nnz
    std::size_t next_hot = 0;   ///< round-robin cursor over `hot`
    std::unordered_map<int, ArmTable<kernels::KernelId>> kernels;
    ArmTable<index_t> units;
    ArmTable<exec::BackendKind> backends;
    std::unordered_map<int, ArmTable<fmt::FormatKind>> formats;
    /// Remaining trials before each level may divert again, indexed by
    /// Level (the kernel level never diverts, so its entry goes unread).
    int cooldown[5] = {};
    /// Latency-feedback phase: next_variant() alternates incumbent and
    /// challenger iterations so the arms accumulate paired samples.
    bool l_challenge_next = false;
  };

  /// Seed / revalidate a key's bandit state against the current plan and
  /// bins (hot-bin list, arm resets on unit/backend change). Shared by
  /// observe() and next_variant(); callers hold mutex_. Returns false when
  /// the plan has no occupied bins to learn on.
  bool ensure_state(KeyState& st, const core::Plan& plan,
                    const binning::BinSet& bins, const CsrMatrix<T>& a);

  /// The one challenger picker: the first unexplored live arm of `fresh`,
  /// else epsilon-greedy over the live arms of `pool` (live = not the
  /// incumbent, not rejected). Returns the incumbent when nothing is live.
  template <typename Key>
  Key pick(const ArmTable<Key>& t, std::span<const Key> fresh,
           std::span<const Key> pool, Key incumbent, double epsilon);

  /// Time both arms of a shadow trial back-to-back inside the level's trace
  /// span (or ask the measurement seam), then settle it. `time_arm` runs
  /// one arm for real and returns its GFLOP/s.
  template <typename Key, typename TimeArm, typename NextPlan>
  std::optional<Promotion> run_trial(KeyState& st, ArmTable<Key>& t,
                                     const Trial<Key>& tr,
                                     const core::Plan& plan,
                                     TimeArm&& time_arm, NextPlan&& next_plan);

  /// The one settle step: record the samples (`inc_gflops` is absent on
  /// the latency path, whose incumbent ran its own iteration), regret and
  /// counters, then apply the promotion rule. On a promotion, builds the
  /// plan via `next_plan()` and stamps revision, level, telemetry and the
  /// level's cooldown.
  template <typename Key, typename NextPlan>
  std::optional<Promotion> settle(KeyState& st, ArmTable<Key>& t,
                                  const Trial<Key>& tr,
                                  std::optional<double> inc_gflops,
                                  double ch_gflops, const core::Plan& plan,
                                  NextPlan&& next_plan);

  kernels::KernelId seed_kernel(const KeyState& st, const core::Plan& plan,
                                int bin_id) const;
  int next_hot_bin(KeyState& st);
  std::optional<Promotion> kernel_trial(KeyState& st, const core::Plan& plan,
                                        const binning::BinSet& bins,
                                        const CsrMatrix<T>& a,
                                        std::span<const T> x);
  std::optional<Promotion> unit_trial(KeyState& st, const core::Plan& plan,
                                      const binning::BinSet& bins,
                                      const CsrMatrix<T>& a,
                                      std::span<const T> x);
  std::optional<Promotion> backend_trial(KeyState& st, const core::Plan& plan,
                                         const binning::BinSet& bins,
                                         const CsrMatrix<T>& a,
                                         std::span<const T> x);
  std::optional<Promotion> format_trial(KeyState& st, const core::Plan& plan,
                                        const binning::BinSet& bins,
                                        const CsrMatrix<T>& a,
                                        std::span<const T> x);
  AdaptOptions opts_;

  mutable std::mutex mutex_;
  util::Xoshiro256 rng_;
  std::unordered_map<serve::Fingerprint, KeyState, serve::FingerprintHash>
      states_;
  prof::AdaptStats stats_;
};

extern template class BanditTuner<float>;
extern template class BanditTuner<double>;

}  // namespace spmv::adapt
