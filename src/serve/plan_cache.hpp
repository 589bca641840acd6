// PlanCache — an LRU cache of built AutoSpmv runtimes keyed by matrix
// fingerprint, so a serving workload pays the planning cost (feature
// extraction, prediction, binning) once per distinct matrix structure.
//
// Concurrency: get() is safe from any number of threads. Concurrent misses
// on the same fingerprint share ONE planning pass — the first requester
// builds while the rest block on a shared_future for the same entry. The
// build itself runs outside the cache lock, so planning one matrix never
// stalls hits on others. A failed build removes its slot (and rethrows),
// leaving later requests free to retry.
//
// Warm start: with a PlanStore attached, a miss first consults the store —
// a stored plan for the fingerprint rebuilds directly (counted as a
// warm_hit; the predictor never runs), and every predictor-driven plan is
// written through to the store so the next process restart warm-starts.
//
// Online refinement: promote() atomically swaps a cached entry's runtime
// for one rebuilt from an improved Plan (spmv::adapt promotions). Plan
// revisions are monotonic per key — a stale promotion (revision <= the
// cached plan's) is dropped, as is one whose entry was evicted meanwhile.
//
// Correctness note: the fingerprint hashes structure, not values (see
// fingerprint.hpp), so an Entry's runtime is bound to the *first* matrix
// seen with that structure. Callers that may hold structurally equal
// matrices with different values must execute through the entry's
// plan()/bins() against their own matrix (core::execute_plan) rather than
// calling entry->runtime.run() — that is exactly what SpmvService does.
#pragma once

#include <cstdint>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "adapt/plan_store.hpp"
#include "core/auto_spmv.hpp"
#include "exec/backend.hpp"
#include "core/predictor.hpp"
#include "fmt/format.hpp"
#include "serve/fingerprint.hpp"
#include "sparse/csr.hpp"

namespace spmv::serve {

template <typename T>
class PlanCache {
 public:
  /// A cached runtime plus shared ownership of the matrix it was planned
  /// for (the runtime holds references into *matrix).
  struct Entry {
    Fingerprint key;
    std::shared_ptr<const CsrMatrix<T>> matrix;
    core::AutoSpmv<T> runtime;
  };

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    /// Misses satisfied from the attached PlanStore (predictor skipped).
    std::uint64_t warm_hits = 0;
    /// Misses that ran a full predictor-driven planning pass.
    std::uint64_t planning_passes = 0;
    /// promote() calls that actually replaced a cached entry.
    std::uint64_t promotions = 0;
    /// Subset of promotions that swapped in a structurally different plan
    /// — a different granularity or single-bin flag, i.e. a U-exploration
    /// win that re-binned the matrix rather than re-picking one bin's
    /// kernel.
    std::uint64_t rebin_promotions = 0;
  };

  /// `predictor` is used for every planning pass and must outlive the
  /// cache, as must `store` when non-null (the cache does not
  /// load or flush the store — the owner does; see SpmvService).
  /// `default_backend` is the backend stamped onto fresh predictor-driven
  /// plans; warm-started and promoted plans execute on whatever backend
  /// they carry (backend is a plan property — see exec/backend.hpp), each
  /// kind on its exec::shared_backend instance.
  /// `format_mode` likewise applies only to fresh predictor-driven plans:
  /// Auto lets the fmt estimator stamp per-bin formats (effective only on
  /// format-capable backends); warm-started and promoted plans keep their
  /// recorded per-bin formats either way.
  /// Throws std::invalid_argument when capacity is 0.
  PlanCache(const core::Predictor& predictor, std::size_t capacity,
            adapt::PlanStore* store = nullptr,
            exec::BackendKind default_backend = exec::BackendKind::Clsim,
            fmt::FormatMode format_mode = fmt::FormatMode::Csr);

  /// Return the cached runtime for `matrix`'s structure, planning it (or
  /// waiting for a concurrent planner) on a miss. Rethrows the planning
  /// failure, if any.
  [[nodiscard]] std::shared_ptr<const Entry> get(
      const std::shared_ptr<const CsrMatrix<T>>& matrix);

  /// Swap the cached entry for `key` to a runtime rebuilt from `plan`
  /// (revision must be strictly greater than the cached plan's). Returns
  /// the new entry, or nullptr when the promotion lost — key evicted, a
  /// newer revision already cached, or the slot still mid-build. On
  /// success the improved plan is also written through to the store
  /// (`gflops` annotates the store entry).
  std::shared_ptr<const Entry> promote(const Fingerprint& key,
                                       const core::Plan& plan,
                                       double gflops = 0.0);

  [[nodiscard]] Stats stats() const;
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] adapt::PlanStore* store() const { return store_; }

 private:
  using EntryFuture = std::shared_future<std::shared_ptr<const Entry>>;

  struct Slot {
    EntryFuture future;
    std::list<Fingerprint>::iterator lru_pos;
  };

  const core::Predictor& predictor_;
  const std::size_t capacity_;
  adapt::PlanStore* store_;
  const exec::BackendKind default_backend_;
  const fmt::FormatMode format_mode_;

  mutable std::mutex mutex_;
  std::unordered_map<Fingerprint, Slot, FingerprintHash> slots_;
  std::list<Fingerprint> lru_;  ///< front = most recently used
  Stats stats_;
};

extern template class PlanCache<float>;
extern template class PlanCache<double>;

}  // namespace spmv::serve
