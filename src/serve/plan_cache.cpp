#include "serve/plan_cache.hpp"

#include <chrono>
#include <stdexcept>
#include <utility>

#include "core/tuner.hpp"
#include "util/log.hpp"

namespace spmv::serve {

template <typename T>
PlanCache<T>::PlanCache(const core::Predictor& predictor,
                        std::size_t capacity, adapt::PlanStore* store,
                        exec::BackendKind default_backend,
                        fmt::FormatMode format_mode)
    : predictor_(predictor),
      capacity_(capacity),
      store_(store),
      default_backend_(default_backend),
      format_mode_(format_mode) {
  if (capacity_ == 0)
    throw std::invalid_argument("PlanCache: capacity must be >= 1");
}

template <typename T>
std::shared_ptr<const typename PlanCache<T>::Entry> PlanCache<T>::get(
    const std::shared_ptr<const CsrMatrix<T>>& matrix) {
  if (matrix == nullptr)
    throw std::invalid_argument("PlanCache::get: null matrix");
  const Fingerprint key = fingerprint_of(*matrix);

  std::promise<std::shared_ptr<const Entry>> promise;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (const auto it = slots_.find(key); it != slots_.end()) {
      // Hit (possibly on an entry still being planned by another thread).
      stats_.hits += 1;
      lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
      EntryFuture f = it->second.future;
      lock.unlock();  // the planning pass may still be in flight
      return f.get();
    }
    stats_.misses += 1;
    if (slots_.size() >= capacity_) {
      // Evict the least recently used slot. An in-flight build keeps
      // running (its waiters hold the shared_future); it just won't be
      // cached once evicted.
      const Fingerprint victim = lru_.back();
      lru_.pop_back();
      slots_.erase(victim);
      stats_.evictions += 1;
    }
    lru_.push_front(key);
    slots_.emplace(key, Slot{promise.get_future().share(), lru_.begin()});
  }

  // Plan outside the lock so a slow build never blocks hits on other keys.
  // A warm store entry rebuilds from the stored plan (no predictor pass);
  // otherwise the predictor plans and the result is written through.
  try {
    std::optional<adapt::StoredPlan> stored;
    if (store_ != nullptr) stored = store_->lookup(key);
    std::shared_ptr<const Entry> entry;
    if (stored.has_value()) {
      entry = std::shared_ptr<const Entry>(new Entry{
          key, matrix,
          core::Tuner(*matrix).plan(stored->plan).build()});
      std::lock_guard<std::mutex> lock(mutex_);
      stats_.warm_hits += 1;
    } else {
      entry = std::shared_ptr<const Entry>(new Entry{
          key, matrix,
          core::Tuner(*matrix)
              .predictor(predictor_)
              .backend(default_backend_)
              .formats(format_mode_)
              .build()});
      if (store_ != nullptr)
        store_->put(key, adapt::StoredPlan{entry->runtime.plan()});
      std::lock_guard<std::mutex> lock(mutex_);
      stats_.planning_passes += 1;
    }
    promise.set_value(entry);
    return entry;
  } catch (...) {
    promise.set_exception(std::current_exception());
    std::lock_guard<std::mutex> lock(mutex_);
    if (const auto it = slots_.find(key); it != slots_.end()) {
      lru_.erase(it->second.lru_pos);
      slots_.erase(it);
    }
    throw;
  }
}

template <typename T>
std::shared_ptr<const typename PlanCache<T>::Entry> PlanCache<T>::promote(
    const Fingerprint& key, const core::Plan& plan, double gflops) {
  // Snapshot the current entry (the matrix to rebuild against). A slot
  // still mid-build or already evicted loses the promotion — acceptable:
  // promotions are opportunistic refinements, never required for
  // correctness.
  std::shared_ptr<const Entry> current;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    const auto it = slots_.find(key);
    if (it == slots_.end()) return nullptr;
    EntryFuture f = it->second.future;
    lock.unlock();
    if (f.wait_for(std::chrono::seconds(0)) != std::future_status::ready)
      return nullptr;
    try {
      current = f.get();
    } catch (...) {
      return nullptr;  // failed build still occupying the slot
    }
  }
  if (plan.revision <= current->runtime.plan().revision)
    return nullptr;  // stale: an equal-or-newer revision is already cached

  // Rebuild outside the lock (binning the matrix is the expensive part).
  std::shared_ptr<const Entry> replacement;
  try {
    replacement = std::shared_ptr<const Entry>(new Entry{
        key, current->matrix,
        core::Tuner(*current->matrix).plan(plan).build()});
  } catch (const std::exception& e) {
    util::log_warn() << "PlanCache::promote: rebuild failed, keeping "
                        "incumbent plan ("
                     << e.what() << ")";
    return nullptr;
  }

  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = slots_.find(key);
    if (it == slots_.end()) return nullptr;  // evicted while rebuilding
    // Re-validate monotonicity against whatever sits in the slot now (a
    // concurrent promotion may have won the race).
    if (it->second.future.wait_for(std::chrono::seconds(0)) !=
        std::future_status::ready)
      return nullptr;
    std::shared_ptr<const Entry> now;
    try {
      now = it->second.future.get();
    } catch (...) {
      return nullptr;
    }
    if (plan.revision <= now->runtime.plan().revision) return nullptr;
    std::promise<std::shared_ptr<const Entry>> ready;
    ready.set_value(replacement);
    it->second.future = ready.get_future().share();
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    stats_.promotions += 1;
    const core::Plan& replaced = now->runtime.plan();
    if (replaced.unit != plan.unit || replaced.single_bin != plan.single_bin)
      stats_.rebin_promotions += 1;
  }
  if (store_ != nullptr)
    store_->put(key, adapt::StoredPlan{replacement->runtime.plan(), gflops});
  return replacement;
}

template <typename T>
typename PlanCache<T>::Stats PlanCache<T>::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

template <typename T>
std::size_t PlanCache<T>::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return slots_.size();
}

template class PlanCache<float>;
template class PlanCache<double>;

}  // namespace spmv::serve
