// Open-loop load generation shared by the serve and shard workloads: one
// generator thread sends on a seeded Poisson schedule regardless of how the
// service keeps up, and one collector thread stamps each future when it
// becomes ready (the oldest at once, the others within 200 us, in any
// order) and checks every result off the clock.
//
// Latency runs from each request's *scheduled* send time to its result, so
// a stall also charges the requests it delayed.
//
// A rung holds at most a bound of requests outstanding: past it the
// generator waits for completions (sending late, which the latency from the
// scheduled time charges) and stops at the rung's end. The top rung of each
// ladder offers far more than the service can take, so it runs held
// throughout and its completion rate is the service's sustained capacity.
//
// A ladder is run as kPasses short passes over all its rungs, each pass
// followed by the workload's own closed-loop measurements, so every figure
// is sampled at kPasses points spread evenly over the run. Each pass of a
// rung is cut into kSlices slices of scheduled time, giving kWindows
// windows per rung. Latency and lag figures are medians of the per-window
// figures; capacity is the upper quartile of the per-pass completion rates
// (see kQuietQuantile). The host this runs on shares its cores and memory
// bandwidth with other tenants: a slow stretch covering fewer than half the
// windows, or three quarters of the passes, moves no reported number (it
// stays visible in the per-pass and per-window rows of the report). A lone
// rung (the traced runs) has kSlices windows.
#pragma once

#include <functional>
#include <future>
#include <vector>

#include "bench.hpp"

namespace perfbench {

inline constexpr int kPasses = 8;
inline constexpr int kSlices = 2;
inline constexpr int kWindows = kPasses * kSlices;
/// Shares of each pass the nominal and the saturating rung take; the rungs
/// below the nominal one split the rest.
inline constexpr double kNominalShare = 0.6;
inline constexpr double kTopShare = 0.25;
/// Median generator lag / mean gap beyond which a rung is invalid. The
/// median, not the p99: a generator that cannot keep up is late on most
/// sends, while the p99 lag also counts short host stalls, which the
/// latency (taken from the scheduled time) already charges.
inline constexpr double kLagFraction = 0.5;
/// Host interference only ever slows a pass or a burst down, so the
/// closed-loop figures of serve and shard (capacity per pass, burst times)
/// are read at the quiet end of their samples: times at this quantile,
/// rates at one minus it. A regression slows every sample alike.
inline constexpr double kQuietQuantile = 0.25;
/// Most requests a rung or burst holds outstanding: well short of the
/// admission queue (256 queued requests by default, which fair admission
/// splits into per-tenant quotas of 128 for two tenants).
inline constexpr std::size_t kMaxBacklog = 100;

struct Arrival {
  double at = 0.0;  ///< scheduled send time, seconds from the rung start
  int item = 0;     ///< what to send (matrix or vector index)
  int cls = 0;      ///< request class: 0 light, 1 heavy
};

enum class Status { Ok, Wrong, Error, Rejected };

struct Outcome {
  Arrival arrival;
  double sched = 0.0;  ///< absolute scheduled time (now_s clock)
  double sent = 0.0;
  double done = 0.0;
  Status status = Status::Ok;
  int window = 0;  ///< of kWindows: pass * kSlices + slice
};

/// One rung of a rate ladder, with requests sent, succeeded, failed and
/// rejected, and how late the generator ran.
struct Rung {
  double rate = 0.0;
  std::vector<Outcome> out;
  std::size_t backlog_end = 0;  ///< requests outstanding at the last send
  bool held = false;            ///< the generator waited at the backlog bound
  double span_s = 0.0;          ///< first scheduled send to last completion
  std::vector<double> pass_rps;  ///< achieved_rps of each pass folded in

  [[nodiscard]] std::size_t count(Status s) const;
  /// Latencies of successful requests scheduled in window `w` of kWindows.
  [[nodiscard]] std::vector<double> latencies(int w) const;
  /// Generator lag (send minus scheduled time) p99 in window `w`.
  [[nodiscard]] double lag_p99(int w) const;
  /// Completed requests per second of sending time (summed over passes,
  /// each from its first scheduled send to its last completion).
  [[nodiscard]] double achieved_rps() const;
  /// Upper quartile (1 - kQuietQuantile) over passes of each pass's
  /// achieved_rps().
  [[nodiscard]] double quiet_pass_rps() const;

  /// Fold pass `p` of the same rate in.
  void append(Rung&& pass, int p);
};

/// Median-of-windows reading of one rung.
struct Reading {
  double p50 = 0.0;
  double tail = 0.0;
  double tail_pct = 0.0;  ///< lowest percentile any window's tail used
  std::size_t n = 0;      ///< samples over all windows
  double lag = 0.0;       ///< generator lag p99
  double lag_p50 = 0.0;   ///< generator lag median: decides validity
};
/// `group` windows are read as one: kSlices reads a rung by pass, for a
/// class too sparse to have a tail in each window.
Reading read_rung(const Rung& g, int cls = -1, double max_pct = 99.0,
                  int group = 1);

/// Poisson arrivals at `rate` over `duration` seconds; `pick` fills in
/// item and class from the same seeded stream.
std::vector<Arrival> poisson_schedule(
    double rate, double duration, std::uint64_t seed,
    const std::function<void(spmv::util::Xoshiro256&, Arrival&)>& pick);

using SubmitFn =
    std::function<std::future<std::vector<float>>(const Arrival&)>;
using CheckFn = std::function<bool(const Arrival&, const std::vector<float>&)>;

/// Send `schedule`, starting now. A spmv::serve::QueueFullError from
/// `submit` counts as Rejected, any other exception (at submit or get) as
/// Error, a failed `check` as Wrong. With `max_backlog` requests
/// outstanding the generator waits for one to complete (so an overloaded
/// rung never fills the admission queue), and it sends nothing scheduled
/// after `deadline_s` seconds from the start that it could not send by then.
Rung run_rung(double rate, const std::vector<Arrival>& schedule,
              const SubmitFn& submit, const CheckFn& check,
              std::size_t max_backlog, double deadline_s, const char* layer);

/// A rate ladder: the rungs and the latency limit a rung must meet to
/// pass. The top rung saturates the service; the one below it is nominal
/// (where request latency is read).
struct LadderSpec {
  std::vector<double> rates;     ///< req/s, ascending
  double latency_limit = 0.0;    ///< tail limit, seconds
  const char* layer = "serve";   ///< span layer name

  [[nodiscard]] std::size_t nominal() const { return rates.size() - 2; }
};

using ScheduleFn =
    std::function<std::vector<Arrival>(double rate, double duration,
                                       std::uint64_t seed)>;

/// Run one rung at `rate` for `duration` seconds.
Rung run_rung_at(const LadderSpec& spec, double rate, double duration,
                 std::uint64_t seed, const ScheduleFn& schedule,
                 const SubmitFn& submit, const CheckFn& check);

/// kPasses passes over every rung of the ladder in turn, the nominal one
/// taking kNominalShare of `seconds` and the top one kTopShare;
/// `after_pass(p)` runs after pass p (the workloads' bursts, baseline
/// timings and set-up repetitions, so they too are spread over the run).
std::vector<Rung> run_ladder(const LadderSpec& spec, double seconds,
                             std::uint64_t seed, const ScheduleFn& schedule,
                             const SubmitFn& submit, const CheckFn& check,
                             const std::function<void(int)>& after_pass);

/// Print the rung table (sent, succeeded, wrong, errors, rejected, latency,
/// generator lag, backlog, validity, pass, and per-window rows) and the
/// highest passing rung (valid, clean, never held, tail within the latency
/// limit), and count every request into r.attempted / r.failed.
void report_ladder(Result& r, const LadderSpec& spec,
                   const std::vector<Rung>& rungs);

/// max_rate_rps: the completion rate of the saturating top rung (upper
/// quartile over passes), i.e. the rate the service sustains with the
/// generator held at the backlog bound.
/// Says so in the report when the top rung never held (then the figure is
/// the offered rate, a lower bound of capacity).
double capacity_rps(Result& r, const std::vector<Rung>& rungs);

/// Closed bursts: `n` times, `burst` requests sent back to back, at most
/// kMaxBacklog outstanding. Returns the time from the first send to the
/// last result of each burst, with the bursts' arrivals in `sent` (counted
/// into r).
std::vector<double> run_bursts(Result& r, int burst, int n, std::uint64_t seed,
                               const ScheduleFn& schedule,
                               const SubmitFn& submit, const CheckFn& check,
                               const char* layer,
                               std::vector<std::vector<Arrival>>* sent);

}  // namespace perfbench
