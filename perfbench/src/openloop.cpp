#include "openloop.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>

namespace perfbench {

std::size_t Rung::count(Status s) const {
  std::size_t n = 0;
  for (const auto& o : out) n += o.status == s ? 1 : 0;
  return n;
}

std::vector<double> Rung::latencies(int w) const {
  std::vector<double> v;
  for (const auto& o : out)
    if (o.status == Status::Ok && o.window == w) v.push_back(o.done - o.sched);
  return v;
}

double Rung::lag_p99(int w) const {
  std::vector<double> v;
  for (const auto& o : out)
    if (o.window == w) v.push_back(o.sent - o.sched);
  return quantile(std::move(v), 0.99);
}

double Rung::achieved_rps() const {
  return span_s > 0 ? static_cast<double>(count(Status::Ok)) / span_s : 0.0;
}

double Rung::quiet_pass_rps() const {
  return pass_rps.empty() ? achieved_rps() : quantile(pass_rps, 1.0 - kQuietQuantile);
}

void Rung::append(Rung&& pass, int p) {
  for (auto& o : pass.out) {
    o.window += p * kSlices;
    out.push_back(o);
  }
  backlog_end = std::max(backlog_end, pass.backlog_end);
  held = held || pass.held;
  span_s += pass.span_s;
  pass_rps.push_back(pass.achieved_rps());
}

Reading read_rung(const Rung& g, int cls, double max_pct, int group) {
  Reading rd;
  rd.tail_pct = max_pct;
  std::vector<std::vector<double>> lat(kWindows), lags(kWindows);
  for (const auto& o : g.out) {
    const auto w = static_cast<std::size_t>(o.window / group);
    lags[w].push_back(o.sent - o.sched);
    if (o.status == Status::Ok && (cls < 0 || o.arrival.cls == cls))
      lat[w].push_back(o.done - o.sched);
  }
  std::vector<double> p50, tl, lag, lag50;
  for (std::size_t w = 0; w < lat.size(); ++w) {
    if (lat[w].empty()) continue;
    const Tail t = tail(lat[w], max_pct);
    p50.push_back(median(lat[w]));
    tl.push_back(t.value);
    lag.push_back(quantile(lags[w], 0.99));
    lag50.push_back(median(lags[w]));
    rd.tail_pct = std::min(rd.tail_pct, t.pct);
    rd.n += lat[w].size();
  }
  rd.p50 = median(p50);
  rd.tail = median(tl);
  rd.lag = median(lag);
  rd.lag_p50 = median(lag50);
  return rd;
}

std::vector<Arrival> poisson_schedule(
    double rate, double duration, std::uint64_t seed,
    const std::function<void(spmv::util::Xoshiro256&, Arrival&)>& pick) {
  spmv::util::Xoshiro256 rng(seed);
  std::vector<Arrival> s;
  double t = 0.0;
  while (true) {
    t += -std::log(1.0 - rng.uniform()) / rate;
    if (t >= duration) break;
    Arrival a;
    a.at = t;
    pick(rng, a);
    s.push_back(a);
  }
  return s;
}

namespace {

struct Pending {
  std::size_t index = 0;
  std::future<std::vector<float>> fut;
  std::uint64_t req = 0;
};

/// The collector's queue: the generator pushes, the collector pops in send
/// order until `closed` and empty.
struct Handoff {
  std::mutex mu;  // guards q and closed
  std::condition_variable cv;
  std::deque<Pending> q;
  bool closed = false;

  void close() {
    {
      std::lock_guard lock(mu);
      closed = true;
    }
    cv.notify_one();
  }
};

/// Closes the handoff and joins the collector on every exit path.
struct JoinOnExit {
  Handoff& h;
  std::thread& t;
  ~JoinOnExit() {
    h.close();
    if (t.joinable()) t.join();
  }
};

}  // namespace

Rung run_rung(double rate, const std::vector<Arrival>& schedule,
              const SubmitFn& submit, const CheckFn& check,
              std::size_t max_backlog, double deadline_s, const char* layer) {
  Rung rung;
  rung.rate = rate;
  rung.out.resize(schedule.size());
  Handoff h;
  std::atomic<std::size_t> completed{0};

  // The collector waits on the oldest outstanding future for at most
  // kPollUs, then stamps every future that is ready, so a request that
  // finishes ahead of an older one is stamped within kPollUs of finishing.
  // Results are taken and checked after the stamps.
  constexpr auto kPollUs = std::chrono::microseconds(200);
  std::thread collector([&] {
    std::vector<Pending> live;
    while (true) {
      {
        std::unique_lock lock(h.mu);
        if (live.empty())
          h.cv.wait(lock, [&] { return h.closed || !h.q.empty(); });
        if (live.empty() && h.q.empty()) return;
        for (auto& p : h.q) live.push_back(std::move(p));
        h.q.clear();
      }
      live.front().fut.wait_for(kPollUs);
      std::vector<Pending> ready;
      std::vector<Pending> rest;
      for (auto& p : live) {
        if (p.fut.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
          rung.out[p.index].done = now_s();
          ready.push_back(std::move(p));
        } else {
          rest.push_back(std::move(p));
        }
      }
      live = std::move(rest);
      for (auto& p : ready) {
        Outcome& o = rung.out[p.index];
        try {
          std::vector<float> y;
          {
            Span s("get", layer, p.req);
            y = p.fut.get();
          }
          o.status = check(o.arrival, y) ? Status::Ok : Status::Wrong;
        } catch (const std::exception&) {
          o.status = Status::Error;
        }
        emit_span("request", layer, p.req, o.sched, o.done);
        completed.fetch_add(1);
      }
    }
  });

  JoinOnExit join{h, collector};
  const double origin = now_s();
  const double length = schedule.empty() ? 0.0 : schedule.back().at;
  std::size_t sent = 0;
  std::size_t used = schedule.size();
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    Outcome& o = rung.out[i];
    o.arrival = schedule[i];
    o.sched = origin + schedule[i].at;
    o.window = length > 0 ? std::min(kSlices - 1, static_cast<int>(
                                                      schedule[i].at / length * kSlices))
                          : 0;
    if (sent - completed.load() >= max_backlog) rung.held = true;
    while (sent - completed.load() >= max_backlog)
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    if (now_s() > origin + deadline_s) {  // held past the rung's end
      used = i;
      break;
    }
    sleep_until_s(o.sched);
    o.sent = now_s();
    const std::uint64_t req = tracer_on() ? next_request_id() : 0;
    Pending p;
    p.index = i;
    p.req = req;
    try {
      Span s("submit", layer, req);
      p.fut = submit(o.arrival);
    } catch (const spmv::serve::QueueFullError&) {
      o.done = o.sent;
      o.status = Status::Rejected;
      continue;
    } catch (const std::exception&) {
      o.done = o.sent;
      o.status = Status::Error;
      continue;
    }
    ++sent;
    std::lock_guard lock(h.mu);
    h.q.push_back(std::move(p));
    h.cv.notify_one();
  }
  rung.backlog_end = sent - completed.load();
  h.close();
  collector.join();
  rung.out.resize(used);  // drop the arrivals past the deadline
  if (!rung.out.empty()) {
    double last = origin;
    for (const auto& o : rung.out) last = std::max(last, o.done);
    rung.span_s = last - rung.out.front().sched;
  }
  return rung;
}

Rung run_rung_at(const LadderSpec& spec, double rate, double duration,
                 std::uint64_t seed, const ScheduleFn& schedule,
                 const SubmitFn& submit, const CheckFn& check) {
  const auto hold_at = static_cast<std::size_t>(std::clamp(
      4.0 * rate * spec.latency_limit, 32.0, static_cast<double>(kMaxBacklog)));
  return run_rung(rate, schedule(rate, duration, seed), submit, check,
                  hold_at, duration, spec.layer);
}

std::vector<Rung> run_ladder(const LadderSpec& spec, double seconds,
                             std::uint64_t seed, const ScheduleFn& schedule,
                             const SubmitFn& submit, const CheckFn& check,
                             const std::function<void(int)>& after_pass) {
  std::vector<Rung> rungs(spec.rates.size());
  const double pass = seconds / kPasses;
  const double low = pass * (1.0 - kNominalShare - kTopShare) /
                     static_cast<double>(spec.nominal());
  for (int p = 0; p < kPasses; ++p) {
    for (std::size_t k = 0; k < spec.rates.size(); ++k) {
      const double share = k == spec.nominal()       ? pass * kNominalShare
                           : k + 1 == spec.rates.size() ? pass * kTopShare
                                                        : low;
      Rung g = run_rung_at(spec, spec.rates[k], share,
                           derive_seed(seed, k * kPasses + p), schedule,
                           submit, check);
      rungs[k].rate = spec.rates[k];
      rungs[k].append(std::move(g), p);
    }
    after_pass(p);
  }
  return rungs;
}

void report_ladder(Result& r, const LadderSpec& spec,
                   const std::vector<Rung>& rungs) {
  double max_pass = 0;
  r.line("%8s %6s %6s %6s %6s %6s %10s %10s %10s %10s %8s %5s %4s %s", "rate",
         "sent", "ok", "wrong", "error", "reject", "p50_s", "tail_s",
         "lag_p50_s", "lag_p99_s", "backlog", "valid", "pass", "tail pct");
  for (const auto& g : rungs) {
    const Reading rd = read_rung(g);
    const bool valid = rd.lag_p50 <= kLagFraction / g.rate;
    const bool grew = g.held || static_cast<double>(g.backlog_end) >
                                    std::max(8.0, g.rate * spec.latency_limit);
    const bool clean = g.count(Status::Ok) == g.out.size();
    const bool pass = valid && clean && !grew && rd.tail <= spec.latency_limit;
    if (pass) max_pass = std::max(max_pass, g.rate);
    // An invalid rung's latency is not reported: the generator, not the
    // service, set it.
    char p50[32] = "-", tl[32] = "-";
    if (valid) {
      std::snprintf(p50, sizeof p50, "%.6f", rd.p50);
      std::snprintf(tl, sizeof tl, "%.6f", rd.tail);
    }
    r.line("%8.0f %6zu %6zu %6zu %6zu %6zu %10s %10s %10.6f %10.6f %8zu%s %5s %4s p%g of %zu",
           g.rate, g.out.size(), g.count(Status::Ok), g.count(Status::Wrong),
           g.count(Status::Error), g.count(Status::Rejected), p50, tl, rd.lag_p50,
           rd.lag, g.backlog_end, g.held ? "H" : " ", valid ? "yes" : "NO",
           pass ? "yes" : "no", rd.tail_pct, rd.n);
    for (int w = 0; w < kWindows && valid; ++w) {
      const auto v = g.latencies(w);
      if (v.empty()) continue;
      r.line("%8s window %d: %zu samples, p50 %.6f s, tail %.6f s, lag p99 %.6f s",
             "", w, v.size(), median(v), tail(v).value, g.lag_p99(w));
    }
    r.attempted += g.out.size();
    r.failed += g.out.size() - g.count(Status::Ok);
  }
  r.line("latency limit %.3g s on the tail; a rung is invalid when its generator "
         "lag p50 exceeds %.2g of the mean inter-arrival gap; H: the generator "
         "was held at the backlog bound; figures are medians of %d windows; "
         "highest passing rung %.0f req/s",
         spec.latency_limit, kLagFraction, kWindows, max_pass);
}

double capacity_rps(Result& r, const std::vector<Rung>& rungs) {
  const Rung& top = rungs.back();
  r.line("capacity: %.6g req/s completed at the %.0f req/s rung, upper "
         "quartile of %zu passes (%zu requests over %.3f s in all; per pass:%s)%s",
         top.quiet_pass_rps(), top.rate, top.pass_rps.size(),
         top.count(Status::Ok), top.span_s, joined(top.pass_rps).c_str(),
         top.held ? "" : "; the rung never held the generator, so this is the "
                         "offered rate, a lower bound of capacity");
  return top.quiet_pass_rps();
}

std::vector<double> run_bursts(Result& r, int burst, int n, std::uint64_t seed,
                               const ScheduleFn& schedule,
                               const SubmitFn& submit, const CheckFn& check,
                               const char* layer,
                               std::vector<std::vector<Arrival>>* sent) {
  std::vector<double> times;
  for (int b = 0; b < n; ++b) {
    // Four times the burst per second over one second: always more
    // arrivals than `burst`; only their picks are used.
    auto sched = schedule(4.0 * burst, 1.0, derive_seed(seed, b));
    sched.resize(std::min(sched.size(), static_cast<std::size_t>(burst)));
    for (auto& a : sched) a.at = 0.0;
    const Rung g = run_rung(0, sched, submit, check, kMaxBacklog, INFINITY, layer);
    double last = g.out.front().sched;
    for (const auto& x : g.out) last = std::max(last, x.done);
    times.push_back(last - g.out.front().sched);
    r.attempted += g.out.size();
    r.failed += g.out.size() - g.count(Status::Ok);
    if (sent != nullptr) sent->push_back(sched);
  }
  return times;
}

}  // namespace perfbench
