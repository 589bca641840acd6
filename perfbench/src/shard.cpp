// shard — open loop, Poisson arrivals at a fixed ladder of rates, against
// one ShardedService over one large mixed-regime matrix: K = 4 shards with
// one worker each, fair admission, adapt off, and two tenants of equal
// weight whose offered load is skewed 1:3 (light:heavy).
#include <malloc.h>

#include <algorithm>
#include <memory>
#include <string>

#include "bench.hpp"
#include "openloop.hpp"

namespace perfbench {

namespace {

using Sharded = spmv::shard::ShardedService<float>;

// Workload parameters, fixed here and quoted in BENCHMARK.json.
constexpr int kShards = 4;
constexpr spmv::index_t kRows = 60000;  // tiny: 4000
constexpr spmv::index_t kLongDeg = 300;
constexpr double kLightShare = 0.25;  // of offered requests
constexpr int kVectors = 4;
// As for serve, the top rung saturates the service and the others sit
// well below capacity.
const LadderSpec kLadder = {
    .rates = {25, 50, 100, 12800},  // req/s
    .latency_limit = 0.100,
    .layer = "shard",
};
constexpr int kSetupsPerPass = 2;  // set-up repetitions after each pass
constexpr int kPartitionReps = 15;  // traced: partition_rows + extract_shard
constexpr int kBurst = 128;
constexpr int kBurstsPerPass = 2;

spmv::shard::ShardedOptions sharded_options(spmv::prof::RunProfile* profile) {
  spmv::shard::ShardedOptions so;
  so.partition.shards = kShards;
  so.workers_per_shard = 1;
  so.queue_policy = spmv::shard::QueuePolicy::Fair;
  so.tenants = {{"light", 1.0}, {"heavy", 1.0}};
  so.backend = spmv::exec::BackendKind::Native;
  so.format = spmv::fmt::FormatMode::Csr;
  so.profile = profile;
  return so;
}

const char* tenant(int cls) { return cls == 0 ? "light" : "heavy"; }

}  // namespace

Result run_shard(const Options& o) {
  Result r;
  InputHash hash;
  const spmv::index_t rows = o.size == Size::Tiny ? 4000 : kRows;
  const auto a = std::make_shared<const CsrMatrix<float>>(
      spmv::gen::mixed_regime<float>(rows, rows, 0.6, 0.32, 4, 30, kLongDeg, 64,
                                     derive_seed(o.seed, 1)));
  hash.add(*a);
  std::vector<std::vector<float>> xs;
  for (int v = 0; v < kVectors; ++v) {
    xs.push_back(random_vector(static_cast<std::size_t>(a->cols()),
                               derive_seed(o.seed, 100 + v)));
    hash.add(xs.back());
  }
  r.input_hash = hash.value();
  if (o.inputs_only) return r;
  std::vector<Reference> refs;
  for (const auto& x : xs) refs.push_back(make_reference(*a, x));

  spmv::core::HeuristicPredictor pred;
  spmv::prof::RunProfile profile;
  const ScheduleFn sched = [](double rate, double dur, std::uint64_t seed) {
    return poisson_schedule(rate, dur, seed,
                            [](spmv::util::Xoshiro256& rng, Arrival& arr) {
                              arr.cls = rng.uniform() < kLightShare ? 0 : 1;
                              arr.item = static_cast<int>(rng.next() % kVectors);
                            });
  };
  const auto submit_to = [&xs](Sharded& svc) -> SubmitFn {
    return [&xs, &svc](const Arrival& arr) {
      return svc.submit(tenant(arr.cls), xs[static_cast<std::size_t>(arr.item)]);
    };
  };
  const CheckFn check = [&refs](const Arrival& arr, const std::vector<float>& y) {
    return matches(refs[static_cast<std::size_t>(arr.item)], y);
  };

  // Set-up: construction (partition plus K plans). Each repetition starts
  // from a trimmed heap, as a first construction in a fresh process does:
  // otherwise whether the allocator kept the previous service's pages
  // decides, run by run, whether the shard copies page-fault (about 10 ms
  // against 4 ms on the reference host). The first builds the service the
  // ladder runs on (the only one that carries `profile` in a traced run);
  // the others run after each pass, so set-up is sampled across the run.
  std::vector<double> setups;
  const auto set_up = [&](spmv::prof::RunProfile* prof) {
    malloc_trim(0);
    const double t0 = now_s();
    Span s("ShardedService", "shard", kNewRequest);
    auto fresh = std::make_unique<Sharded>(a, pred, sharded_options(prof));
    setups.push_back(now_s() - t0);
    return fresh;
  };
  const std::unique_ptr<Sharded> svc = set_up(o.trace ? &profile : nullptr);
  const double nominal_rate = kLadder.rates[kLadder.nominal()];

  if (o.trace) {
    // Nominal rate only: half untraced on a separate service, half traced.
    tracer_enable(false);
    double untraced_p50 = 0;
    {
      Sharded plain(a, pred, sharded_options(nullptr));
      const Rung g = run_rung_at(kLadder, nominal_rate, o.seconds / 2,
                                 derive_seed(o.seed, 200), sched,
                                 submit_to(plain), check);
      untraced_p50 = read_rung(g).p50;
      report_ladder(r, kLadder, {g});
    }
    tracer_enable(true);
    // The partitioner's own cost, timed around its public functions.
    std::vector<double> part;
    for (int k = 0; k < kPartitionReps; ++k) {
      const double t0 = now_s();
      Span s("partition_rows", "shard", kNewRequest);
      spmv::shard::PartitionOptions po;
      po.shards = kShards;
      for (const auto& rg : spmv::shard::partition_rows(*a, po))
        (void)spmv::shard::extract_shard(*a, rg);
      part.push_back(now_s() - t0);
    }
    program_trace_start();
    const Rung g = run_rung_at(kLadder, nominal_rate, o.seconds / 2,
                               derive_seed(o.seed, 201), sched, submit_to(*svc),
                               check);
    program_trace_collect();
    report_ladder(r, kLadder, {g});
    const auto s = svc->stats();
    std::vector<double> per_exec;
    for (const auto& in : svc->shard_infos()) {
      per_exec.push_back(in.executions > 0 ? in.exec_total_s /
                                                 static_cast<double>(in.executions)
                                           : 0.0);
      r.line("shard %d rows [%d, %d) nnz %lld: %llu executions, %.6g s each; plan %s",
             in.index, in.range.row_begin, in.range.row_end,
             static_cast<long long>(in.range.nnz),
             static_cast<unsigned long long>(in.executions), per_exec.back(),
             in.plan.to_string().substr(0, 120).c_str());
    }
    const double mx = *std::max_element(per_exec.begin(), per_exec.end());
    r.metric("shard.partition_s", median(part), "s");
    r.metric("shard.exec_s.max", mx, "s");
    r.metric("shard.imbalance", mean(per_exec) > 0 ? mx / mean(per_exec) : 0.0, "ratio");
    r.metric("shard.queue_wait_p99_s", s.queue_wait.percentile(99), "s");
    r.metric("shard.threads_per_core",
             static_cast<double>(kShards * omp_team_size()) /
                 static_cast<double>(hardware_threads()),
             "ratio");
    double rej_light = 0, rej_heavy = 0;
    for (const auto& t : s.tenants)
      (t.name == "light" ? rej_light : rej_heavy) += static_cast<double>(t.rejected);
    r.metric("shard.rejected.light", rej_light, "count");
    r.metric("shard.rejected.heavy", rej_heavy, "count");
    r.metric("gen.lag_p99_s", read_rung(g).lag, "s");
    r.metric("request.p50_s", read_rung(g).p50, "s");
    r.metric("request.p99_s", read_rung(g).tail, "s");
    r.metric("request.p95_s.light", read_rung(g, 0, 95, kSlices).tail, "s");
    r.metric("trace.overhead_frac",
             untraced_p50 > 0 ? read_rung(g).p50 / untraced_p50 - 1.0 : 0.0,
             "ratio");
    for (const auto& [name, self] : self_times())
      r.line("self time %-28s %.6g s", name.c_str(), self);
    return r;
  }

  // After each pass: closed bursts, each followed by the same requests run
  // back to back through spmv_omp_rows by one caller — the paired baseline
  // of vs_omp_rows — so both sit in the same stretch of the run; then
  // set-up repetitions. The baseline's outputs are checked off the clock
  // like the service's.
  std::vector<double> bursts, ratio;
  const auto after_pass = [&](int p) {
    std::vector<std::vector<Arrival>> sent;
    const auto times = run_bursts(r, kBurst, kBurstsPerPass,
                                  derive_seed(o.seed, 300 + p), sched,
                                  submit_to(*svc), check, "shard", &sent);
    for (std::size_t b = 0; b < times.size(); ++b) {
      std::vector<std::vector<float>> ys(sent[b].size(),
                                         std::vector<float>(static_cast<std::size_t>(a->rows())));
      const double t0 = now_s();
      for (std::size_t i = 0; i < sent[b].size(); ++i)
        spmv::kernels::spmv_omp_rows<float>(
            *a, xs[static_cast<std::size_t>(sent[b][i].item)], ys[i]);
      ratio.push_back((now_s() - t0) / times[b]);
      bursts.push_back(times[b]);
      for (std::size_t i = 0; i < sent[b].size(); ++i) {
        r.attempted += 1;
        r.failed += check(sent[b][i], ys[i]) ? 0 : 1;
      }
    }
    for (int k = 0; k < kSetupsPerPass; ++k) set_up(nullptr);
  };
  const auto rungs = run_ladder(kLadder, o.seconds, derive_seed(o.seed, 200),
                                sched, submit_to(*svc), check, after_pass);
  report_ladder(r, kLadder, rungs);
  const double max_rate = capacity_rps(r, rungs);
  r.line("set-up constructions (s):%s", joined(setups).c_str());
  r.line("burst times (s):%s", joined(bursts).c_str());
  r.line("burst vs_omp_rows:%s", joined(ratio).c_str());

  const Rung& nom = rungs[kLadder.nominal()];
  const Reading all = read_rung(nom);
  const Reading light = read_rung(nom, 0, 95, kSlices);
  const double solve_s = quantile(bursts, kQuietQuantile);
  r.line("nominal %.0f req/s: p50 %.6g s, p%g %.6g s (%zu samples); light "
         "tenant p%g %.6g s (%zu samples); %d bursts of %d: lower quartile "
         "%.6g s, "
         "%.3gx the same requests through spmv_omp_rows",
         nominal_rate, all.p50, all.tail_pct, all.tail, all.n, light.tail_pct,
         light.tail, light.n, static_cast<int>(bursts.size()), kBurst, solve_s,
         median(ratio));
  r.metric("spmv_gflops", 2.0 * static_cast<double>(a->nnz()) * kBurst / solve_s * 1e-9,
           "GFLOP/s");
  r.metric("vs_omp_rows", median(ratio), "ratio");
  r.metric("setup_s", median(setups), "s");
  r.metric("max_rate_rps", max_rate, "req/s");
  r.metric("solve_s", solve_s, "s");
  r.metric("peak_rss_mb", peak_rss_mb(), "MiB");
  return r;
}

}  // namespace perfbench
