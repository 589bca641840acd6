// serve — open loop, Poisson arrivals at a fixed ladder of rates, against
// one SpmvService (native backend, CSR format, 2 workers, default
// max_batch, adapt on). Requests pick with Zipf-skewed popularity among
// more corpus matrices than the plan cache holds, so hits, misses,
// evictions and planning on misses all happen beside each other.
#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <string>

#include "bench.hpp"
#include "openloop.hpp"

namespace perfbench {

namespace {

using Service = spmv::serve::SpmvService<float>;

// Workload parameters, fixed here and quoted in BENCHMARK.json.
constexpr int kCorpus = 24;  // > ServiceOptions::cache_capacity (16)
constexpr std::uint64_t kCorpusSeed = 2017;  // fixes the corpus composition
constexpr double kZipf = 1.0;                // popularity exponent
constexpr int kVectorsPerMatrix = 2;         // distinct x per matrix
// The top rung saturates the service (max_rate_rps is its completion
// rate); the others sit well below capacity.
const LadderSpec kLadder = {
    .rates = {125, 250, 500, 64000},  // req/s
    .latency_limit = 0.020,
    .layer = "serve",
};
constexpr int kBurst = 512;  // requests per closed burst (solve_s)
constexpr int kBurstsPerPass = 3;
constexpr int kSetupsPerPass = 2;  // set-up repetitions after each pass

struct Corpus {
  std::vector<std::shared_ptr<const CsrMatrix<float>>> mats;
  std::vector<std::vector<std::vector<float>>> xs;  // [matrix][vector]
  std::vector<double> cdf;  // Zipf popularity, cumulative
  std::vector<bool> light;  // matrix in the lighter half by nnz
};

Corpus make_corpus(const Options& o, InputHash& hash) {
  Corpus c;
  // The corpus composition (families, sizes, popularity ranks) is a fixed
  // workload parameter; the workload seed draws each matrix instance, the
  // vectors and the arrivals. A seed-drawn composition would swing every
  // metric by the luck of which sizes were drawn.
  spmv::gen::CorpusOptions co;
  co.count = kCorpus;
  co.seed = kCorpusSeed;
  if (o.size == Size::Tiny) {
    co.min_rows = 200;
    co.max_rows = 2000;
  }
  auto specs = spmv::gen::sample_corpus(co);
  for (std::size_t m = 0; m < specs.size(); ++m) {
    specs[m].seed = derive_seed(o.seed, 10 + m);
    c.mats.push_back(std::make_shared<const CsrMatrix<float>>(
        spmv::gen::make_corpus_matrix<float>(specs[m])));
    hash.add(*c.mats.back());
    c.xs.emplace_back();
    for (int v = 0; v < kVectorsPerMatrix; ++v) {
      c.xs.back().push_back(random_vector(
          static_cast<std::size_t>(c.mats.back()->cols()),
          derive_seed(o.seed, 100 + m * kVectorsPerMatrix + v)));
      hash.add(c.xs.back().back());
    }
  }
  // Popularity: Zipf over a fixed permutation, so rank and size are
  // unrelated.
  std::vector<int> rank(specs.size());
  std::iota(rank.begin(), rank.end(), 0);
  spmv::util::Xoshiro256 rng(kCorpusSeed);
  for (std::size_t i = rank.size(); i > 1; --i)
    std::swap(rank[i - 1], rank[rng.next() % i]);
  double total = 0;
  std::vector<double> w(specs.size());
  for (std::size_t m = 0; m < specs.size(); ++m)
    total += w[m] = 1.0 / std::pow(rank[m] + 1.0, kZipf);
  double acc = 0;
  for (double x : w) c.cdf.push_back(acc += x / total);
  std::vector<spmv::offset_t> nnz;
  for (const auto& a : c.mats) nnz.push_back(a->nnz());
  auto sorted = nnz;
  std::sort(sorted.begin(), sorted.end());
  const auto cut = sorted[sorted.size() / 2];
  for (auto n : nnz) c.light.push_back(n < cut);
  return c;
}

spmv::serve::ServiceOptions service_options(const Options& o,
                                            spmv::prof::RunProfile* profile) {
  spmv::serve::ServiceOptions so;
  so.workers = 2;
  so.backend = spmv::exec::BackendKind::Native;
  so.format = spmv::fmt::FormatMode::Csr;
  spmv::adapt::AdaptOptions ao;
  ao.seed = derive_seed(o.seed, 3);
  so.adapt = ao;
  so.profile = profile;
  return so;
}

std::size_t matrix_of(const Arrival& a) {
  return static_cast<std::size_t>(a.item / kVectorsPerMatrix);
}
std::size_t vector_of(const Arrival& a) {
  return static_cast<std::size_t>(a.item % kVectorsPerMatrix);
}

/// Arrival item = matrix * kVectorsPerMatrix + vector; cls 0 when the
/// matrix is in the lighter half of the corpus.
std::vector<Arrival> schedule(const Corpus& c, double rate, double duration,
                              std::uint64_t seed) {
  return poisson_schedule(
      rate, duration, seed, [&c](spmv::util::Xoshiro256& rng, Arrival& a) {
        const double u = rng.uniform();
        const auto m = std::min<std::ptrdiff_t>(
            std::lower_bound(c.cdf.begin(), c.cdf.end(), u) - c.cdf.begin(),
            kCorpus - 1);
        a.item = static_cast<int>(m) * kVectorsPerMatrix +
                 static_cast<int>(rng.next() % kVectorsPerMatrix);
        a.cls = c.light[static_cast<std::size_t>(m)] ? 0 : 1;
      });
}

}  // namespace

Result run_serve(const Options& o) {
  Result r;
  InputHash hash;
  const Corpus c = make_corpus(o, hash);
  r.input_hash = hash.value();
  for (std::size_t m = 0; m < c.mats.size(); ++m)
    r.line("corpus %2zu: %6d rows %8lld nnz, %.3f of requests", m, c.mats[m]->rows(),
           static_cast<long long>(c.mats[m]->nnz()),
           c.cdf[m] - (m > 0 ? c.cdf[m - 1] : 0.0));
  if (o.inputs_only) return r;
  std::vector<std::vector<Reference>> refs(c.mats.size());
  for (std::size_t m = 0; m < c.mats.size(); ++m)
    for (const auto& x : c.xs[m]) refs[m].push_back(make_reference(*c.mats[m], x));

  spmv::core::HeuristicPredictor pred;
  spmv::prof::RunProfile profile;
  const ScheduleFn sched = [&c](double rate, double dur, std::uint64_t seed) {
    return schedule(c, rate, dur, seed);
  };
  const auto submit_to = [&c](Service& svc) -> SubmitFn {
    return [&c, &svc](const Arrival& a) {
      return svc.submit(c.mats[matrix_of(a)], c.xs[matrix_of(a)][vector_of(a)]);
    };
  };
  const CheckFn check = [&refs](const Arrival& a, const std::vector<float>& y) {
    return matches(refs[matrix_of(a)][vector_of(a)], y);
  };

  const double nominal_rate = kLadder.rates[kLadder.nominal()];

  if (o.trace) {
    // The traced run drives the nominal rate only, each half on a fresh
    // service: first untraced, then traced with `profile` attached to that
    // service alone, so the per-layer figures cover exactly the traced
    // rung; trace.overhead_frac compares the two halves.
    tracer_enable(false);
    double untraced_p50 = 0;
    {
      Service plain(pred, service_options(o, nullptr));
      const Rung g = run_rung_at(kLadder, nominal_rate, o.seconds / 2,
                                 derive_seed(o.seed, 200), sched,
                                 submit_to(plain), check);
      untraced_p50 = read_rung(g).p50;
      report_ladder(r, kLadder, {g});
    }
    tracer_enable(true);
    program_trace_start();
    std::unique_ptr<Service> traced;
    {
      Span s("SpmvService", "serve", kNewRequest);
      traced = std::make_unique<Service>(pred, service_options(o, &profile));
    }
    const Rung g = run_rung_at(kLadder, nominal_rate, o.seconds / 2,
                               derive_seed(o.seed, 201), sched,
                               submit_to(*traced), check);
    program_trace_collect();
    report_ladder(r, kLadder, {g});
    traced->shutdown();  // folds ServeStats and AdaptStats into `profile`
    const auto& s = profile.serve;
    const auto& ad = profile.adapt;
    r.metric("serve.queue_wait_p50_s", s.queue_wait.percentile(50), "s");
    r.metric("serve.queue_wait_p99_s", s.queue_wait.percentile(99), "s");
    r.metric("serve.batch_exec_p50_s", s.batch_exec.percentile(50), "s");
    double widths = 0;
    for (std::size_t w = 0; w < s.batch_width_hist.size(); ++w)
      widths += static_cast<double>((w + 1) * s.batch_width_hist[w]);
    r.metric("serve.batch_width_mean",
             s.batches > 0 ? widths / static_cast<double>(s.batches) : 0.0, "count");
    r.metric("serve.cache_hit_rate", s.cache_hit_rate(), "ratio");
    r.metric("serve.cache_evictions", static_cast<double>(s.cache_evictions), "count");
    r.metric("serve.planning_passes", static_cast<double>(s.planning_passes), "count");
    r.metric("serve.rejected", static_cast<double>(s.rejected), "count");
    r.metric("adapt.trials", static_cast<double>(ad.trials), "count");
    r.metric("adapt.promotions", static_cast<double>(ad.promotions), "count");
    r.metric("adapt.useful_ratio",
             ad.trials > 0 ? static_cast<double>(ad.promotions) /
                                 static_cast<double>(ad.trials)
                           : 0.0,
             "ratio");
    r.metric("adapt.regret_s", ad.regret_s, "s");
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

  // Set-up: service construction plus one request per corpus matrix, sent
  // together — the planning a fresh service does before it is warm. Each
  // repetition starts from a trimmed heap, as in a fresh process (see
  // shard.cpp). The first builds the service the ladder runs on; the others
  // run after each pass on a service of their own, so set-up is sampled
  // across the whole run like every other figure.
  std::vector<double> setups;
  const auto set_up = [&]() {
    malloc_trim(0);
    const double t0 = now_s();
    auto fresh = std::make_unique<Service>(pred, service_options(o, nullptr));
    std::vector<std::future<std::vector<float>>> cold;
    for (int m = 0; m < kCorpus; ++m)
      cold.push_back(fresh->submit(c.mats[static_cast<std::size_t>(m)],
                                   c.xs[static_cast<std::size_t>(m)][0]));
    std::vector<std::vector<float>> ys;
    for (auto& f : cold) ys.push_back(f.get());
    setups.push_back(now_s() - t0);
    for (int m = 0; m < kCorpus; ++m) {
      Arrival a;
      a.item = m * kVectorsPerMatrix;
      r.attempted += 1;
      r.failed += check(a, ys[static_cast<std::size_t>(m)]) ? 0 : 1;
    }
    return fresh;
  };
  const std::unique_ptr<Service> svc = set_up();

  // After each pass: closed bursts, each followed by the same requests run
  // back to back through spmv_omp_rows by one caller — the paired baseline
  // of vs_omp_rows — so both sit in the same stretch of the run; then
  // set-up repetitions. The baseline's outputs are checked off the clock
  // like the service's.
  std::vector<double> bursts, burst_gflops, ratio;
  const auto after_pass = [&](int p) {
    std::vector<std::vector<Arrival>> sent;
    const auto times = run_bursts(r, kBurst, kBurstsPerPass,
                                  derive_seed(o.seed, 300 + p), sched,
                                  submit_to(*svc), check, "serve", &sent);
    for (std::size_t b = 0; b < times.size(); ++b) {
      std::vector<std::vector<float>> ys;
      for (const auto& a : sent[b])
        ys.emplace_back(static_cast<std::size_t>(c.mats[matrix_of(a)]->rows()));
      double flops = 0;
      const double t0 = now_s();
      for (std::size_t i = 0; i < sent[b].size(); ++i) {
        const Arrival& a = sent[b][i];
        const auto& mat = *c.mats[matrix_of(a)];
        spmv::kernels::spmv_omp_rows<float>(mat, c.xs[matrix_of(a)][vector_of(a)],
                                            ys[i]);
        flops += 2.0 * static_cast<double>(mat.nnz());
      }
      const double plain = now_s() - t0;
      for (std::size_t i = 0; i < sent[b].size(); ++i) {
        r.attempted += 1;
        r.failed += check(sent[b][i], ys[i]) ? 0 : 1;
      }
      bursts.push_back(times[b]);
      burst_gflops.push_back(flops / times[b] * 1e-9);
      ratio.push_back(plain / times[b]);
    }
    for (int k = 0; k < kSetupsPerPass; ++k) set_up();
  };
  const auto rungs = run_ladder(kLadder, o.seconds, derive_seed(o.seed, 200),
                                sched, submit_to(*svc), check, after_pass);
  report_ladder(r, kLadder, rungs);
  const double max_rate = capacity_rps(r, rungs);
  r.line("set-up repetitions (s):%s", joined(setups).c_str());
  r.line("burst times (s):%s", joined(bursts).c_str());
  r.line("burst vs_omp_rows:%s", joined(ratio).c_str());

  const Rung& nom = rungs[kLadder.nominal()];
  const Reading all = read_rung(nom);
  const Reading light = read_rung(nom, 0, 95, kSlices);
  const double solve_s = quantile(bursts, kQuietQuantile);
  const double gflops = quantile(burst_gflops, 1.0 - kQuietQuantile);
  r.line("nominal %.0f req/s: p50 %.6g s, p%g %.6g s (%zu samples); light "
         "half p%g %.6g s (%zu samples); %d bursts of %d: lower quartile "
         "%.6g s, upper quartile %.4g GFLOP/s",
         nominal_rate, all.p50, all.tail_pct, all.tail, all.n, light.tail_pct,
         light.tail, light.n, static_cast<int>(bursts.size()), kBurst, solve_s,
         gflops);
  r.metric("spmv_gflops", gflops, "GFLOP/s");
  r.metric("vs_omp_rows", median(ratio), "ratio");
  r.metric("setup_s", median(setups), "s");
  r.metric("max_rate_rps", max_rate, "req/s");
  r.metric("solve_s", solve_s, "s");
  r.metric("peak_rss_mb", peak_rss_mb(), "MiB");
  return r;
}

}  // namespace perfbench
