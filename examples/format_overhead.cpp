// Format-conversion overhead demonstration — the paper's introductory
// argument for staying in CSR: "the transformation between different
// formats is non-negligible in terms of performance".
//
// Converts CSR to ELLPACK — the spmv::fmt ELL layout of one bin holding
// every row at unit 1, executed on the native backend — then reports
// (a) the conversion cost expressed in equivalent auto-tuned CSR SpMV
// passes — the number of products an application must run before the
// switch can possibly pay off — and (b) the ELL padding/memory expansion,
// which becomes prohibitive on skewed matrices (where conversion is
// refused outright).
//
// Usage: format_overhead [--rows N]
#include <cstdio>
#include <numeric>

#include "autospmv.hpp"
#include "fmt/estimate.hpp"
#include "fmt/layout.hpp"

using namespace spmv;

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const auto rows = static_cast<index_t>(cli.get_int("rows", 200000));

  struct Input {
    const char* name;
    CsrMatrix<float> a;
  };
  Input inputs[] = {
      {"uniform (deg 8)", gen::fixed_degree<float>(rows, rows, 8, 1)},
      {"banded FEM", gen::banded<float>(rows, 6, 0.5, 2)},
      {"low-variance CFD", gen::cfd_longrow<float>(rows / 16, 120, 3)},
      {"power-law graph", gen::power_law<float>(rows, rows, 2.0, 2000, 4)},
  };

  const exec::NativeBackend native;
  std::printf("%-18s %10s %12s %14s %16s %14s\n", "matrix", "padding",
              "conv[ms]", "csr-auto[ms]", "ell-spmv[ms]", "break-even");
  for (auto& in : inputs) {
    const auto x = std::vector<float>(static_cast<std::size_t>(in.a.cols()),
                                      1.0f);
    std::vector<float> y(static_cast<std::size_t>(in.a.rows()));

    core::HeuristicPredictor pred;
    // Both sides on the native backend, so the comparison is format vs
    // format, not simulator vs host loop.
    const auto auto_spmv = core::Tuner(in.a)
                               .predictor(pred)
                               .backend(exec::BackendKind::Native)
                               .build();
    const double t_csr =
        util::measure([&] { auto_spmv.run(x, std::span<float>(y)); },
                      {.warmup = 1, .reps = 5, .max_total_s = 2.0})
            .best_s;

    // The whole matrix as one bin of granularity 1: virtual row i == row i.
    std::vector<index_t> all_rows(static_cast<std::size_t>(in.a.rows()));
    std::iota(all_rows.begin(), all_rows.end(), index_t{0});
    const std::span<const index_t> vrows(all_rows);
    const double ratio =
        fmt::compute_bin_features(in.a, vrows, index_t{1}).padding_ratio;
    if (ratio > fmt::BuildLimits{}.ell_max_expansion) {
      std::printf("%-18s %9.1fx %12s %14.3f %16s %14s\n", in.name, ratio,
                  "refused", 1e3 * t_csr, "-",
                  "never (padding)");
      continue;
    }

    fmt::BinLayout<float> ell;
    const double t_conv =
        util::measure(
            [&] {
              ell = fmt::build_bin_layout(in.a, vrows, index_t{1},
                                          fmt::FormatKind::Ell, 0);
            },
            {.warmup = 1, .reps = 3, .max_total_s = 3.0})
            .best_s;
    const double t_ell =
        util::measure(
            [&] {
              native.run_layout(in.a, ell, std::span<const float>(x),
                                std::span<float>(y));
            },
            {.warmup = 1, .reps = 5, .max_total_s = 2.0})
            .best_s;

    // SpMV passes after which ELL amortizes its conversion (never if ELL
    // is not even faster).
    char breakeven[32];
    if (t_ell < t_csr) {
      std::snprintf(breakeven, sizeof breakeven, "%.0f passes",
                    t_conv / (t_csr - t_ell));
    } else {
      std::snprintf(breakeven, sizeof breakeven, "never (slower)");
    }
    std::printf("%-18s %9.1fx %12.3f %14.3f %16.3f %14s\n", in.name, ratio,
                1e3 * t_conv, 1e3 * t_csr, 1e3 * t_ell, breakeven);
  }
  std::printf(
      "\nThe paper's point: conversion costs many SpMV-equivalents up "
      "front and fails outright on\nskewed matrices — auto-tuning the "
      "strategy *within* CSR avoids both.\n");
  return 0;
}
