// Bin-local physical layouts and their builders.
//
// A layout is a materialized copy of one bin's rows in an alternative
// storage scheme. All three layouts carry the packed list of *actual* row
// ids the bin covers (`rows`) — every covered row, including empty ones —
// so a layout kernel can zero its y slice completely before accumulating,
// exactly like the CSR slot loop does. Builders are deterministic, bounded
// (they throw std::length_error when the transformation would not pay —
// e.g. ELL padding blow-up or a column delta overflowing 16 bits), and
// record their own wall-clock cost so the lazy materialization layer can
// amortize it against observed reuse.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "fmt/format.hpp"
#include "sparse/csr.hpp"

namespace spmv::fmt {

/// ELL-packed bin: every covered row padded to the bin's max row length,
/// columns/values column-major over the packed rows — entry (r, k) lives at
/// k*rows.size() + r, padded with col -1 / value 0. A whole-matrix ELL is
/// the layout of one bin holding every row at unit 1.
template <typename T>
struct EllBin {
  index_t width = 0;               ///< max row length in the bin
  std::vector<index_t> rows;       ///< covered actual row ids (incl. empty)
  std::vector<index_t> col;        ///< column-major, rows.size()*width
  std::vector<T> val;              ///< same shape, padded with 0
};

/// Coordinate-triple bin for scatter / mostly-empty bins: only the actual
/// non-zeros are stored (row-major order), so execution skips empty rows
/// entirely instead of probing row_ptr per slot. `chunk_ptr` partitions the
/// triples into parallel chunks that never split a row, so concurrent
/// chunks accumulate into disjoint y entries without atomics.
template <typename T>
struct CooBin {
  std::vector<index_t> rows;        ///< covered actual row ids (for zeroing)
  std::vector<index_t> entry_row;   ///< per-entry row id, non-decreasing
  std::vector<index_t> entry_col;
  std::vector<T> entry_val;
  std::vector<std::size_t> chunk_ptr;  ///< chunk offsets into the triples
};

/// Delta-compressed CSR bin for banded rows: per covered row, columns are
/// sorted and stored as a full-width base column plus 16-bit deltas for the
/// remaining entries. Rows whose intra-row column gaps exceed 65535 make
/// the bin unsuitable (the builder throws).
template <typename T>
struct DeltaBin {
  std::vector<index_t> rows;          ///< covered actual row ids
  std::vector<offset_t> row_ptr;      ///< packed, rows.size()+1 entries
  std::vector<index_t> base_col;      ///< first (smallest) column per row
  std::vector<std::uint16_t> deltas;  ///< per-entry gap from previous column
  std::vector<T> vals;                ///< sorted to match the delta stream
};

/// One bin's materialized layout: exactly one of the three payloads is
/// populated, selected by `kind` (never Csr — CSR bins execute straight
/// from the shared arrays and are never materialized).
template <typename T>
struct BinLayout {
  FormatKind kind = FormatKind::Csr;
  int bin_id = -1;
  double build_s = 0.0;    ///< wall-clock cost of the transformation
  std::size_t bytes = 0;   ///< heap footprint of the materialized arrays
  EllBin<T> ell;
  CooBin<T> coo;
  DeltaBin<T> dcsr;
};

/// Guardrails the builders enforce (the estimator applies tighter,
/// heuristic thresholds; these are correctness/memory bounds).
struct BuildLimits {
  double ell_max_expansion = 16.0;  ///< padded entries / bin nnz ceiling
  index_t ell_max_width = 4096;     ///< refuse absurdly wide ELL bins
};

/// Materialize one bin (virtual rows `vrows` at granularity `unit`) of `a`
/// in layout `kind`. Throws std::invalid_argument for kind == Csr and
/// std::length_error when the bin is unsuitable for the requested layout
/// (ELL expansion/width over the limits, a Dcsr column gap over 16 bits).
template <typename T>
[[nodiscard]] BinLayout<T> build_bin_layout(const CsrMatrix<T>& a,
                                            std::span<const index_t> vrows,
                                            index_t unit, FormatKind kind,
                                            int bin_id,
                                            const BuildLimits& limits = {});

/// Value-refreshed copy of `old`: identical structure (row list, column
/// stream, chunking, byte footprint) with every stored value re-read from
/// `a`. Used after CsrMatrix::update_values so a structurally unchanged
/// matrix keeps its materialized layouts instead of paying a rebuild.
/// Returns a fresh object — the old layout is never mutated, because
/// in-flight launches may still hold shared_ptrs to it. Throws
/// std::length_error when `a`'s structure no longer matches the layout
/// (callers treat that as "drop and rebuild lazily").
template <typename T>
[[nodiscard]] BinLayout<T> refresh_layout_values(const CsrMatrix<T>& a,
                                                 const BinLayout<T>& old);

#define SPMV_FMT_LAYOUT_EXTERN(T)                                         \
  extern template struct BinLayout<T>;                                    \
  extern template BinLayout<T> build_bin_layout(                          \
      const CsrMatrix<T>&, std::span<const index_t>, index_t, FormatKind, \
      int, const BuildLimits&);                                           \
  extern template BinLayout<T> refresh_layout_values(const CsrMatrix<T>&, \
                                                     const BinLayout<T>&);
SPMV_FMT_LAYOUT_EXTERN(float)
SPMV_FMT_LAYOUT_EXTERN(double)
#undef SPMV_FMT_LAYOUT_EXTERN

}  // namespace spmv::fmt
