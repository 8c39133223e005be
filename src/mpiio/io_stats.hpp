// Per-operation statistics: the overhead decomposition of paper §2.4/§3.3.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.hpp"

namespace llio::mpiio {

/// The IoOpStats field table: every field is declared here and only
/// here.  Each row is X(type, member, merge, report):
///   merge   Sum or Max — how operator+= folds two records;
///   report  the name the field carries in the llio_report/v1 JobReport,
///           or nullptr to keep it out.  A seconds field reports as a
///           RankSnapshot phase; an integer field as a RankSnapshot
///           counter (summed across ranks, so never a Max field).
/// struct IoOpStats, operator+=, format_stats and report_phases /
/// report_counters (the JobReport snapshot) are all generated from it.
/// To add a field, add a row.
#define LLIO_IO_OP_STATS_FIELDS(X)                                          \
  /* wall time of the whole operation */                                  \
  X(double, total_s, Sum, "total")                                        \
  /* ol-list flatten / clip time */                                       \
  X(double, list_build_s, Sum, "list_build")                              \
  /* IOP-side list processing (§2.3): accepting the peers' descriptions   \
     and planning each window's copy units, for either codec */           \
  X(double, list_merge_s, Sum, "list_merge")                              \
  /* pack/unpack/per-tuple copy time */                                   \
  X(double, copy_s, Sum, "pack")                                          \
  /* time in pread/pwrite */                                              \
  X(double, file_s, Sum, "io")                                            \
  /* time in communication calls */                                       \
  X(double, exchange_s, Sum, "exchange")                                  \
  /* collective ops: wait at the closing barrier for the slowest rank */  \
  X(double, skew_s, Sum, "skew")                                          \
  /* worker-thread file time hidden behind the compute thread            \
     (collective pipeline only) */                                        \
  X(double, overlap_s, Sum, nullptr)                                      \
  /* compute-thread time blocked waiting on the pipeline's I/O worker */  \
  X(double, io_wait_s, Sum, "wait")                                       \
  /* the read-modify-write pre-read share of file_s (collective write    \
     windows) */                                                          \
  X(double, preread_s, Sum, "preread")                                    \
  /* user payload bytes */                                                \
  X(Off, bytes_moved, Sum, "bytes_moved")                                 \
  /* bytes actually read from / written to storage, and the accesses */   \
  X(Off, file_read_bytes, Sum, "file_read_bytes")                         \
  X(Off, file_write_bytes, Sum, "file_write_bytes")                       \
  X(std::uint64_t, file_read_ops, Sum, "file_read_ops")                   \
  X(std::uint64_t, file_write_ops, Sum, "file_write_ops")                 \
  /* ol-list exchange volume (list-based only) */                         \
  X(Off, list_bytes_sent, Sum, nullptr)                                   \
  /* data exchange volume (collective) */                                 \
  X(Off, data_bytes_sent, Sum, nullptr)                                   \
  /* peak ol-list memory this operation */                                \
  X(Off, list_mem_bytes, Max, nullptr)                                    \
  /* Mergeview contiguity analysis (paper §3.2.4): RMW pre-reads elided, \
     time in the hole-freeness analysis (~0 on a MergeCache hit), and    \
     operations that took the dense-disjoint bypass (the two-phase       \
     exchange was skipped) */                                             \
  X(std::uint64_t, preread_skipped_windows, Sum, "preread_skipped_windows") \
  X(double, merge_analysis_s, Sum, "merge_analysis")                      \
  X(std::uint64_t, merge_contig_ops, Sum, nullptr)                        \
  /* Zero-copy descriptor I/O (llio_zerocopy): dense windows/messages    \
     that went straight from user memory to the file or wire (no staging \
     copy), windows that wanted zero-copy but staged (run budget or plan \
     decline), descriptor entries shipped zero-copy, and bytes that      \
     skipped a staging copy */                                            \
  X(std::uint64_t, zerocopy_windows, Sum, "zerocopy_windows")             \
  X(std::uint64_t, staged_fallback_windows, Sum, nullptr)                 \
  X(std::uint64_t, iov_runs, Sum, nullptr)                                \
  X(Off, staging_bytes_saved, Sum, nullptr)                               \
  /* FOTF pack-plan cache: replays of a cached fileview or memtype plan,  \
     and plan compiles (or declined compiles) */                          \
  X(std::uint64_t, plan_hits, Sum, nullptr)                               \
  X(std::uint64_t, plan_misses, Sum, nullptr)

/// The merge rules the table names.
namespace stats_merge {
template <class T>
void Sum(T& a, const T& b) { a += b; }
template <class T>
void Max(T& a, const T& b) { if (b > a) a = b; }
}  // namespace stats_merge

struct IoOpStats {
#define LLIO_X(type, member, merge, report) type member = 0;
  LLIO_IO_OP_STATS_FIELDS(LLIO_X)
#undef LLIO_X

  IoOpStats& operator+=(const IoOpStats& o) {
#define LLIO_X(type, member, merge, report) stats_merge::merge(member, o.member);
    LLIO_IO_OP_STATS_FIELDS(LLIO_X)
#undef LLIO_X
    return *this;
  }
};

/// The reported fields of `s` under their report names: seconds fields
/// as JobReport phases, integer fields as JobReport counters.
std::vector<std::pair<std::string, double>> report_phases(const IoOpStats& s);
std::vector<std::pair<std::string, std::uint64_t>> report_counters(
    const IoOpStats& s);

/// Human-readable rendering, one `member value` line per field (benches,
/// CLI --stats).
std::string format_stats(const IoOpStats& s);

}  // namespace llio::mpiio
