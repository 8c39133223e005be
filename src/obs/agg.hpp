// Job-level observability: cross-rank metric aggregation.
//
// The tracer is per-process; the collective engines'
// behavior is per-*job* — one straggler rank in the exchange stalls every
// window on every rank, and no single rank's numbers can show that.  This
// layer closes the gap:
//
//   * RankSnapshot — one rank's contribution: the IoOpStats phase
//     decomposition (pack / exchange / preread / io / wait) and counters.
//     Serializes to a flat byte vector for the wire.
//   * Collector::build — fold N RankSnapshots into a JobReport: per-phase
//     min/median/max/imbalance across ranks, counters summed and per
//     rank, and straggler identification.
//   * aggregate(comm, mine) — the collective form: allgather the
//     serialized snapshots, build on every rank (all ranks return the
//     same report).  Templated over the comm type so obs stays below
//     simmpi in the layering (simmpi instruments with obs spans).
//   * critical_path(events) — a pass over the Chrome-trace spans
//     attributing each pipeline window's wall time to its limiting
//     component (I/O wait vs pack vs everything else), the "what do I fix
//     first" summary the llio_report JSON carries.
//
// The JobReport JSON (schema "llio_report/v1") is the machine-readable
// interface; tools/check_report.py validates it in CI.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "obs/trace.hpp"

namespace llio::obs {

/// One rank's contribution to the job view.
struct RankSnapshot {
  int rank = 0;
  /// Phase name -> seconds (pack / exchange / preread / io / wait /
  /// total, from IoOpStats; any name is accepted).
  std::vector<std::pair<std::string, double>> phases;
  std::vector<std::pair<std::string, std::uint64_t>> counters;

  ByteVec serialize() const;
  static RankSnapshot deserialize(ConstByteSpan raw);
};

/// Cross-rank spread of one phase.
struct PhaseStats {
  std::string name;
  double min_s = 0;
  double median_s = 0;
  double max_s = 0;
  double mean_s = 0;
  double sum_s = 0;
  int min_rank = -1;  ///< rank holding the minimum
  int max_rank = -1;  ///< rank holding the maximum (the phase straggler)
  /// max / mean: 1.0 = perfectly balanced, nranks = one rank does all the
  /// work; 0 when the phase never ran.
  double imbalance = 0;
  std::vector<double> per_rank_s;  ///< indexed like JobReport::ranks
};

/// Where each pipeline window's wall time went, summed over all windows
/// of all ranks.  "io" is compute-thread I/O exposure: io_wait plus any
/// preread/pwrite that ran inline on the compute thread (serial loop);
/// "pack" is the fill's gather/scatter; "other" is the unattributed
/// remainder (window bookkeeping, locking, submit overhead).
struct CriticalPathReport {
  long long windows = 0;
  double window_us = 0;
  double io_us = 0;
  double pack_us = 0;
  double other_us = 0;
  double exchange_us = 0;  ///< outside windows (phase exchanges), context
  /// (io + pack) / window — how much of the windows' wall time the
  /// breakdown explains.  1 - attributed_frac is "other".
  double attributed_frac = 0;
  long long io_limited_windows = 0;
  long long pack_limited_windows = 0;
  long long other_limited_windows = 0;

  const char* limiter() const {
    if (io_us >= pack_us && io_us >= other_us) return "io";
    return pack_us >= other_us ? "pack" : "other";
  }
};

/// Walk a trace snapshot and attribute window time (see
/// CriticalPathReport).  Matches spans by name + the numeric "win"
/// argument on compute-thread tracks.
CriticalPathReport critical_path(const std::vector<TraceEvent>& events);

struct JobReport {
  int nranks = 0;
  std::vector<int> ranks;  ///< rank ids, index space of per_rank vectors
  std::vector<PhaseStats> phases;
  std::vector<std::pair<std::string, std::uint64_t>> counters;  ///< summed
  /// The same counters per rank, each vector indexed like `ranks` (a rank
  /// that never reported a counter contributes 0): per-IOP file bytes
  /// show whether the two-phase file domains are balanced.
  std::vector<std::pair<std::string, std::vector<std::uint64_t>>>
      counters_per_rank;

  /// Rank with the largest "total" phase and its max/mean ratio; -1 when
  /// totals are absent or the job is balanced (imbalance below ~1.05 does
  /// not name a straggler — it would just be noise).
  int straggler_rank = -1;
  double straggler_imbalance = 0;

  std::optional<CriticalPathReport> critical;

  /// Backend-wide counters attached by the caller: the psrv pool's summed
  /// ServerStats (psrv.requests, psrv.max_queue_depth, ...) and the
  /// queue-depth engine's totals (aio.submitted, aio.completed,
  /// aio.inflight_peak).  Every rank shares them, so they are kept apart
  /// from `counters`, which are per-rank sums.
  std::vector<std::pair<std::string, std::uint64_t>> global_counters;

  const PhaseStats* phase(const std::string& name) const;

  /// Schema "llio_report/v1" (validated by tools/check_report.py).
  std::string to_json() const;
};

/// Fold rank snapshots into a job view.  Pure function of its input, so
/// tests can drive it without a comm.
class Collector {
 public:
  static JobReport build(const std::vector<RankSnapshot>& ranks);
};

/// Collective aggregation: every rank contributes its snapshot and every
/// rank returns the identical JobReport.  CommT needs the sim::Comm
/// allgather shape (ConstByteSpan in, vector<ByteVec> out).
template <class CommT>
JobReport aggregate(CommT& comm, const RankSnapshot& mine) {
  const ByteVec raw = mine.serialize();
  std::vector<ByteVec> all =
      comm.allgather(ConstByteSpan(raw.data(), raw.size()));
  std::vector<RankSnapshot> snaps;
  snaps.reserve(all.size());
  for (const ByteVec& b : all)
    snaps.push_back(
        RankSnapshot::deserialize(ConstByteSpan(b.data(), b.size())));
  return Collector::build(snaps);
}

}  // namespace llio::obs
