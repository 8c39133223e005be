// Always-on sampling: a bounded ring of recent per-operation records
// behind a lock-light snapshot API.
//
// The tracer records everything (too heavy to leave on) and the metrics
// registry keeps only aggregates (no per-op context).  The ring sits in
// between — "what did the last few hundred operations look like: which
// engine, which backend, which net model, how many bytes, how long" —
// cheap enough to stay enabled in production runs.  File::close reports
// its produced/dropped totals in the JobReport's "sampling" section, and
// tests read the samples themselves to check which engine, backend and
// net model each op ran under.
//
// Concurrency model (ThreadSanitizer-clean by construction):
//   * record() claims a slot by fetch_add on the ring head, then flips
//     the slot's version counter odd -> writes every field as a relaxed
//     atomic store -> flips it back even (release).  A writer that finds
//     the slot mid-write (odd version, or the CAS claim fails) drops its
//     sample and counts it — it never blocks and never spins.
//   * snapshot() reads each slot's version (acquire), copies the fields,
//     and re-reads the version: unchanged-and-even means the copy is
//     coherent, anything else discards the slot.  Every shared field is
//     a std::atomic, so there is no C++ data race to report — torn
//     logical states are rejected by the version check instead.
//   * String dimensions (op / engine / backend / net model) are interned
//     to small ids once per resolve (mutex), so a record() stores only
//     integers.
//
// Cost with sampling on and tracing off: one enabled-flag load, one
// fetch_add, one CAS, and ~10 relaxed stores — bench_ablation_pipeline
// gates this under its sampling budget next to the disabled-probe guard.
//
// Control: hint llio_obs_sample=on|off / env LLIO_OBS_SAMPLE (default
// on), ring capacity hint llio_obs_ring / env LLIO_OBS_RING (default
// 1024).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace llio::obs {

/// One sampled operation.  String dimensions are interned ids — resolve
/// them with Sampler::name().
struct OpSample {
  std::uint64_t seq = 0;  ///< claim order (monotonic across the ring)
  std::int32_t rank = -1;
  std::uint32_t op = 0;       ///< "read_at_all", ... (interned)
  std::uint32_t engine = 0;   ///< "listless" / "list-based" (interned)
  std::uint32_t backend = 0;  ///< llio_backend target (interned)
  std::uint32_t net = 0;      ///< llio_net_model (interned)
  std::int32_t qd = 1;        ///< backend queue depth during the op
  long long bytes = 0;        ///< user payload bytes
  long long runs = 0;         ///< storage accesses (read + write ops)
  long long dur_ns = 0;       ///< operation wall time

  double dur_us() const { return static_cast<double>(dur_ns) / 1e3; }
};

/// A coherent copy of the ring: the retained samples oldest-first plus
/// the produced/dropped totals (produced - retained = overwritten).
struct MetricsSnapshot {
  std::uint64_t produced = 0;
  std::uint64_t dropped = 0;
  std::size_t capacity = 0;
  std::vector<OpSample> samples;
};

class Sampler {
 public:
  static Sampler& instance();

  bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool on);

  /// Replace the ring with an empty one of `n` slots (>= 1).  Retained
  /// samples are discarded; produced/dropped totals persist.  Rare
  /// config-time operation (File::open applying llio_obs_ring).
  void set_capacity(std::size_t n);
  std::size_t capacity() const;

  /// Intern a dimension string; equal strings return equal ids.  Takes a
  /// mutex — resolve once and cache, like Registry lookups.
  std::uint32_t intern(const std::string& s);

  /// The string behind an interned id ("?" for an unknown id).
  std::string name(std::uint32_t id) const;

  /// Record one sample (sample.seq is assigned here).  No-op when
  /// disabled.  Never blocks: a slot collision drops the sample.
  void record(OpSample sample);

  MetricsSnapshot snapshot() const;

  /// Drop retained samples and zero the produced/dropped totals.
  void reset();

 private:
  Sampler();

  struct Slot;
  struct Ring;

  /// Publish an empty ring of `n` slots in place of the current one.
  void replace_ring(std::size_t n);

  std::atomic<bool> enabled_;
  std::atomic<Ring*> ring_;
  std::atomic<std::uint64_t> produced_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

}  // namespace llio::obs
