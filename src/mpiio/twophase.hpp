// The two-phase collective I/O method (paper §2.3, after Thakur et al.):
// one driver for both engines.
//
// Every read_at_all/write_at_all runs the same skeleton: access-range
// exchange, the dense bypass, partitioning of the global file range into
// per-IOP file domains, the AP→IOP exchange, the IOP's window loop and
// the AP's unpack.  The engines differ only in an AccessCodec: how an
// access point describes its slice to an IOP (ol-list tuples, §2.3, or
// nothing beyond the stream interval because the IOP holds the cached
// fileview, §3.2.3) and how the IOP maps a file-buffer window onto the
// received slices (merged tuples or file_to_stream navigation).
#pragma once

#include <memory>
#include <vector>

#include "common/bytes.hpp"
#include "dtype/datatype.hpp"
#include "mpiio/io_stats.hpp"
#include "mpiio/navigator.hpp"
#include "pfs/file_backend.hpp"
#include "simmpi/comm.hpp"

namespace llio::mpiio {

class IoEngine;
struct DomainWindows;

/// One rank's contribution to a collective access.
struct AccessRange {
  Off stream_lo = 0;  ///< view-stream offset of the access start
  Off nbytes = 0;     ///< stream bytes accessed (0 = not participating)
  Off abs_lo = 0;     ///< first absolute file byte touched
  Off abs_hi = 0;     ///< one past the last absolute file byte touched
};

/// Append `v` to `out` / read the Off at byte `at` of `data` (native byte
/// order: the wire format of every collective control message).
void put_off(ByteVec& out, Off v);
Off get_off(ConstByteSpan data, std::size_t at);

/// Allgather every rank's AccessRange (Meta traffic).
std::vector<AccessRange> exchange_ranges(sim::Comm& comm,
                                         const AccessRange& mine);

/// Global file range [lo, hi) covered by any participant; {0, 0} if none.
struct GlobalRange {
  Off lo = 0;
  Off hi = 0;
  bool any = false;
};
GlobalRange global_range(const std::vector<AccessRange>& ranges);

struct Domain {
  Off lo = 0;
  Off hi = 0;

  bool empty() const { return hi <= lo; }
};

/// Split [g.lo, g.hi) into `niops` contiguous file domains whose
/// boundaries snap to multiples of `align` relative to g.lo.  The shares
/// are as equal as the alignment allows: non-empty domains differ in
/// length by at most `align`, and only trailing domains are empty (when
/// the range holds fewer than `niops` units of `align`).  Two-phase I/O
/// aligns to the page; psrv aligns its shards to the stripe.
std::vector<Domain> partition_domains(const GlobalRange& g, int niops,
                                      Off align);

/// Number of IOP ranks for the given option value (0 = all).
int effective_iops(int io_procs_opt, int comm_size);

/// Stream interval [s1, s2) of one AP's access inside one IOP domain.
struct StreamSlice {
  Off s1 = 0;
  Off s2 = 0;

  bool empty() const { return s2 <= s1; }
};

/// One AP's slice as received by an IOP.
struct PeerSlice {
  int src = 0;           ///< AP rank
  StreamSlice slice;     ///< its stream interval in this IOP's domain
  ConstByteSpan payload; ///< codec description beyond the interval
  Byte* data = nullptr;  ///< the slice's dense stream bytes: received
                         ///< data (write) or the reply buffer (read)
};

/// The engine-specific half of two-phase I/O.  The AP side answers "which
/// stream bytes go to which IOP, described how"; the IOP side answers
/// "which bytes of which peer fall into this window".  An IOP serves one
/// operation at a time: serve() replaces the previous op's peers.
class AccessCodec {
 public:
  virtual ~AccessCodec() = default;

  /// True when descriptions carry a payload beyond the stream interval
  /// (the ol-lists).  A collective write then ships them in a Meta
  /// exchange of their own; otherwise the interval rides as a header in
  /// front of the data.
  virtual bool ships_lists() const = 0;

  /// AP side: split my access `mine` (nbytes > 0) over the IOP domains;
  /// `slices` comes in sized like `doms`, all empty, and slices[i] gets
  /// the stream interval landing in doms[i].
  virtual void describe(const AccessRange& mine,
                        const std::vector<Domain>& doms,
                        std::vector<StreamSlice>& slices) = 0;

  /// AP side, after describe(): append IOP `iop`'s description beyond
  /// its interval (the ol-list) to `out`.  Only called when ships_lists().
  virtual void append_list(std::size_t iop, ByteVec& out) {
    (void)iop;
    (void)out;
  }

  /// IOP side: accept this op's peers (non-empty slices only; the
  /// payload and data spans stay valid until the op ends, when the driver
  /// calls serve({}) to drop them).
  virtual void serve(const std::vector<PeerSlice>& peers) = 0;

  /// Mergeview analysis (§3.2.4) of domain `dom` in windows of `win`
  /// bytes for a write by the participants in `ranges`.
  virtual DomainWindows analyze(const Domain& dom, Off win,
                                const std::vector<AccessRange>& ranges) = 0;

  /// Queue the peers' bytes inside window [lo, hi), in window order;
  /// false (nothing queued) when no peer touches it.
  virtual bool plan_window(Off lo, Off hi) = 0;

  /// Direct window: describe the window [lo, hi) plan_window just queued
  /// as runs in file order — absolute file offset and the peer's own
  /// bytes, received data (write) or reply buffer (read) — and dequeue
  /// it, so storage moves straight between the file and the peers'
  /// slices.  Declines (false, `runs` empty, the window stays queued for
  /// fill_window) when a touching peer's average run is below
  /// budget.min_avg_run (an O(1) test per peer), when the window needs
  /// more than budget.max_runs runs, or when two peers' runs overlap:
  /// the staged copy order defines overlapping writes.
  virtual bool window_runs(Off lo, Off hi, const RunBudget& budget,
                           std::vector<pfs::IoVec>& runs) = 0;

  /// Move the oldest queued window: scatter the peers' bytes into `win`
  /// (write) or gather them out of it (read); `win` starts at file offset
  /// `lo`.  Returns the number of copy units moved.
  virtual Off fill_window(Off lo, ByteSpan win, bool write) = 0;
};

/// For window_runs: merge one more peer's file-ordered runs, appended at
/// [mid, end), into the file-ordered runs [0, mid).
void merge_runs(std::vector<pfs::IoVec>& runs, std::size_t mid);

/// True when no two of the file-ordered `runs` overlap.
bool runs_disjoint(const std::vector<pfs::IoVec>& runs);

/// The collective driver IoEngine runs for one read_at_all/write_at_all
/// on this rank: cb disable → range exchange → empty exit → dense bypass
/// → partition_domains → AP→IOP exchange → IOP window loop → AP unpack →
/// closing barrier.  It owns the op's statistics and trace spans; the
/// engine contributes its own-view navigator, its movers and its codec.
class TwoPhase {
 public:
  TwoPhase(IoEngine& engine, bool write);

  /// Run the operation on `count` instances of `mt` at `buf`, starting at
  /// view-stream byte `stream_lo`; returns the bytes moved.  `buf` is
  /// written by a read (the StreamMover convention).
  Off run(Off stream_lo, const void* buf, Off count, const dt::Type& mt);

 private:
  void closing_barrier();
  void describe();
  void write_phases();
  void read_phases();
  void serve(const std::vector<PeerSlice>& peers);

  IoEngine& e_;
  const bool write_;
  AccessCodec& codec_;
  IoOpStats& stats_;

  // Per-op state, in phase order.
  AccessRange mine_;
  std::vector<AccessRange> ranges_;
  std::vector<Domain> domains_;
  std::unique_ptr<StreamMover> mover_;
  std::vector<StreamSlice> slices_;  ///< mine, per IOP
  std::vector<ByteVec> descs_;       ///< [s1][s2][payload], per IOP
};

}  // namespace llio::mpiio
