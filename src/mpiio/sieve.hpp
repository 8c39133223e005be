// Independent non-contiguous access: the data-sieving skeleton (paper
// §2.2) and the dense fast path, shared by both engines.  The engine
// differences live entirely in the ViewNav / StreamMover implementations
// passed in.
#pragma once

#include "common/bytes.hpp"
#include "mpiio/io_stats.hpp"
#include "mpiio/navigator.hpp"
#include "mpiio/options.hpp"
#include "pfs/file_backend.hpp"
#include "pfs/range_lock.hpp"

namespace llio::mpiio {

struct SieveContext {
  pfs::FileBackend& file;
  pfs::RangeLock& locks;
  const Options& opts;
  IoOpStats& stats;
  /// True when the caller already holds a lock covering the whole access
  /// (atomic mode); the sieving loop must then skip its window locks.
  bool whole_range_locked = false;
};

/// Write `nbytes` of the user stream through a non-contiguous view whose
/// stream starts at `stream_lo` (= offset_etypes * size(etype)).
/// Returns bytes written.
Off sieve_write(SieveContext& ctx, ViewNav& nav, Off disp, Off stream_lo,
                Off nbytes, StreamMover& src);

/// Read counterpart; short data beyond EOF reads back as zeros.
Off sieve_read(SieveContext& ctx, ViewNav& nav, Off disp, Off stream_lo,
               Off nbytes, StreamMover& dst);

/// Dense-view fast paths: the access maps to one contiguous file range
/// starting at `abs_lo`.  With llio_zerocopy=auto, a mover that yields
/// memory runs under the options' budget hands user-memory iovecs
/// straight to preadv/pwritev (no packed staging); otherwise the staged
/// loop runs exactly as before.
Off dense_write(SieveContext& ctx, Off abs_lo, Off nbytes, StreamMover& src);
Off dense_read(SieveContext& ctx, Off abs_lo, Off nbytes, StreamMover& dst);

/// The descriptor run budget the options imply (llio_zerocopy_max_runs,
/// llio_zerocopy_min_run).
RunBudget zerocopy_budget(const Options& opts);

/// The zero-copy decision (llio_zerocopy=auto): describe stream bytes
/// [s, s+n) of `m` as memory runs appended to `runs`, within the run
/// budget the options imply.  Counts the engagement or, when the mover
/// declines, the staged fallback; false when declined or zero-copy is off.
bool zerocopy_runs(const Options& opts, IoOpStats& stats, StreamMover& m,
                   Off s, Off n, std::vector<ByteSpan>& runs);

/// Direct (non-sieving) non-contiguous access: one file access per
/// contiguous run.  This is the other side of the sieving trade-off the
/// paper's §5 marks as future work — better when the view is sparse
/// (sieving would read/write mostly gaps), worse when runs are tiny.
Off direct_write(SieveContext& ctx, ViewNav& nav, Off disp, Off stream_lo,
                 Off nbytes, StreamMover& src);
Off direct_read(SieveContext& ctx, ViewNav& nav, Off disp, Off stream_lo,
                Off nbytes, StreamMover& dst);

/// Strategy choice for an independent access spanning [abs_lo, abs_hi)
/// moving nbytes of data: true = sieve, false = direct.
bool choose_sieving(const Options& opts, bool writing, Off nbytes, Off abs_lo,
                    Off abs_hi);

/// Timed storage accesses (shared with the collective paths), each one
/// obs::Phase into file_s.  `span` names the access's trace span, with
/// the window index `win` as its argument (nullptr: no span).  pread
/// zero-fills past EOF — the view is logically sparse — and returns the
/// access's seconds.
double timed_pread_zero_fill(SieveContext& ctx, Off pos, ByteSpan buf,
                             const char* span = nullptr, Off win = -1);
void timed_pwrite(SieveContext& ctx, Off pos, ConstByteSpan buf,
                  const char* span = nullptr, Off win = -1);

/// Vectored counterparts: a whole batch counts as one file op.
/// (FileBackend::preadv already zero-fills past EOF.)
void timed_preadv_zero_fill(SieveContext& ctx,
                            std::span<const pfs::IoVec> iov,
                            const char* span = nullptr, Off win = -1);
void timed_pwritev(SieveContext& ctx, std::span<const pfs::ConstIoVec> iov,
                   const char* span = nullptr, Off win = -1);

}  // namespace llio::mpiio
