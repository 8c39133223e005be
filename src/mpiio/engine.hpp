// Engine interface: one implementation per method (list-based, listless).
//
// The File front-end owns one engine per handle and forwards operations.
// The base class implements argument validation, per-op statistics, the
// contiguous-memtype mover, the independent access paths and — through
// the TwoPhase driver — the collective ones; engines supply view handling,
// their own-view navigator, the non-contiguous mover and the two-phase
// AccessCodec.
#pragma once

#include <memory>
#include <mutex>

#include "dtype/datatype.hpp"
#include "mpiio/io_stats.hpp"
#include "mpiio/mergeview.hpp"
#include "mpiio/navigator.hpp"
#include "mpiio/options.hpp"
#include "mpiio/twophase.hpp"
#include "mpiio/view.hpp"
#include "pfs/file_backend.hpp"
#include "pfs/range_lock.hpp"
#include "simmpi/comm.hpp"

namespace llio::mpiio {

class IoEngine {
 public:
  IoEngine(sim::Comm* comm, pfs::FilePtr file,
           std::shared_ptr<pfs::RangeLock> locks, const Options& opts);
  virtual ~IoEngine() = default;

  IoEngine(const IoEngine&) = delete;
  IoEngine& operator=(const IoEngine&) = delete;

  /// Collective: install a new view on all ranks.
  virtual void set_view(const View& v) = 0;

  const View& view() const { return view_; }
  const Options& options() const { return opts_; }
  sim::Comm& comm() const { return *comm_; }
  pfs::FileBackend& backend() const { return *file_; }

  /// Independent access at an etype offset; returns bytes moved.
  /// Thread-compatible: operations on one engine serialize on an internal
  /// mutex, which is what makes the nonblocking File::iread_at/iwrite_at
  /// (which run these on a helper thread) safe.
  Off read_at(Off offset_etypes, void* buf, Off count, const dt::Type& mt);
  Off write_at(Off offset_etypes, const void* buf, Off count,
               const dt::Type& mt);

  /// Collective access (must be called by every rank of the comm).
  Off read_at_all(Off offset_etypes, void* buf, Off count, const dt::Type& mt);
  Off write_at_all(Off offset_etypes, const void* buf, Off count,
                   const dt::Type& mt);

  /// Statistics of the most recent operation on this rank.
  const IoOpStats& last_stats() const { return stats_; }

  /// Statistics accumulated over every operation since open (or the last
  /// reset) on this rank.
  const IoOpStats& cumulative_stats() const { return cumulative_; }
  void reset_cumulative_stats() { cumulative_ = IoOpStats{}; }

  /// Atomic mode (MPI_File_set_atomicity): when enabled, every
  /// independent access holds a byte-range lock over its whole file span,
  /// making concurrent overlapping accesses sequentially consistent.
  void set_atomicity(bool atomic) { atomic_ = atomic; }
  bool atomicity() const { return atomic_; }

 protected:
  /// Navigator over this rank's own fileview (independent access and the
  /// collective access-range computation).
  virtual ViewNav& nav() = 0;

  /// The engine's half of two-phase collective I/O.
  virtual AccessCodec& codec() = 0;

  /// Engine-specific mover for non-contiguous memtypes.
  virtual std::unique_ptr<StreamMover> make_nc_mover(const void* buf,
                                                     Off count,
                                                     const dt::Type& mt) = 0;

  /// Contiguous memtypes short-circuit to a ContigMover.
  std::unique_ptr<StreamMover> make_mover(const void* buf, Off count,
                                          const dt::Type& mt);

  /// Validate independent/collective access arguments and convert the
  /// etype offset to a stream byte offset.
  Off check_access(Off offset_etypes, const void* buf, Off count,
                   const dt::Type& mt) const;

  /// Independent access of `count` instances of `mt` at view-stream byte
  /// `stream_lo`: dense fast path for contiguous views, otherwise the
  /// backend's view I/O, data sieving or direct per-run access per the
  /// ds_write/ds_read strategy (paper §5 trade-off).  A read writes `buf`.
  Off indep(bool write, Off stream_lo, const void* buf, Off count,
            const dt::Type& mt);

  sim::Comm* comm_;
  pfs::FilePtr file_;
  std::shared_ptr<pfs::RangeLock> locks_;
  const Options opts_;
  View view_;
  IoOpStats stats_;
  IoOpStats cumulative_;

  /// Mergeview analysis cache and its invalidation counter; engines bump
  /// the epoch in set_view (collective, so it stays rank-consistent).
  MergeCache merge_cache_;
  std::uint64_t view_epoch_ = 0;

  bool atomic_ = false;
  std::mutex op_mu_;  ///< serializes operations (async vs caller thread)

 private:
  friend class TwoPhase;

  /// Validate, serialize and time one operation, then run it.
  Off run_op(bool collective, bool write, Off offset_etypes, const void* buf,
             Off count, const dt::Type& mt);
};

}  // namespace llio::mpiio
