#include "mpiio/engine.hpp"

#include <memory>

#include "common/error.hpp"
#include "mpiio/sieve.hpp"
#include "obs/phase.hpp"
#include "pfs/view_io.hpp"

namespace llio::mpiio {

IoEngine::IoEngine(sim::Comm* comm, pfs::FilePtr file,
                   std::shared_ptr<pfs::RangeLock> locks, const Options& opts)
    : comm_(comm), file_(std::move(file)), locks_(std::move(locks)),
      opts_(opts), view_(default_view()) {
  LLIO_REQUIRE(comm_ != nullptr, Errc::InvalidArgument, "engine: null comm");
  LLIO_REQUIRE(file_ != nullptr, Errc::InvalidArgument, "engine: null file");
  LLIO_REQUIRE(opts_.file_buffer_size > 0 && opts_.pack_buffer_size > 0,
               Errc::InvalidArgument, "engine: non-positive buffer size");
}

Off IoEngine::check_access(Off offset_etypes, const void* buf, Off count,
                           const dt::Type& mt) const {
  LLIO_REQUIRE(offset_etypes >= 0, Errc::InvalidArgument,
               "access: negative offset");
  LLIO_REQUIRE(count >= 0, Errc::InvalidArgument, "access: negative count");
  LLIO_REQUIRE(mt != nullptr, Errc::InvalidDatatype, "access: null memtype");
  LLIO_REQUIRE(buf != nullptr || count * mt->size() == 0,
               Errc::InvalidArgument, "access: null buffer");
  return offset_etypes * view_.etype->size();
}

namespace {
/// Atomic mode: hold one lock over the whole access span.
class WholeRangeLock {
 public:
  WholeRangeLock(bool enabled, pfs::RangeLock& locks, Off lo, Off hi)
      : enabled_(enabled), locks_(locks), lo_(lo), hi_(hi) {
    if (enabled_) locks_.lock(lo_, hi_);
  }
  ~WholeRangeLock() {
    if (enabled_) locks_.unlock(lo_, hi_);
  }
  WholeRangeLock(const WholeRangeLock&) = delete;
  WholeRangeLock& operator=(const WholeRangeLock&) = delete;

 private:
  bool enabled_;
  pfs::RangeLock& locks_;
  Off lo_, hi_;
};

// When the backend performs noncontiguous accesses itself (pfs::ViewIo —
// e.g. psrv view-class servers), ship it the filetype and the op's dense
// stream range instead of decomposing the access client-side.  The
// stream forms pack the user buffer straight into the backend's requests
// and unpack its replies straight into the user buffer, piece by piece,
// so no staging buffer exists.  The one view call replaces the whole
// sieve/direct strategy; it is counted as a file op of payload size (no
// sieving amplification to report).  The pack/unpack time inside it is
// copy time, not file time.
Off viewio_access(bool write, pfs::ViewIo& vio, const View& view,
                  IoOpStats& stats, Off stream_lo, Off nbytes, StreamMover& m) {
  const double copy0 = stats.copy_s;
  {
    obs::Phase t(stats.file_s, nullptr);
    if (write)
      vio.view_write_stream(view.filetype, view.disp, stream_lo, nbytes,
                            [&](Byte* p, Off s, Off n) {
                              obs::Phase c(stats.copy_s, nullptr);
                              m.to_stream(p, s - stream_lo, n);
                            });
    else
      vio.view_read_stream(view.filetype, view.disp, stream_lo, nbytes,
                           [&](const Byte* p, Off s, Off n) {
                             obs::Phase c(stats.copy_s, nullptr);
                             m.from_stream(p, s - stream_lo, n);
                           });
  }
  stats.file_s -= stats.copy_s - copy0;
  (write ? stats.file_write_ops : stats.file_read_ops) += 1;
  (write ? stats.file_write_bytes : stats.file_read_bytes) += nbytes;
  stats.bytes_moved += nbytes;
  return nbytes;
}
}  // namespace

Off IoEngine::indep(bool write, Off stream_lo, const void* buf, Off count,
                    const dt::Type& mt) {
  const Off nbytes = count * mt->size();
  if (nbytes <= 0) return 0;
  auto mover = make_mover(buf, count, mt);
  ViewNav& nv = nav();
  SieveContext ctx{*file_, *locks_, opts_, stats_, atomic_};
  const Off abs_lo = view_.disp + nv.stream_to_file_start(stream_lo);
  if (view_.dense()) {
    WholeRangeLock lock(atomic_, *locks_, abs_lo, abs_lo + nbytes);
    return (write ? dense_write : dense_read)(ctx, abs_lo, nbytes, *mover);
  }
  const Off abs_hi = view_.disp + nv.stream_to_file_end(stream_lo + nbytes);
  WholeRangeLock lock(atomic_, *locks_, abs_lo, abs_hi);
  if (pfs::ViewIo* vio = file_->view_io())
    return viewio_access(write, *vio, view_, stats_, stream_lo, nbytes,
                         *mover);
  if (choose_sieving(opts_, write, nbytes, abs_lo, abs_hi))
    return (write ? sieve_write : sieve_read)(ctx, nv, view_.disp, stream_lo,
                                              nbytes, *mover);
  return (write ? direct_write : direct_read)(ctx, nv, view_.disp, stream_lo,
                                              nbytes, *mover);
}

std::unique_ptr<StreamMover> IoEngine::make_mover(const void* buf, Off count,
                                                  const dt::Type& mt) {
  if (mt->is_contiguous())
    return std::make_unique<ContigMover>(buf, mt->true_lb());
  return make_nc_mover(buf, count, mt);
}

namespace {
/// Brackets one operation: clears the per-op record on entry and, on
/// exit, folds it into the cumulative counters.  The op's wall time is an
/// obs::Phase opened after this guard (closed before it).
class OpRecord {
 public:
  OpRecord(IoOpStats& stats, IoOpStats& cumulative)
      : stats_(stats), cumulative_(cumulative) {
    stats_ = IoOpStats{};
  }
  ~OpRecord() { cumulative_ += stats_; }
  OpRecord(const OpRecord&) = delete;
  OpRecord& operator=(const OpRecord&) = delete;

 private:
  IoOpStats& stats_;
  IoOpStats& cumulative_;
};
}  // namespace

Off IoEngine::read_at(Off offset_etypes, void* buf, Off count,
                      const dt::Type& mt) {
  return run_op(false, false, offset_etypes, buf, count, mt);
}

Off IoEngine::write_at(Off offset_etypes, const void* buf, Off count,
                       const dt::Type& mt) {
  return run_op(false, true, offset_etypes, buf, count, mt);
}

Off IoEngine::read_at_all(Off offset_etypes, void* buf, Off count,
                          const dt::Type& mt) {
  return run_op(true, false, offset_etypes, buf, count, mt);
}

Off IoEngine::write_at_all(Off offset_etypes, const void* buf, Off count,
                           const dt::Type& mt) {
  return run_op(true, true, offset_etypes, buf, count, mt);
}

Off IoEngine::run_op(bool collective, bool write, Off offset_etypes,
                     const void* buf, Off count, const dt::Type& mt) {
  static const char* const kNames[] = {"read_at", "write_at", "read_at_all",
                                       "write_at_all"};
  const int k = 2 * static_cast<int>(collective) + static_cast<int>(write);
  const Off stream_lo = check_access(offset_etypes, buf, count, mt);
  std::lock_guard op_lock(op_mu_);
  OpRecord record(stats_, cumulative_);
  obs::Phase op(stats_.total_s, kNames[k]);
  if (collective) return TwoPhase(*this, write).run(stream_lo, buf, count, mt);
  return indep(write, stream_lo, buf, count, mt);
}

}  // namespace llio::mpiio
