#include "mpiio/engine.hpp"

#include <algorithm>
#include <memory>

#include "common/error.hpp"
#include "mpiio/sieve.hpp"
#include "obs/phase.hpp"
#include "obs/snapshot.hpp"
#include "pfs/backend_spec.hpp"
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
  // Validate here: observe_op re-parses it where it must not throw.
  if (!opts_.backend.empty()) pfs::parse_backend_spec(opts_.backend);
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
// e.g. psrv view-class servers), ship it the filetype and a dense stream
// chunk instead of decomposing the access client-side: the user buffer
// itself when the stream is contiguous in memory, else pack-buffer-sized
// staged chunks.  The one view call per chunk replaces the whole
// sieve/direct strategy; it is counted as a file op of payload size (no
// sieving amplification to report).
Off viewio_access(bool write, pfs::ViewIo& vio, const View& view,
                  const Options& opts, IoOpStats& stats, Off stream_lo,
                  Off nbytes, StreamMover& m) {
  auto view_call = [&](Off s, Byte* p, Off n) {
    {
      obs::Phase t(stats.file_s, nullptr);
      if (write)
        vio.view_write(view.filetype, view.disp, s,
                       ConstByteSpan(p, to_size(n)));
      else
        vio.view_read(view.filetype, view.disp, s, ByteSpan(p, to_size(n)));
    }
    (write ? stats.file_write_ops : stats.file_read_ops) += 1;
    (write ? stats.file_write_bytes : stats.file_read_bytes) += n;
  };
  Byte* direct = write ? const_cast<Byte*>(m.direct(0, nbytes))
                       : m.direct_mut(0, nbytes);
  if (direct != nullptr) {
    view_call(stream_lo, direct, nbytes);
  } else {
    // Not zero-filled: to_stream (write) or view_read (read) fills every
    // staged byte before it is read.
    const Off cap = std::min(nbytes, opts.pack_buffer_size);
    const auto buf = std::make_unique_for_overwrite<Byte[]>(to_size(cap));
    for (Off done = 0; done < nbytes;) {
      const Off n = std::min(nbytes - done, cap);
      if (write) {
        obs::Phase t(stats.copy_s, nullptr);
        m.to_stream(buf.get(), done, n);
      }
      view_call(stream_lo + done, buf.get(), n);
      if (!write) {
        obs::Phase t(stats.copy_s, nullptr);
        m.from_stream(buf.get(), done, n);
      }
      done += n;
    }
  }
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
    return viewio_access(write, *vio, view_, opts_, stats_, stream_lo, nbytes,
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
/// exit, folds it into the cumulative counters and hands it to
/// IoEngine::observe_op (per-rank histograms + sampling ring).  Also
/// snapshots the backend's async submission counters around the op so
/// the delta lands in async_file_ops / async_inflight_peak.  The op's
/// wall time is an obs::Phase opened after this guard (closed before it).
class OpRecord {
 public:
  OpRecord(std::uint32_t op_id, IoEngine& engine, IoOpStats& stats,
           IoOpStats& cumulative, const pfs::FileBackend* backend)
      : op_id_(op_id), engine_(engine), stats_(stats),
        cumulative_(cumulative), backend_(backend) {
    stats_ = IoOpStats{};
    if (backend_ != nullptr)
      if (const auto info = backend_->async_info())
        start_submitted_ = info->stats.submitted;
  }
  ~OpRecord() {
    int qd = 1;
    if (backend_ != nullptr)
      if (const auto info = backend_->async_info()) {
        stats_.async_file_ops = info->stats.submitted - start_submitted_;
        stats_.async_inflight_peak = info->stats.inflight_peak;
        qd = info->queue_depth;
      }
    cumulative_ += stats_;
    engine_.observe_op(op_id_, stats_, qd);
  }
  OpRecord(const OpRecord&) = delete;
  OpRecord& operator=(const OpRecord&) = delete;

 private:
  std::uint32_t op_id_;
  IoEngine& engine_;
  IoOpStats& stats_;
  IoOpStats& cumulative_;
  const pfs::FileBackend* backend_;
  std::uint64_t start_submitted_ = 0;
};
}  // namespace

void IoEngine::observe_op(std::uint32_t op_id, const IoOpStats& s,
                          int queue_depth) {
  if (obs::metrics_enabled())
    for (const auto& [name, seconds] : report_phases(s))
      local_metrics_.histogram("op." + name + "_us")
          .record(static_cast<long long>(seconds * 1e6));
  obs::Sampler& sampler = obs::Sampler::instance();
  if (!sampler.enabled()) return;
  if (!sample_dims_.resolved) {  // one-time per handle; op_mu_ is held
    sample_dims_.engine = sampler.intern(method_name(opts_.method));
    const std::string net =
        opts_.backend.empty() ? "" : pfs::parse_backend_spec(opts_.backend).net;
    sample_dims_.backend =
        sampler.intern(opts_.backend.empty() ? "default" : opts_.backend);
    sample_dims_.net = sampler.intern(net.empty() ? "default" : net);
    sample_dims_.resolved = true;
  }
  obs::OpSample sample;
  sample.rank = comm_->rank();
  sample.op = op_id;
  sample.engine = sample_dims_.engine;
  sample.backend = sample_dims_.backend;
  sample.net = sample_dims_.net;
  sample.qd = queue_depth;
  sample.bytes = s.bytes_moved;
  sample.runs =
      static_cast<long long>(s.file_read_ops + s.file_write_ops);
  sample.dur_ns = static_cast<long long>(s.total_s * 1e9);
  sampler.record(sample);
}

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
  static const std::uint32_t kIds[] = {
      obs::Sampler::instance().intern(kNames[0]),
      obs::Sampler::instance().intern(kNames[1]),
      obs::Sampler::instance().intern(kNames[2]),
      obs::Sampler::instance().intern(kNames[3])};
  const int k = 2 * static_cast<int>(collective) + static_cast<int>(write);
  const Off stream_lo = check_access(offset_etypes, buf, count, mt);
  std::lock_guard op_lock(op_mu_);
  OpRecord record(kIds[k], *this, stats_, cumulative_, file_.get());
  obs::Phase op(stats_.total_s, kNames[k]);
  if (collective) return TwoPhase(*this, write).run(stream_lo, buf, count, mt);
  return indep(write, stream_lo, buf, count, mt);
}

}  // namespace llio::mpiio
