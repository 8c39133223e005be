#include "mpiio/file.hpp"

#include <fstream>

#include "common/error.hpp"
#include "common/worker_pool.hpp"
#include "core/listless_engine.hpp"
#include "listio/list_engine.hpp"
#include "obs/trace.hpp"
#include "pfs/traced_file.hpp"
#include "psrv/server_file.hpp"

namespace llio::mpiio {

namespace {

using LockTable = std::shared_ptr<pfs::RangeLock>;

/// The range-lock table protecting sieving read-modify-write and atomic
/// mode, one per collective open.  Created by rank 0 and distributed
/// collectively — rank-threads share the address space, so a broadcast
/// of the owner's shared_ptr (copied before rank 0 leaves the closing
/// barrier) hands every rank the same instance.
LockTable exchange_open_locks(sim::Comm& comm) {
  LockTable mine;
  if (comm.rank() == 0) {
    mine = std::make_shared<pfs::RangeLock>();
    const LockTable* self = &mine;
    ByteVec raw(sizeof(self));
    std::memcpy(raw.data(), &self, sizeof(self));
    comm.bcast(0, raw);
    comm.barrier();  // keep `mine` alive until every rank copied it
  } else {
    const ByteVec raw = comm.bcast(0, {});
    LLIO_REQUIRE(raw.size() == sizeof(const LockTable*), Errc::Protocol,
                 "open: bad shared-state broadcast");
    const LockTable* remote;
    std::memcpy(&remote, raw.data(), sizeof(remote));
    mine = *remote;  // shared_ptr copy; refcounts are thread-safe
    comm.barrier();
  }
  return mine;
}

std::unique_ptr<IoEngine> make_engine(sim::Comm& comm, pfs::FilePtr backend,
                                      std::shared_ptr<pfs::RangeLock> locks,
                                      const Options& opts) {
  switch (opts.method) {
    case Method::ListBased:
      return std::make_unique<listio::ListEngine>(&comm, std::move(backend),
                                                  std::move(locks), opts);
    case Method::Listless:
      return std::make_unique<core::ListlessEngine>(&comm, std::move(backend),
                                                    std::move(locks), opts);
  }
  throw_error(Errc::InvalidArgument, "open: unknown method");
}

}  // namespace

File::File(std::unique_ptr<IoEngine> engine, pfs::FilePtr backend)
    : engine_(std::move(engine)), backend_(std::move(backend)) {}

File::File(File&&) noexcept = default;
File& File::operator=(File&&) noexcept = default;
File::~File() = default;

File File::open(sim::Comm& comm, pfs::FilePtr backend, const Options& opts) {
  LLIO_REQUIRE(backend != nullptr, Errc::InvalidArgument,
               "open: null backend");
  // Observability hints act on the process-global tracer.  All
  // ranks of a collective open carry the same Options, so the repeated
  // stores are idempotent.
  if (opts.trace) obs::Tracer::instance().set_level(*opts.trace);
  if (opts.trace_file)
    obs::Tracer::instance().set_output_path(*opts.trace_file);
  // Per-file-op observation needs the TracedFile decorator in the path.
  // Wrapping is per-handle and forwards to the shared inner backend, so
  // peers opening the same backend unwrapped stay coherent.
  if (obs::trace_enabled(obs::TraceLevel::Full) &&
      dynamic_cast<pfs::TracedFile*>(backend.get()) == nullptr) {
    backend = pfs::TracedFile::wrap(std::move(backend));
  }
  // Every layer of the backend stack splits oversized iovec batches at
  // the same ceiling (idempotent across a collective open: all ranks
  // carry the same Options).
  backend->set_iov_batch_max(opts.iov_batch_max);
  auto engine = make_engine(comm, backend, exchange_open_locks(comm), opts);
  engine->set_view(default_view());
  return File(std::move(engine), backend);
}

File File::open(sim::Comm& comm, pfs::FilePtr backend, const Info& info,
                const Options& base) {
  return open(comm, std::move(backend), apply_info(info, base));
}

void File::set_view(Off disp, const dt::Type& etype,
                    const dt::Type& filetype) {
  engine_->set_view(View{disp, etype, filetype});
  pointer_etypes_ = 0;
  // Collective: every rank's accesses before the call finish before any
  // rank's accesses after it.
  engine_->comm().barrier();
}

const View& File::view() const { return engine_->view(); }

Off File::read_at(Off offset, void* buf, Off count, const dt::Type& mt) {
  return engine_->read_at(offset, buf, count, mt);
}

Off File::write_at(Off offset, const void* buf, Off count,
                   const dt::Type& mt) {
  return engine_->write_at(offset, buf, count, mt);
}

Off File::read_at_all(Off offset, void* buf, Off count, const dt::Type& mt) {
  return engine_->read_at_all(offset, buf, count, mt);
}

Off File::write_at_all(Off offset, const void* buf, Off count,
                       const dt::Type& mt) {
  return engine_->write_at_all(offset, buf, count, mt);
}

void File::seek(Off offset_etypes, Whence whence) {
  Off base = 0;
  switch (whence) {
    case Whence::Set: base = 0; break;
    case Whence::Cur: base = pointer_etypes_; break;
    case Whence::End: {
      // End of the *view*: etypes visible below the current file size.
      const Off esz = engine_->view().etype->size();
      base = size() / esz;  // conservative byte-based bound
      break;
    }
  }
  const Off target = base + offset_etypes;
  LLIO_REQUIRE(target >= 0, Errc::InvalidArgument, "seek: negative position");
  pointer_etypes_ = target;
}

Off File::tell() const { return pointer_etypes_; }

void File::advance(Off bytes) {
  const Off esz = engine_->view().etype->size();
  LLIO_REQUIRE(bytes % esz == 0, Errc::InvalidArgument,
               "file-pointer access must move a whole number of etypes");
  pointer_etypes_ += bytes / esz;
}

Off File::read(void* buf, Off count, const dt::Type& mt) {
  const Off n = engine_->read_at(pointer_etypes_, buf, count, mt);
  advance(n);
  return n;
}

Off File::write(const void* buf, Off count, const dt::Type& mt) {
  const Off n = engine_->write_at(pointer_etypes_, buf, count, mt);
  advance(n);
  return n;
}

// Nonblocking requests run on the shared worker pool instead of detached
// std::async threads: each holds a one-worker reservation for its
// lifetime, so concurrent requests count against the same process-wide
// concurrency budget as the pipeline and AsyncIo engines.

Request File::iread_at(Off offset, void* buf, Off count, const dt::Type& mt) {
  IoEngine* engine = engine_.get();
  WorkerPool& pool = WorkerPool::shared();
  return Request(
      pool.submit([res = pool.reserve(1), engine, offset, buf, count, mt]() {
        return engine->read_at(offset, buf, count, mt);
      }));
}

Request File::iwrite_at(Off offset, const void* buf, Off count,
                        const dt::Type& mt) {
  IoEngine* engine = engine_.get();
  WorkerPool& pool = WorkerPool::shared();
  return Request(
      pool.submit([res = pool.reserve(1), engine, offset, buf, count, mt]() {
        return engine->write_at(offset, buf, count, mt);
      }));
}

void File::write_at_all_begin(Off offset, const void* buf, Off count,
                              const dt::Type& mt) {
  LLIO_REQUIRE(split_state_ == SplitState::Idle, Errc::InvalidArgument,
               "write_at_all_begin: a split collective is already pending");
  split_result_ = write_at_all(offset, buf, count, mt);
  split_state_ = SplitState::Writing;
  split_buf_ = buf;
}

Off File::write_at_all_end(const void* buf) {
  LLIO_REQUIRE(split_state_ == SplitState::Writing && buf == split_buf_,
               Errc::InvalidArgument,
               "write_at_all_end: no matching write_at_all_begin");
  split_state_ = SplitState::Idle;
  split_buf_ = nullptr;
  return split_result_;
}

void File::read_at_all_begin(Off offset, void* buf, Off count,
                             const dt::Type& mt) {
  LLIO_REQUIRE(split_state_ == SplitState::Idle, Errc::InvalidArgument,
               "read_at_all_begin: a split collective is already pending");
  split_result_ = read_at_all(offset, buf, count, mt);
  split_state_ = SplitState::Reading;
  split_buf_ = buf;
}

Off File::read_at_all_end(void* buf) {
  LLIO_REQUIRE(split_state_ == SplitState::Reading && buf == split_buf_,
               Errc::InvalidArgument,
               "read_at_all_end: no matching read_at_all_begin");
  split_state_ = SplitState::Idle;
  split_buf_ = nullptr;
  return split_result_;
}

Off File::size() const { return backend_->size(); }

void File::set_size(Off bytes) {
  LLIO_REQUIRE(bytes >= 0, Errc::InvalidArgument, "set_size: negative size");
  sim::Comm& comm = engine_->comm();
  comm.barrier();
  if (comm.rank() == 0) backend_->resize(bytes);
  comm.barrier();
}

void File::preallocate(Off bytes) {
  LLIO_REQUIRE(bytes >= 0, Errc::InvalidArgument,
               "preallocate: negative size");
  sim::Comm& comm = engine_->comm();
  comm.barrier();
  if (comm.rank() == 0 && backend_->size() < bytes) backend_->resize(bytes);
  comm.barrier();
}

void File::sync() {
  sim::Comm& comm = engine_->comm();
  comm.barrier();
  if (comm.rank() == 0) backend_->sync();
  comm.barrier();
}

void File::set_atomicity(bool atomic) {
  sim::Comm& comm = engine_->comm();
  comm.barrier();
  engine_->set_atomicity(atomic);
  comm.barrier();
}

bool File::atomicity() const { return engine_->atomicity(); }

obs::JobReport File::close() {
  sim::Comm& comm = engine_->comm();
  // Each rank's span buffer is thread-local; flush before the collective
  // exchange so the tracer snapshot below sees every rank's spans.
  obs::flush_thread_trace();

  const IoOpStats& c = cumulative_stats();
  obs::RankSnapshot mine;
  mine.rank = comm.rank();
  mine.phases = report_phases(c);
  mine.counters = report_counters(c);

  obs::JobReport report = obs::aggregate(comm, mine);

  // Backend-wide sections: the backend and the tracer are shared by all
  // rank-threads of the simulated job, so every rank attaches the same
  // view and the reports stay rank-identical (the allgather above
  // synchronized the ranks, so no op is mid-flight).
  // A psrv backend contributes its pool's summed server-side counters
  // (unwrapping the TracedFile decorator if observation added one).
  {
    const pfs::FileBackend* b = backend_.get();
    if (const auto* tf = dynamic_cast<const pfs::TracedFile*>(b))
      b = tf->inner().get();
    if (const auto* sf = dynamic_cast<const psrv::ServerFile*>(b)) {
      const psrv::ServerStats ps = sf->pool()->total_server_stats();
      report.global_counters.insert(report.global_counters.end(), {
          {"psrv.requests", ps.requests},
          {"psrv.contig_ops", ps.contig_ops},
          {"psrv.list_ops", ps.list_ops},
          {"psrv.view_ops", ps.view_ops},
          {"psrv.bytes_in", ps.bytes_in},
          {"psrv.bytes_out", ps.bytes_out},
          {"psrv.batched_extents", ps.batched_extents},
          {"psrv.max_queue_depth", ps.max_queue_depth},
      });
    }
  }
  // A queue-depth engine contributes its since-open totals.
  if (const auto ai = backend_->async_info()) {
    report.global_counters.insert(report.global_counters.end(), {
        {"aio.submitted", ai->stats.submitted},
        {"aio.completed", ai->stats.completed},
        {"aio.inflight_peak", ai->stats.inflight_peak},
    });
  }
  if (obs::trace_enabled())
    report.critical = obs::critical_path(obs::Tracer::instance().snapshot());

  const std::string& path = engine_->options().report_path;
  if (!path.empty() && comm.rank() == 0) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    LLIO_REQUIRE(out.good(), Errc::Io, "close: cannot open report file " + path);
    const std::string json = report.to_json();
    out.write(json.data(), static_cast<std::streamsize>(json.size()));
    out.put('\n');
    LLIO_REQUIRE(out.good(), Errc::Io, "close: short write to " + path);
  }
  comm.barrier();  // readers of the report see it complete after close()
  return report;
}

const IoOpStats& File::last_stats() const { return engine_->last_stats(); }

const IoOpStats& File::cumulative_stats() const {
  return engine_->cumulative_stats();
}

void File::reset_cumulative_stats() { engine_->reset_cumulative_stats(); }

const Options& File::options() const { return engine_->options(); }

Info File::info() const { return options_to_info(engine_->options()); }

IoEngine& File::engine() { return *engine_; }

}  // namespace llio::mpiio
