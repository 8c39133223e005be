#include "mpiio/file.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <mutex>

#include "adapt/advisor.hpp"
#include "common/error.hpp"
#include "common/format.hpp"
#include "common/timer.hpp"
#include "common/worker_pool.hpp"
#include "core/listless_engine.hpp"
#include "dtype/serialize.hpp"
#include "listio/list_engine.hpp"
#include "obs/metrics.hpp"
#include "obs/snapshot.hpp"
#include "obs/trace.hpp"
#include "pfs/traced_file.hpp"
#include "psrv/server_file.hpp"

namespace llio::mpiio {

/// Shared-file-pointer state: one per backend among concurrently open
/// handles (rank-threads share the address space).
struct File::SharedFp {
  std::mutex mu;
  Off etypes = 0;

  Off load() {
    std::lock_guard lock(mu);
    return etypes;
  }

  void store(Off v) {
    std::lock_guard lock(mu);
    etypes = v;
  }

  Off fetch_add(Off v) {
    std::lock_guard lock(mu);
    const Off old = etypes;
    etypes += v;
    return old;
  }
};

namespace {

/// Per-open shared state: the range-lock table protecting sieving
/// read-modify-write and the shared file pointer.  Created by rank 0 and
/// distributed collectively — rank-threads share the address space, so a
/// broadcast of the owner's shared_ptr (copied before rank 0 leaves the
/// closing barrier) hands every rank the same instance.
struct OpenShared {
  std::shared_ptr<pfs::RangeLock> locks;
  std::shared_ptr<File::SharedFp> fp;
};

OpenShared exchange_open_shared(sim::Comm& comm) {
  OpenShared mine;
  if (comm.rank() == 0) {
    mine.locks = std::make_shared<pfs::RangeLock>();
    mine.fp = std::make_shared<File::SharedFp>();
    const OpenShared* self = &mine;
    ByteVec raw(sizeof(self));
    std::memcpy(raw.data(), &self, sizeof(self));
    comm.bcast(0, raw);
    comm.barrier();  // keep `mine` alive until every rank copied it
  } else {
    const ByteVec raw = comm.bcast(0, {});
    LLIO_REQUIRE(raw.size() == sizeof(const OpenShared*), Errc::Protocol,
                 "open: bad shared-state broadcast");
    const OpenShared* remote;
    std::memcpy(&remote, raw.data(), sizeof(remote));
    mine = *remote;  // shared_ptr copies; refcounts are thread-safe
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

Method other_method(Method m) {
  return m == Method::Listless ? Method::ListBased : Method::Listless;
}

/// Rank-harmonized signature of the installed fileview: FNV-1a over the
/// serialized filetype plus disp and etype size, allreduce-maxed so every
/// rank keys its advisor on the same value even when per-rank filetypes
/// differ (the usual case — each rank views its own slice).
std::uint64_t view_signature(sim::Comm& comm, Off disp, const dt::Type& etype,
                             const dt::Type& filetype) {
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  for (const Byte b : dt::serialize(filetype)) {
    h ^= static_cast<std::uint64_t>(b);
    h *= 1099511628211ull;
  }
  mix(static_cast<std::uint64_t>(disp));
  mix(static_cast<std::uint64_t>(etype->size()));
  // Clamp to the non-negative Off range the reduction works in.
  const Off mine = static_cast<Off>(h & 0x7fffffffffffffffull);
  return static_cast<std::uint64_t>(comm.allreduce_max(mine));
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
  // Observability hints act on the process-global tracer/registry.  All
  // ranks of a collective open carry the same Options, so the repeated
  // stores are idempotent.
  if (opts.trace) obs::Tracer::instance().set_level(*opts.trace);
  if (opts.trace_file)
    obs::Tracer::instance().set_output_path(*opts.trace_file);
  if (opts.metrics) obs::set_metrics_enabled(*opts.metrics);
  if (opts.obs_sample) obs::Sampler::instance().set_enabled(*opts.obs_sample);
  // Resizing replaces the ring (dropping retained samples), so only act
  // when the capacity actually changes: a re-open with the same hint is
  // a no-op, and racing ranks of one collective open at worst install a
  // few empty rings of the same size (old rings leak by design).
  if (opts.obs_ring > 0 &&
      static_cast<std::size_t>(opts.obs_ring) !=
          obs::Sampler::instance().capacity()) {
    obs::Sampler::instance().set_capacity(
        static_cast<std::size_t>(opts.obs_ring));
  }
  // Per-file-op observation needs the TracedFile decorator in the path.
  // Wrapping is per-handle and forwards to the shared inner backend, so
  // peers opening the same backend unwrapped stay coherent.
  if ((obs::trace_enabled(obs::TraceLevel::Full) || obs::metrics_enabled()) &&
      dynamic_cast<pfs::TracedFile*>(backend.get()) == nullptr) {
    backend = pfs::TracedFile::wrap(std::move(backend));
  }
  // Every layer of the backend stack splits oversized iovec batches at
  // the same ceiling (idempotent across a collective open: all ranks
  // carry the same Options).
  backend->set_iov_batch_max(opts.iov_batch_max);
  OpenShared shared = exchange_open_shared(comm);
  auto engine = make_engine(comm, backend, shared.locks, opts);
  engine->set_view(default_view());
  File f(std::move(engine), backend);
  f.shared_fp_ = std::move(shared.fp);
  if (opts.adaptive != Adaptive::Off) {
    // Second engine of the other method, sharing the backend and the
    // range-lock table so the advisor can switch mid-run; identical
    // options otherwise, so llio_adaptive=off minus the advisor is the
    // only behavioral delta.
    Options alt = opts;
    alt.method = other_method(opts.method);
    f.alt_engine_ =
        make_engine(comm, std::move(backend), std::move(shared.locks), alt);
    f.alt_engine_->set_view(default_view());
    f.advisor_ = adapt::make_advisor(adapt::config_from_options(opts));
    obs::Sampler& sampler = obs::Sampler::instance();
    f.dim_backend_ =
        sampler.intern(opts.backend.empty() ? "default" : opts.backend);
    f.dim_net_ =
        sampler.intern(opts.net_model.empty() ? "default" : opts.net_model);
    f.dim_read_all_ = sampler.intern("read_at_all");
    f.dim_write_all_ = sampler.intern("write_at_all");
    f.dim_net_cur_ = f.dim_net_;
    f.net_seen_ = comm.cost_model();
  }
  return f;
}

File File::open(sim::Comm& comm, pfs::FilePtr backend, const Info& info,
                const Options& base) {
  return open(comm, std::move(backend), apply_info(info, base));
}

void File::set_view(Off disp, const dt::Type& etype,
                    const dt::Type& filetype) {
  engine_->set_view(View{disp, etype, filetype});
  if (alt_engine_) alt_engine_->set_view(View{disp, etype, filetype});
  if (advisor_)
    view_sig_ = view_signature(engine_->comm(), disp, etype, filetype);
  pointer_etypes_ = 0;
  // MPI_File_set_view resets the shared pointer as well (collective).
  engine_->comm().barrier();
  if (engine_->comm().rank() == 0) shared_fp_->store(0);
  engine_->comm().barrier();
}

const View& File::view() const { return engine_->view(); }

Off File::read_at(Off offset, void* buf, Off count, const dt::Type& mt) {
  last_engine_ = engine_.get();
  return engine_->read_at(offset, buf, count, mt);
}

Off File::write_at(Off offset, const void* buf, Off count,
                   const dt::Type& mt) {
  last_engine_ = engine_.get();
  return engine_->write_at(offset, buf, count, mt);
}

Off File::read_at_all(Off offset, void* buf, Off count, const dt::Type& mt) {
  if (advisor_)
    return adaptive_collective(/*writing=*/false, offset, buf, nullptr, count,
                               mt);
  last_engine_ = engine_.get();
  return engine_->read_at_all(offset, buf, count, mt);
}

Off File::write_at_all(Off offset, const void* buf, Off count,
                       const dt::Type& mt) {
  if (advisor_)
    return adaptive_collective(/*writing=*/true, offset, nullptr, buf, count,
                               mt);
  last_engine_ = engine_.get();
  return engine_->write_at_all(offset, buf, count, mt);
}

IoEngine& File::engine_for(Method m) {
  if (alt_engine_ && alt_engine_->options().method == m) return *alt_engine_;
  return *engine_;
}

Off File::adaptive_collective(bool writing, Off offset, void* rbuf,
                              const void* wbuf, Off count,
                              const dt::Type& mt) {
  sim::Comm& comm = engine_->comm();

  // A mid-run interconnect change (sim::Comm::set_cost_model — the
  // adversarial-flip benches) must move subsequent ops under a new net
  // dim: the advisor then keys the new regime fresh instead of blending
  // its costs into the old net's EWMAs, which would take many
  // observations to un-learn.  The synthesized name follows the
  // sim::named_cost_model "<latency_s>:<bandwidth_bps>" syntax.
  const sim::CommCostModel live = comm.cost_model();
  if (live.latency_s != net_seen_.latency_s ||
      live.bandwidth_bps != net_seen_.bandwidth_bps) {
    net_seen_ = live;
    dim_net_cur_ = obs::Sampler::instance().intern(
        strprintf("%g:%g", live.latency_s, live.bandwidth_bps));
  }

  adapt::OpContext ctx;
  ctx.op = writing ? dim_write_all_ : dim_read_all_;
  ctx.backend = dim_backend_;
  ctx.net = dim_net_cur_;
  ctx.view_sig = view_sig_;
  ctx.writing = writing;
  ctx.view_io = backend_->view_io() != nullptr;
  ctx.nprocs = comm.size();
  {
    const IoOpStats& c = cumulative_stats();
    const double denom = c.copy_s + c.file_s;
    ctx.pack_frac = denom > 0 ? c.copy_s / denom : -1.0;
  }

  // Rank 0 decides; followers adopt the broadcast arm so every rank runs
  // the same engine with the same tuning (a collective requirement).
  // This one small bcast is the adaptive path's only extra communication
  // per op.  The job-global payload rides along in it: rank 0 estimates
  // nbytes as nprocs x its own contribution — it only feeds the log2
  // size-class key and the ns/byte normalization, where a skewed rank
  // distribution costs at most one size class, nothing a reduction is
  // worth paying latency for on every op.
  adapt::Decision d;
  if (comm.rank() == 0) {
    ctx.nbytes = count * mt->size() * comm.size();
    d = advisor_->advise(ctx);
    ByteVec raw(11);
    raw[0] = static_cast<Byte>(d.arm & 0xff);
    raw[1] = static_cast<Byte>(d.arm >> 8);
    raw[2] = static_cast<Byte>(d.probe ? 1 : 0);
    for (int i = 0; i < 8; ++i)
      raw[3 + i] = static_cast<Byte>(
          (static_cast<unsigned long long>(ctx.nbytes) >> (8 * i)) & 0xff);
    comm.bcast(0, raw);
  } else {
    const ByteVec raw = comm.bcast(0, {});
    LLIO_REQUIRE(raw.size() == 11, Errc::Protocol,
                 "adaptive: bad arm broadcast");
    const auto arm = static_cast<std::uint16_t>(
        static_cast<unsigned>(raw[0]) | (static_cast<unsigned>(raw[1]) << 8));
    unsigned long long nb = 0;
    for (int i = 0; i < 8; ++i)
      nb |= static_cast<unsigned long long>(raw[3 + i]) << (8 * i);
    ctx.nbytes = static_cast<long long>(nb);
    d = advisor_->follow(ctx, arm, raw[2] != Byte{0});
  }

  IoEngine& eng = engine_for(d.tuning.method);
  eng.apply_op_tuning({d.tuning.two_phase, d.tuning.pipeline_depth,
                       d.tuning.pack_threads, d.tuning.zerocopy,
                       d.tuning.window});
  last_engine_ = &eng;

  WallTimer timer;
  const Off n = writing ? eng.write_at_all(offset, wbuf, count, mt)
                        : eng.read_at_all(offset, rbuf, count, mt);

  // Cost of the op is this rank's wall time.  Collectives synchronize
  // internally, so the steering rank's local duration tracks the job
  // time closely — reducing to the exact max would cost another
  // latency-bound collective per op.  Follower advisors see their own
  // local view and may drift, but they never advise; only rank 0's
  // state steers decisions.
  advisor_->observe(ctx, d, {timer.seconds(), ctx.nbytes});
  return n;
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

Off File::read_all(void* buf, Off count, const dt::Type& mt) {
  const Off n = read_at_all(pointer_etypes_, buf, count, mt);
  advance(n);
  return n;
}

Off File::write_all(const void* buf, Off count, const dt::Type& mt) {
  const Off n = write_at_all(pointer_etypes_, buf, count, mt);
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

Off File::etypes_of(Off bytes) const {
  const Off esz = engine_->view().etype->size();
  LLIO_REQUIRE(bytes % esz == 0, Errc::InvalidArgument,
               "shared-pointer access must move a whole number of etypes");
  return bytes / esz;
}

Off File::tell_shared() const { return shared_fp_->load(); }

void File::seek_shared(Off offset_etypes, Whence whence) {
  sim::Comm& comm = engine_->comm();
  comm.barrier();
  if (comm.rank() == 0) {
    Off base = 0;
    switch (whence) {
      case Whence::Set: base = 0; break;
      case Whence::Cur: base = shared_fp_->load(); break;
      case Whence::End:
        base = size() / engine_->view().etype->size();
        break;
    }
    const Off target = base + offset_etypes;
    LLIO_REQUIRE(target >= 0, Errc::InvalidArgument,
                 "seek_shared: negative position");
    shared_fp_->store(target);
  }
  comm.barrier();
}

Off File::read_shared(void* buf, Off count, const dt::Type& mt) {
  const Off et = etypes_of(count * mt->size());
  const Off at = shared_fp_->fetch_add(et);
  last_engine_ = engine_.get();
  return engine_->read_at(at, buf, count, mt);
}

Off File::write_shared(const void* buf, Off count, const dt::Type& mt) {
  const Off et = etypes_of(count * mt->size());
  const Off at = shared_fp_->fetch_add(et);
  last_engine_ = engine_.get();
  return engine_->write_at(at, buf, count, mt);
}

Off File::read_ordered(void* buf, Off count, const dt::Type& mt) {
  sim::Comm& comm = engine_->comm();
  const Off et = etypes_of(count * mt->size());
  comm.barrier();  // quiesce pending shared-pointer updates
  const Off base = shared_fp_->load();
  const Off pre = comm.exscan_sum(et);
  last_engine_ = engine_.get();
  const Off n = engine_->read_at(base + pre, buf, count, mt);
  const Off total = comm.allreduce_sum(et);
  comm.barrier();
  if (comm.rank() == 0) shared_fp_->store(base + total);
  comm.barrier();
  return n;
}

Off File::write_ordered(const void* buf, Off count, const dt::Type& mt) {
  sim::Comm& comm = engine_->comm();
  const Off et = etypes_of(count * mt->size());
  comm.barrier();
  const Off base = shared_fp_->load();
  const Off pre = comm.exscan_sum(et);
  last_engine_ = engine_.get();
  const Off n = engine_->write_at(base + pre, buf, count, mt);
  const Off total = comm.allreduce_sum(et);
  comm.barrier();
  if (comm.rank() == 0) shared_fp_->store(base + total);
  comm.barrier();
  return n;
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
  if (alt_engine_) alt_engine_->set_atomicity(atomic);
  comm.barrier();
}

bool File::atomicity() const { return engine_->atomicity(); }

obs::JobReport File::close() {
  sim::Comm& comm = engine_->comm();
  // Each rank's span buffer is thread-local; flush before the collective
  // exchange so the tracer snapshot below sees every rank's spans.
  obs::flush_thread_trace();

  // Adaptive handles contribute both engines' work: the phase totals use
  // the merged cumulative stats and the per-rank histograms merge the two
  // engines' LocalRegistries (name-wise; the schema is identical).
  const IoOpStats& c = cumulative_stats();
  obs::RankSnapshot mine;
  mine.rank = comm.rank();
  mine.phases = report_phases(c);
  mine.counters = report_counters(c);
  mine.hists = engine_->local_metrics().histogram_data();
  if (alt_engine_) {
    for (const auto& [name, data] : alt_engine_->local_metrics().histogram_data()) {
      auto it = std::find_if(mine.hists.begin(), mine.hists.end(),
                             [&](const auto& h) { return h.first == name; });
      if (it == mine.hists.end()) {
        mine.hists.emplace_back(name, data);
      } else {
        it->second.merge(data);
      }
    }
  }

  obs::JobReport report = obs::aggregate(comm, mine);
  if (advisor_) advisor_->report_into(report);

  // Process-global sections: the registry, sampler, and tracer are
  // shared by all rank-threads of the simulated job, so every rank
  // attaches the same view and the reports stay rank-identical (the
  // allgather above synchronized the ranks, so no op is mid-flight).
  for (auto& [name, data] : obs::Registry::instance().histogram_data())
    report.global_hists.emplace_back(name, data.summary());
  // A psrv backend contributes its pool's summed server-side counters
  // (unwrapping the TracedFile decorator if observation added one).
  {
    const pfs::FileBackend* b = backend_.get();
    if (const auto* tf = dynamic_cast<const pfs::TracedFile*>(b))
      b = tf->inner().get();
    if (const auto* sf = dynamic_cast<const psrv::ServerFile*>(b)) {
      const psrv::ServerStats ps = sf->pool()->total_server_stats();
      report.global_counters = {
          {"psrv.requests", ps.requests},
          {"psrv.contig_ops", ps.contig_ops},
          {"psrv.list_ops", ps.list_ops},
          {"psrv.view_ops", ps.view_ops},
          {"psrv.bytes_in", ps.bytes_in},
          {"psrv.bytes_out", ps.bytes_out},
          {"psrv.batched_extents", ps.batched_extents},
          {"psrv.session_ops", ps.session_ops},
          {"psrv.lease_ops", ps.lease_ops},
          {"psrv.writeback_ops", ps.writeback_ops},
          {"psrv.writeback_bytes", ps.writeback_bytes},
          {"psrv.recalls_sent", ps.recalls_sent},
          {"psrv.parked", ps.parked},
          {"psrv.fenced_drops", ps.fenced_drops},
          {"psrv.agg_writes", ps.agg_writes},
          {"psrv.escalations", ps.escalations},
          {"psrv.max_queue_depth", ps.max_queue_depth},
      };
    }
  }
  const obs::MetricsSnapshot ms = obs::Sampler::instance().snapshot();
  report.samples_produced = ms.produced;
  report.samples_dropped = ms.dropped;
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

const IoOpStats& File::last_stats() const {
  return (last_engine_ != nullptr ? last_engine_ : engine_.get())
      ->last_stats();
}

const IoOpStats& File::cumulative_stats() const {
  if (!alt_engine_) return engine_->cumulative_stats();
  merged_cumulative_ = engine_->cumulative_stats();
  merged_cumulative_ += alt_engine_->cumulative_stats();
  return merged_cumulative_;
}

void File::reset_cumulative_stats() {
  engine_->reset_cumulative_stats();
  if (alt_engine_) alt_engine_->reset_cumulative_stats();
}

const Options& File::options() const { return engine_->options(); }

Info File::info() const { return options_to_info(engine_->options()); }

IoEngine& File::engine() { return *engine_; }

}  // namespace llio::mpiio
