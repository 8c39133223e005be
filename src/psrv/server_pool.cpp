#include "psrv/server_pool.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <limits>
#include <map>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "common/format.hpp"
#include "core/listless_nav.hpp"
#include "dtype/serialize.hpp"
#include "obs/metrics.hpp"
#include "obs/phase.hpp"
#include "pfs/mem_file.hpp"
#include "psrv/lease.hpp"
#include "psrv/session.hpp"
#include "psrv/wire.hpp"

namespace llio::psrv {

namespace {
// Server threads get their own trace tracks, away from the rank pids.
constexpr int kServerTrackPid = 1000;
}  // namespace

ServerStats& ServerStats::operator+=(const ServerStats& o) {
  requests += o.requests;
  contig_ops += o.contig_ops;
  list_ops += o.list_ops;
  view_ops += o.view_ops;
  admin_ops += o.admin_ops;
  bytes_in += o.bytes_in;
  bytes_out += o.bytes_out;
  contig_bytes += o.contig_bytes;
  list_bytes += o.list_bytes;
  view_bytes += o.view_bytes;
  list_extents += o.list_extents;
  view_segments += o.view_segments;
  batched_extents += o.batched_extents;
  view_installs += o.view_installs;
  view_evictions += o.view_evictions;
  view_misses += o.view_misses;
  session_ops += o.session_ops;
  lease_ops += o.lease_ops;
  writeback_ops += o.writeback_ops;
  writeback_bytes += o.writeback_bytes;
  recalls_sent += o.recalls_sent;
  parked += o.parked;
  fenced_drops += o.fenced_drops;
  agg_writes += o.agg_writes;
  escalations += o.escalations;
  max_queue_depth = std::max(max_queue_depth, o.max_queue_depth);
  service_s += o.service_s;
  queue_wait_s += o.queue_wait_s;
  return *this;
}

struct ServerPool::AtomicServerStats {
  std::atomic<std::uint64_t> requests{0};
  std::atomic<std::uint64_t> contig_ops{0}, list_ops{0}, view_ops{0},
      admin_ops{0};
  std::atomic<std::uint64_t> bytes_in{0}, bytes_out{0};
  std::atomic<std::uint64_t> contig_bytes{0}, list_bytes{0}, view_bytes{0};
  std::atomic<std::uint64_t> list_extents{0}, view_segments{0},
      batched_extents{0};
  std::atomic<std::uint64_t> view_installs{0}, view_evictions{0},
      view_misses{0};
  std::atomic<std::uint64_t> session_ops{0}, lease_ops{0};
  std::atomic<std::uint64_t> writeback_ops{0}, writeback_bytes{0};
  std::atomic<std::uint64_t> recalls_sent{0}, parked{0}, fenced_drops{0};
  std::atomic<std::uint64_t> agg_writes{0}, escalations{0};
  std::atomic<std::uint64_t> max_queue_depth{0};
  std::atomic<std::uint64_t> service_ns{0};
  std::atomic<std::uint64_t> queue_wait_ns{0};

  ServerStats snapshot() const {
    ServerStats s;
    s.requests = requests.load(std::memory_order_relaxed);
    s.contig_ops = contig_ops.load(std::memory_order_relaxed);
    s.list_ops = list_ops.load(std::memory_order_relaxed);
    s.view_ops = view_ops.load(std::memory_order_relaxed);
    s.admin_ops = admin_ops.load(std::memory_order_relaxed);
    s.bytes_in = bytes_in.load(std::memory_order_relaxed);
    s.bytes_out = bytes_out.load(std::memory_order_relaxed);
    s.contig_bytes = contig_bytes.load(std::memory_order_relaxed);
    s.list_bytes = list_bytes.load(std::memory_order_relaxed);
    s.view_bytes = view_bytes.load(std::memory_order_relaxed);
    s.list_extents = list_extents.load(std::memory_order_relaxed);
    s.view_segments = view_segments.load(std::memory_order_relaxed);
    s.batched_extents = batched_extents.load(std::memory_order_relaxed);
    s.view_installs = view_installs.load(std::memory_order_relaxed);
    s.view_evictions = view_evictions.load(std::memory_order_relaxed);
    s.view_misses = view_misses.load(std::memory_order_relaxed);
    s.session_ops = session_ops.load(std::memory_order_relaxed);
    s.lease_ops = lease_ops.load(std::memory_order_relaxed);
    s.writeback_ops = writeback_ops.load(std::memory_order_relaxed);
    s.writeback_bytes = writeback_bytes.load(std::memory_order_relaxed);
    s.recalls_sent = recalls_sent.load(std::memory_order_relaxed);
    s.parked = parked.load(std::memory_order_relaxed);
    s.fenced_drops = fenced_drops.load(std::memory_order_relaxed);
    s.agg_writes = agg_writes.load(std::memory_order_relaxed);
    s.escalations = escalations.load(std::memory_order_relaxed);
    s.max_queue_depth = max_queue_depth.load(std::memory_order_relaxed);
    s.service_s =
        static_cast<double>(service_ns.load(std::memory_order_relaxed)) / 1e9;
    s.queue_wait_s =
        static_cast<double>(queue_wait_ns.load(std::memory_order_relaxed)) /
        1e9;
    return s;
  }
};

/// Per-server flow control, accounted per session: any one session may
/// have at most queue_depth requests in flight on this server.
struct ServerPool::CreditState {
  std::mutex mu;
  std::condition_variable cv;
  std::map<std::int64_t, int> inflight;  ///< session -> outstanding
};

std::shared_ptr<ServerPool> ServerPool::create(PoolConfig cfg) {
  return std::shared_ptr<ServerPool>(new ServerPool(std::move(cfg)));
}

ServerPool::ServerPool(PoolConfig cfg) : cfg_(std::move(cfg)) {
  LLIO_REQUIRE(cfg_.nservers >= 1, Errc::InvalidArgument,
               "psrv: nservers < 1");
  LLIO_REQUIRE(cfg_.stripe >= 1 && cfg_.capacity >= 1, Errc::InvalidArgument,
               "psrv: non-positive stripe/capacity");
  LLIO_REQUIRE(cfg_.queue_depth >= 1, Errc::InvalidArgument,
               "psrv: queue_depth < 1");
  LLIO_REQUIRE(cfg_.client_slots >= 1, Errc::InvalidArgument,
               "psrv: client_slots < 1");
  LLIO_REQUIRE(cfg_.view_cache_cap >= 1, Errc::InvalidArgument,
               "psrv: view_cache_cap < 1");
  LLIO_REQUIRE(cfg_.session_slots >= 0, Errc::InvalidArgument,
               "psrv: session_slots < 0");
  LLIO_REQUIRE(cfg_.lease_term >= 1 && cfg_.lease_grace >= 1,
               Errc::InvalidArgument, "psrv: non-positive lease term/grace");
  LLIO_REQUIRE(cfg_.deadline_ticks >= 1, Errc::InvalidArgument,
               "psrv: deadline_ticks < 1");
  LLIO_REQUIRE(cfg_.agg_max >= 1, Errc::InvalidArgument, "psrv: agg_max < 1");

  domains_ = mpiio::partition_domains({0, cfg_.capacity, /*any=*/true},
                                      cfg_.nservers, cfg_.stripe);
  // Open-ended last domain: every offset (even beyond `capacity`) has an
  // owner.  partition_domains guarantees only trailing domains are empty.
  for (auto it = domains_.rbegin(); it != domains_.rend(); ++it) {
    if (!it->empty()) {
      it->hi = kOpenEnd;
      break;
    }
  }

  world_ = std::make_unique<sim::World>(
      cfg_.nservers + cfg_.client_slots + cfg_.session_slots, cfg_.net);
  shards_.reserve(to_size(Off{cfg_.nservers}));
  for (int s = 0; s < cfg_.nservers; ++s) {
    shards_.push_back(cfg_.make_shard ? cfg_.make_shard(s)
                                      : pfs::MemFile::create());
    LLIO_REQUIRE(shards_.back() != nullptr, Errc::InvalidArgument,
                 "psrv: make_shard returned null");
    stats_.push_back(std::make_unique<AtomicServerStats>());
    credits_.push_back(std::make_unique<CreditState>());
  }
  free_slots_.reserve(to_size(Off{cfg_.client_slots}));
  for (int c = cfg_.client_slots - 1; c >= 0; --c)
    free_slots_.push_back(cfg_.nservers + c);
  free_session_slots_.reserve(to_size(Off{cfg_.session_slots}));
  for (int c = cfg_.session_slots - 1; c >= 0; --c)
    free_session_slots_.push_back(cfg_.nservers + cfg_.client_slots + c);

  threads_.reserve(to_size(Off{cfg_.nservers}));
  for (int s = 0; s < cfg_.nservers; ++s)
    threads_.emplace_back([this, s] { serve(s); });
}

ServerPool::~ServerPool() {
  try {
    Endpoint ep = checkout();
    const ByteVec stop = wire::request_header(wire::Op::Stop, 0);
    for (int s = 0; s < cfg_.nservers; ++s)
      ep.comm().send(s, wire::kTagRequest, ConstByteSpan(stop),
                     sim::MsgClass::Meta);
  } catch (...) {
    // A dead world (earlier server failure) still needs the join below.
    world_->abort();
  }
  for (auto& t : threads_) t.join();
}

int ServerPool::owner(Off off) const {
  LLIO_REQUIRE(off >= 0, Errc::InvalidArgument, "psrv: negative offset");
  for (std::size_t s = 0; s < domains_.size(); ++s) {
    const mpiio::Domain& d = domains_[s];
    if (!d.empty() && off >= d.lo && off < d.hi) return static_cast<int>(s);
  }
  throw_error(Errc::Internal, "psrv: offset has no owning server");
}

const pfs::FilePtr& ServerPool::shard(int s) const {
  LLIO_REQUIRE(s >= 0 && s < cfg_.nservers, Errc::InvalidArgument,
               "psrv: bad server index");
  return shards_[to_size(Off{s})];
}

void ServerPool::grow_size(Off hi) {
  Off cur = size_.load(std::memory_order_relaxed);
  while (hi > cur &&
         !size_.compare_exchange_weak(cur, hi, std::memory_order_acq_rel)) {
  }
}

void ServerPool::advance_to(std::int64_t t) noexcept {
  std::int64_t cur = clock_.load(std::memory_order_relaxed);
  while (t > cur &&
         !clock_.compare_exchange_weak(cur, t, std::memory_order_acq_rel)) {
  }
}

ServerStats ServerPool::server_stats(int s) const {
  LLIO_REQUIRE(s >= 0 && s < cfg_.nservers, Errc::InvalidArgument,
               "psrv: bad server index");
  return stats_[to_size(Off{s})]->snapshot();
}

ServerStats ServerPool::total_server_stats() const {
  ServerStats total;
  for (int s = 0; s < cfg_.nservers; ++s) total += server_stats(s);
  return total;
}

ServerPool::Endpoint::~Endpoint() {
  if (pool_ == nullptr) return;
  {
    std::lock_guard<std::mutex> lock(pool_->ep_mu_);
    pool_->free_slots_.push_back(slot_);
  }
  pool_->ep_cv_.notify_one();
}

ServerPool::Endpoint ServerPool::checkout() {
  std::unique_lock<std::mutex> lock(ep_mu_);
  ep_cv_.wait(lock, [&] { return !free_slots_.empty(); });
  const int slot = free_slots_.back();
  free_slots_.pop_back();
  lock.unlock();
  return Endpoint(this, slot, world_->comm(slot));
}

ServerPool::SessionSlot::~SessionSlot() {
  if (pool_ == nullptr) return;
  {
    std::lock_guard<std::mutex> lock(pool_->ss_mu_);
    pool_->free_session_slots_.push_back(slot_);
  }
  pool_->ss_cv_.notify_one();
}

ServerPool::SessionSlot ServerPool::checkout_session_slot() {
  LLIO_REQUIRE(cfg_.session_slots >= 1, Errc::InvalidArgument,
               "psrv: cached session needs session_slots >= 1");
  std::unique_lock<std::mutex> lock(ss_mu_);
  ss_cv_.wait(lock, [&] { return !free_session_slots_.empty(); });
  const int slot = free_session_slots_.back();
  free_session_slots_.pop_back();
  lock.unlock();
  return SessionSlot(this, slot, world_->comm(slot));
}

void ServerPool::Credit::release() {
  if (pool_ == nullptr) return;
  CreditState& cs = *pool_->credits_[to_size(Off{server_})];
  {
    std::lock_guard<std::mutex> lock(cs.mu);
    const auto it = cs.inflight.find(session_);
    if (it != cs.inflight.end() && --it->second <= 0) cs.inflight.erase(it);
  }
  cs.cv.notify_all();
  pool_ = nullptr;
}

ServerPool::Credit ServerPool::acquire_credit(int s, std::int64_t session) {
  LLIO_REQUIRE(s >= 0 && s < cfg_.nservers, Errc::InvalidArgument,
               "psrv: bad server index");
  CreditState& cs = *credits_[to_size(Off{s})];
  int depth = 0;
  {
    std::unique_lock<std::mutex> lock(cs.mu);
    cs.cv.wait(lock,
               [&] { return cs.inflight[session] < cfg_.queue_depth; });
    depth = ++cs.inflight[session];
  }
  AtomicServerStats& st = *stats_[to_size(Off{s})];
  std::uint64_t hwm = st.max_queue_depth.load(std::memory_order_relaxed);
  while (static_cast<std::uint64_t>(depth) > hwm &&
         !st.max_queue_depth.compare_exchange_weak(
             hwm, static_cast<std::uint64_t>(depth),
             std::memory_order_relaxed)) {
  }
  if (obs::metrics_enabled())
    obs::Registry::instance()
        .histogram(strprintf("psrv.s%d.queue_depth", s))
        .record(depth);
  return Credit(this, s, session);
}

std::optional<ServerPool::Credit> ServerPool::try_acquire_credit(
    int s, std::int64_t session) {
  LLIO_REQUIRE(s >= 0 && s < cfg_.nservers, Errc::InvalidArgument,
               "psrv: bad server index");
  CreditState& cs = *credits_[to_size(Off{s})];
  int depth = 0;
  {
    std::lock_guard<std::mutex> lock(cs.mu);
    int& inflight = cs.inflight[session];
    if (inflight >= cfg_.queue_depth) {
      if (inflight == 0) cs.inflight.erase(session);
      return std::nullopt;
    }
    depth = ++inflight;
  }
  AtomicServerStats& st = *stats_[to_size(Off{s})];
  std::uint64_t hwm = st.max_queue_depth.load(std::memory_order_relaxed);
  while (static_cast<std::uint64_t>(depth) > hwm &&
         !st.max_queue_depth.compare_exchange_weak(
             hwm, static_cast<std::uint64_t>(depth),
             std::memory_order_relaxed)) {
  }
  if (obs::metrics_enabled())
    obs::Registry::instance()
        .histogram(strprintf("psrv.s%d.queue_depth", s))
        .record(depth);
  return Credit(this, s, session);
}

// ---- server side ---------------------------------------------------------

namespace {

/// Per-server fileview cache entry: the deserialized tree plus a listless
/// navigator over it (stateful cursor — fine, the server is one thread).
struct ViewEntry {
  dt::Type ft;
  std::unique_ptr<core::ListlessNav> nav;
  std::uint64_t last_use = 0;
};

using ViewCache = std::map<std::int64_t, ViewEntry>;

/// What a server thread knows about an open session.
struct SessionInfo {
  std::int64_t weight = 1;
  int callback_slot = -1;  ///< where recalls go; -1 = no recall channel
  std::int64_t lease_term = 0;
};

bool is_express_op(wire::Op op) {
  switch (op) {
    case wire::Op::OpenSession:
    case wire::Op::CloseSession:
    case wire::Op::LeaseAcquire:
    case wire::Op::LeaseRelease:
    case wire::Op::WriteBack:
    case wire::Op::Resize:
    case wire::Op::Sync:
      return true;
    default:
      return false;
  }
}

bool touches_leases(wire::Op op) {
  switch (op) {
    case wire::Op::Read:
    case wire::Op::Write:
    case wire::Op::ReadList:
    case wire::Op::WriteList:
    case wire::Op::ReadView:
    case wire::Op::WriteView:
    case wire::Op::WriteBack:
      return true;
    default:
      return false;
  }
}

/// Wall-clock wait a server allows before deciding nothing is coming and
/// jumping the sim clock to the next recall deadline.  Liveness only —
/// generous so a live (but slow) client's flush always beats the jump.
constexpr double kStallWait = 0.1;

}  // namespace

void ServerPool::serve(int idx) {
  const obs::ThreadTrackGuard track(kServerTrackPid + idx, 0,
                                    "psrv server " + std::to_string(idx),
                                    "io");
  sim::Comm comm = world_->comm(idx);
  pfs::FileBackend& shard = *shards_[to_size(Off{idx})];
  const mpiio::Domain dom = domains_[to_size(Off{idx})];
  AtomicServerStats& st = *stats_[to_size(Off{idx})];
  obs::Histogram* service_hist =
      obs::metrics_enabled()
          ? &obs::Registry::instance().histogram(
                strprintf("psrv.s%d.service_us", idx))
          : nullptr;

  ViewCache views;
  std::uint64_t use_tick = 0;
  // View requests' iovecs, kept across requests: a steady stream of view
  // requests allocates none.
  std::vector<pfs::IoVec> view_riov;
  std::vector<pfs::ConstIoVec> view_wiov;

  FairScheduler sched(cfg_.deadline_ticks);
  lease::LeaseTable leases(cfg_.lease_grace);
  std::map<std::int64_t, SessionInfo> sessions;
  // Requests waiting out a lease conflict; their sessions' lanes are
  // blocked so later same-session requests cannot overtake (per-endpoint
  // response order).  Retried whenever the lease table version moves.
  std::deque<PendingReq> parked;
  std::uint64_t parked_seen = leases.version();
  bool stopping = false;

  const auto send_recalls = [&](const std::vector<lease::Lease>& newly) {
    for (const lease::Lease& l : newly) {
      const auto sit = sessions.find(l.session);
      if (sit == sessions.end() || sit->second.callback_slot < 0) continue;
      ByteVec m;
      wire::put_i64(m, l.id);
      wire::put_i64(m, l.lo);
      wire::put_i64(m, l.hi);
      wire::put_i64(m, l.recall_deadline);
      comm.send(sit->second.callback_slot, wire::kTagRecall, std::move(m),
                sim::MsgClass::Meta);
      st.recalls_sent.fetch_add(1, std::memory_order_relaxed);
    }
  };

  const auto ingest = [&](int src, ByteVec msg) {
    wire::Reader rd(msg);
    const auto op = static_cast<wire::Op>(rd.u8());
    if (op == wire::Op::Stop) {
      stopping = true;
      return;
    }
    const std::int64_t session = rd.i64();
    // Activity-based renewal: any request from a session keeps its read
    // leases fresh.
    leases.renew_session(session, now());
    PendingReq r;
    r.src = src;
    r.session = session;
    r.msg = std::move(msg);
    r.enq_tick = now();
    r.enq_wall = std::chrono::steady_clock::now();
    if (is_express_op(op)) {
      sched.push_express(std::move(r));
    } else {
      sched.push(std::move(r), now());
    }
  };

  // Conflicting lease ids (other sessions) in the way of a request.
  // `rd` is positioned just past the op byte and session id.
  const auto collect_blockers = [&](wire::Op op, wire::Reader rd,
                                    std::int64_t session) {
    std::vector<std::pair<Off, Off>> ranges;  // global byte spans
    bool writing = false;
    switch (op) {
      case wire::Op::Read: {
        const Off off = rd.i64();
        const Off len = rd.i64();
        if (len > 0) ranges.emplace_back(dom.lo + off, dom.lo + off + len);
        break;
      }
      case wire::Op::Write: {
        const Off off = rd.i64();
        const Off len = rd.remaining();
        writing = true;
        if (len > 0) ranges.emplace_back(dom.lo + off, dom.lo + off + len);
        break;
      }
      case wire::Op::ReadList:
      case wire::Op::WriteList:
      case wire::Op::WriteBack: {
        writing = op != wire::Op::ReadList;
        const Off n = rd.i64();
        for (Off i = 0; i < n; ++i) {
          const Off off = rd.i64();
          const Off len = rd.i64();
          if (len <= 0) continue;
          const Off lo = dom.lo + off;
          const Off hi = lo + len;
          // A fenced write-back extent will be dropped, not applied: it
          // cannot conflict with anything.
          if (op == wire::Op::WriteBack && leases.is_fenced(session, lo, hi))
            continue;
          ranges.emplace_back(lo, hi);
        }
        break;
      }
      case wire::Op::ReadView:
      case wire::Op::WriteView:
        // Conservative: a view op may touch anywhere in the shard (the
        // precise footprint is only known after navigating the tree).
        writing = op == wire::Op::WriteView;
        ranges.emplace_back(dom.lo, dom.hi);
        break;
      default:
        break;
    }
    std::vector<std::int64_t> ids;
    for (const auto& [lo, hi] : ranges)
      for (const lease::Lease* l :
           leases.conflicts(session, writing, lo, hi, now()))
        ids.push_back(l->id);
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    return ids;
  };

  // Replay an ol-list against the shard: adjacent extents (file-adjacent
  // AND payload-adjacent, which replay order guarantees) batch into one
  // vectored access.
  const auto replay_extents =
      [&](wire::Reader& rd, Off nextents,
          const std::function<void(Off local_off, Off len, Off payload_off)>&
              emit) -> Off {
    Off payload_off = 0;
    for (Off i = 0; i < nextents; ++i) {
      const Off off = rd.i64();
      const Off len = rd.i64();
      LLIO_REQUIRE(off >= 0 && len >= 0, Errc::Protocol,
                   "psrv: negative list extent");
      emit(off, len, payload_off);
      payload_off += len;
    }
    return payload_off;
  };

  // Account + answer one request.  `service_sec` covers shard/cpu work
  // (0 for writes that rode an aggregated pwritev).
  const auto respond = [&](const PendingReq& r, ByteVec resp,
                           sim::MsgClass cls, double service_sec) {
    st.requests.fetch_add(1, std::memory_order_relaxed);
    st.bytes_in.fetch_add(r.msg.size(), std::memory_order_relaxed);
    st.bytes_out.fetch_add(resp.size(), std::memory_order_relaxed);
    st.service_ns.fetch_add(static_cast<std::uint64_t>(service_sec * 1e9),
                            std::memory_order_relaxed);
    const double wait_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      r.enq_wall)
            .count();
    st.queue_wait_ns.fetch_add(static_cast<std::uint64_t>(wait_s * 1e9),
                               std::memory_order_relaxed);
    if (service_hist != nullptr)
      service_hist->record(static_cast<long long>(service_sec * 1e6));
    if (obs::metrics_enabled() && r.session != 0) {
      obs::Registry::instance()
          .histogram(strprintf("psrv.sess%lld.service_us",
                               static_cast<long long>(r.session)))
          .record(static_cast<long long>(service_sec * 1e6));
      obs::Registry::instance()
          .histogram(strprintf("psrv.sess%lld.queue_wait_us",
                               static_cast<long long>(r.session)))
          .record(static_cast<long long>(wait_s * 1e6));
    }
    comm.send(r.src, wire::kTagResponse, std::move(resp), cls);
  };

  // Serve a request whose lease conflicts are already cleared.
  const auto serve_request = [&](PendingReq r) {
    wire::Reader rd(r.msg);
    const auto op = static_cast<wire::Op>(rd.u8());
    const std::int64_t session = rd.i64();

    double service_s = 0;
    ByteVec resp;
    sim::MsgClass resp_cls = sim::MsgClass::Meta;
    // Writes coalesced into this request by cross-session aggregation:
    // (request, payload length).  They share the pwritev below and get
    // their own responses after the primary one.
    std::vector<std::pair<PendingReq, Off>> agg;
    bool failed = false;
    try {
      obs::Phase timed(service_s, "psrv_service");
      timed.arg("op", static_cast<long long>(op));
      timed.arg("session", static_cast<long long>(session));
      switch (op) {
        case wire::Op::Read: {
          const Off off = rd.i64();
          const Off len = rd.i64();
          LLIO_REQUIRE(off >= 0 && len >= 0, Errc::Protocol,
                       "psrv: bad read extent");
          resp = wire::ok_response(len, len);
          const std::size_t at = resp.size();
          resp.resize(at + to_size(len));
          pfs::IoVec one{off, ByteSpan(resp.data() + at, to_size(len))};
          shard.preadv(std::span<const pfs::IoVec>(&one, 1));
          resp_cls = sim::MsgClass::Data;
          st.contig_ops.fetch_add(1, std::memory_order_relaxed);
          st.contig_bytes.fetch_add(static_cast<std::uint64_t>(len),
                                    std::memory_order_relaxed);
          break;
        }
        case wire::Op::Write: {
          const Off off = rd.i64();
          const ConstByteSpan data = rd.rest();
          // Cross-session write aggregation: pull file-adjacent queued
          // writes (lane fronts only — preserves per-endpoint response
          // order) into this shard access.
          Off chain_end = off + to_off(data.size());
          while (static_cast<int>(agg.size()) + 1 < cfg_.agg_max) {
            auto stolen = sched.steal_front([&](const PendingReq& p) {
              wire::Reader prd(p.msg);
              if (static_cast<wire::Op>(prd.u8()) != wire::Op::Write)
                return false;
              const std::int64_t psess = prd.i64();
              const Off poff = prd.i64();
              if (poff != chain_end) return false;
              const Off plen = prd.remaining();
              return plen > 0 &&
                     leases
                         .conflicts(psess, /*writing=*/true, dom.lo + poff,
                                    dom.lo + poff + plen, now())
                         .empty();
            });
            if (!stolen) break;
            wire::Reader prd(stolen->msg);
            prd.u8();
            prd.i64();
            const Off poff = prd.i64();
            const Off plen = prd.remaining();
            chain_end = poff + plen;
            agg.emplace_back(std::move(*stolen), plen);
          }
          // File-adjacent by construction, but each payload lives in its
          // own message buffer: one iovec per request.
          std::vector<pfs::ConstIoVec> iov;
          iov.reserve(agg.size() + 1);
          iov.push_back({off, data});
          for (const auto& [ar, alen] : agg) {
            wire::Reader prd(ar.msg);
            prd.u8();
            prd.i64();
            const Off poff = prd.i64();
            iov.push_back({poff, prd.rest()});
          }
          shard.pwritev(iov);
          resp = wire::ok_response(to_off(data.size()));
          st.contig_ops.fetch_add(1, std::memory_order_relaxed);
          st.contig_bytes.fetch_add(data.size(), std::memory_order_relaxed);
          break;
        }
        case wire::Op::ReadList: {
          const Off nextents = rd.i64();
          std::vector<pfs::IoVec> iov;
          std::vector<std::pair<Off, Off>> extents;  // (local, len)
          extents.reserve(to_size(nextents));
          Off total = 0;
          total = replay_extents(rd, nextents,
                                 [&](Off off, Off len, Off /*pay*/) {
                                   extents.emplace_back(off, len);
                                 });
          resp = wire::ok_response(total, total);
          const std::size_t at = resp.size();
          resp.resize(at + to_size(total));
          Byte* payload = resp.data() + at;
          Off pay = 0;
          for (const auto& [off, len] : extents) {
            if (!iov.empty() &&
                iov.back().offset + to_off(iov.back().buf.size()) == off) {
              iov.back().buf =
                  ByteSpan(iov.back().buf.data(),
                           iov.back().buf.size() + to_size(len));
              st.batched_extents.fetch_add(1, std::memory_order_relaxed);
            } else {
              iov.push_back({off, ByteSpan(payload + pay, to_size(len))});
            }
            pay += len;
          }
          shard.preadv(iov);
          resp_cls = sim::MsgClass::Data;
          st.list_ops.fetch_add(1, std::memory_order_relaxed);
          st.list_extents.fetch_add(static_cast<std::uint64_t>(nextents),
                                    std::memory_order_relaxed);
          st.list_bytes.fetch_add(static_cast<std::uint64_t>(total),
                                  std::memory_order_relaxed);
          break;
        }
        case wire::Op::WriteList: {
          const Off nextents = rd.i64();
          std::vector<std::pair<Off, Off>> extents;
          extents.reserve(to_size(nextents));
          const Off total = replay_extents(
              rd, nextents, [&](Off off, Off len, Off /*pay*/) {
                extents.emplace_back(off, len);
              });
          const ConstByteSpan payload = rd.rest();
          LLIO_REQUIRE(to_off(payload.size()) == total, Errc::Protocol,
                       "psrv: list payload size mismatch");
          std::vector<pfs::ConstIoVec> iov;
          Off pay = 0;
          for (const auto& [off, len] : extents) {
            if (!iov.empty() &&
                iov.back().offset + to_off(iov.back().buf.size()) == off) {
              iov.back().buf =
                  ConstByteSpan(iov.back().buf.data(),
                                iov.back().buf.size() + to_size(len));
              st.batched_extents.fetch_add(1, std::memory_order_relaxed);
            } else {
              iov.push_back(
                  {off, ConstByteSpan(payload.data() + pay, to_size(len))});
            }
            pay += len;
          }
          shard.pwritev(iov);
          resp = wire::ok_response(total);
          st.list_ops.fetch_add(1, std::memory_order_relaxed);
          st.list_extents.fetch_add(static_cast<std::uint64_t>(nextents),
                                    std::memory_order_relaxed);
          st.list_bytes.fetch_add(static_cast<std::uint64_t>(total),
                                  std::memory_order_relaxed);
          break;
        }
        case wire::Op::ReadView:
        case wire::Op::WriteView: {
          const bool writing = op == wire::Op::WriteView;
          const std::int64_t view_id = rd.i64();
          const Off disp = rd.i64();
          const Off stream_lo = rd.i64();
          const Off len = writing ? -1 : rd.i64();
          const Off tree_len = rd.i64();
          const ConstByteSpan tree = rd.bytes(tree_len);
          const ConstByteSpan payload = writing ? rd.rest() : ConstByteSpan{};
          const Off n = writing ? to_off(payload.size()) : len;
          LLIO_REQUIRE(n >= 0 && stream_lo >= 0, Errc::Protocol,
                       "psrv: bad view request");

          auto it = views.find(view_id);
          if (it == views.end()) {
            if (tree_len == 0) {
              // Evicted (or never installed) — client retries with tree.
              resp.clear();
              wire::put_u8(resp, static_cast<std::uint8_t>(
                                     wire::Status::UnknownView));
              st.view_misses.fetch_add(1, std::memory_order_relaxed);
              break;
            }
            if (to_off(views.size()) >= Off{cfg_.view_cache_cap}) {
              auto victim = views.begin();
              for (auto v = views.begin(); v != views.end(); ++v)
                if (v->second.last_use < victim->second.last_use) victim = v;
              views.erase(victim);
              st.view_evictions.fetch_add(1, std::memory_order_relaxed);
            }
            dt::Type ft = dt::deserialize(tree);
            auto nav = std::make_unique<core::ListlessNav>(ft);
            it = views
                     .emplace(view_id,
                              ViewEntry{std::move(ft), std::move(nav), 0})
                     .first;
            st.view_installs.fetch_add(1, std::memory_order_relaxed);
          }
          it->second.last_use = ++use_tick;
          core::ListlessNav& nav = *it->second.nav;

          // One pass over the view's runs, each checked against the shard
          // and aimed at its slice of the dense stream: the payload
          // (write) or the reply (read).
          const auto walk = [&](auto& iov, auto* stream) {
            iov.clear();
            nav.for_each_run(stream_lo, n, [&](Off mem, Off s, Off seglen) {
              const Off file = disp + mem;
              LLIO_REQUIRE(file >= dom.lo && file + seglen <= dom.hi,
                           Errc::Protocol, "psrv: view segment outside shard");
              iov.push_back(
                  {file - dom.lo, {stream + (s - stream_lo), to_size(seglen)}});
            });
            st.view_segments.fetch_add(iov.size(), std::memory_order_relaxed);
          };
          if (writing) {
            walk(view_wiov, payload.data());
            shard.pwritev(view_wiov);
            resp = wire::ok_response(n);
          } else {
            resp = wire::ok_response(n, n);
            const std::size_t at = resp.size();
            resp.resize(at + to_size(n));
            walk(view_riov, resp.data() + at);
            shard.preadv(view_riov);
            resp_cls = sim::MsgClass::Data;
          }
          st.view_ops.fetch_add(1, std::memory_order_relaxed);
          st.view_bytes.fetch_add(static_cast<std::uint64_t>(n),
                                  std::memory_order_relaxed);
          break;
        }
        case wire::Op::Resize: {
          const Off new_size = rd.i64();
          LLIO_REQUIRE(new_size >= 0, Errc::Protocol,
                       "psrv: negative resize");
          const Off local =
              std::clamp<Off>(new_size - dom.lo, 0, dom.hi - dom.lo);
          if (!dom.empty()) shard.resize(local);
          resp = wire::ok_response(0);
          st.admin_ops.fetch_add(1, std::memory_order_relaxed);
          break;
        }
        case wire::Op::Sync: {
          shard.sync();
          resp = wire::ok_response(0);
          st.admin_ops.fetch_add(1, std::memory_order_relaxed);
          break;
        }
        case wire::Op::OpenSession: {
          const std::int64_t weight = rd.i64();
          const std::int64_t cb = rd.i64();
          const std::int64_t term = rd.i64();
          SessionInfo si;
          si.weight = std::max<std::int64_t>(1, weight);
          si.callback_slot = static_cast<int>(cb);
          si.lease_term = term > 0 ? term : cfg_.lease_term;
          sessions[session] = si;
          sched.set_weight(session, si.weight);
          resp = wire::ok_response(0);
          st.session_ops.fetch_add(1, std::memory_order_relaxed);
          break;
        }
        case wire::Op::CloseSession: {
          leases.drop_session(session);
          sched.drop_session(session);
          sessions.erase(session);
          resp = wire::ok_response(0);
          st.session_ops.fetch_add(1, std::memory_order_relaxed);
          break;
        }
        case wire::Op::LeaseAcquire: {
          const auto mode = static_cast<lease::Mode>(rd.u8());
          const Off lo = rd.i64();
          const Off hi = rd.i64();
          LLIO_REQUIRE(lo >= 0 && hi >= lo, Errc::Protocol,
                       "psrv: bad lease range");
          const auto sit = sessions.find(session);
          const std::int64_t term = sit != sessions.end()
                                        ? sit->second.lease_term
                                        : cfg_.lease_term;
          const lease::LeaseTable::Grant g = leases.acquire(
              alloc_lease_id(), session, mode, lo, hi, now(), term);
          if (!g.granted) send_recalls(g.recalled);
          resp = wire::ok_response(0);
          wire::put_u8(resp, g.granted ? 1 : 0);
          wire::put_i64(resp, g.lease_id);
          wire::put_i64(resp, g.expiry);
          st.lease_ops.fetch_add(1, std::memory_order_relaxed);
          break;
        }
        case wire::Op::LeaseRelease: {
          leases.release(rd.i64());
          resp = wire::ok_response(0);
          st.lease_ops.fetch_add(1, std::memory_order_relaxed);
          break;
        }
        case wire::Op::WriteBack: {
          const Off nextents = rd.i64();
          std::vector<std::pair<Off, Off>> extents;
          extents.reserve(to_size(nextents));
          const Off total = replay_extents(
              rd, nextents, [&](Off off, Off len, Off /*pay*/) {
                extents.emplace_back(off, len);
              });
          const ConstByteSpan payload = rd.rest();
          LLIO_REQUIRE(to_off(payload.size()) == total, Errc::Protocol,
                       "psrv: write-back payload size mismatch");
          std::vector<pfs::ConstIoVec> iov;
          Off pay = 0;
          Off applied = 0;
          for (const auto& [off, len] : extents) {
            const Off glo = dom.lo + off;
            if (len > 0 && leases.is_fenced(session, glo, glo + len)) {
              // The write lease protecting this extent was force-expired
              // (dead client): the dirty data lost the race and must not
              // land over whatever was served meanwhile.
              st.fenced_drops.fetch_add(1, std::memory_order_relaxed);
            } else if (len > 0) {
              iov.push_back(
                  {off, ConstByteSpan(payload.data() + pay, to_size(len))});
              applied += len;
            }
            pay += len;
          }
          if (!iov.empty()) shard.pwritev(iov);
          resp = wire::ok_response(applied);
          st.writeback_ops.fetch_add(1, std::memory_order_relaxed);
          st.writeback_bytes.fetch_add(static_cast<std::uint64_t>(applied),
                                       std::memory_order_relaxed);
          break;
        }
        default:
          throw_error(Errc::Protocol, "psrv: unknown request op");
      }
    } catch (const Error& e) {
      resp = wire::fail_response(e.code(), e.what());
      resp_cls = sim::MsgClass::Meta;
      failed = true;
    } catch (const std::exception& e) {
      resp = wire::fail_response(Errc::Internal, e.what());
      resp_cls = sim::MsgClass::Meta;
      failed = true;
    }
    tick();
    respond(r, std::move(resp), resp_cls, service_s);
    for (auto& [ar, alen] : agg) {
      tick();
      if (!failed) {
        st.contig_ops.fetch_add(1, std::memory_order_relaxed);
        st.contig_bytes.fetch_add(static_cast<std::uint64_t>(alen),
                                  std::memory_order_relaxed);
        st.agg_writes.fetch_add(1, std::memory_order_relaxed);
      }
      ByteVec aresp = failed ? wire::fail_response(Errc::Io,
                                                   "psrv: aggregated write "
                                                   "failed with its batch")
                             : wire::ok_response(alen);
      respond(ar, std::move(aresp), sim::MsgClass::Meta, 0.0);
    }
  };

  // Serve, or park on a lease conflict (recalling the leases in the way).
  // Returns true when the request was served (or failed) — i.e. answered.
  const auto try_serve = [&](PendingReq& r) -> bool {
    wire::Reader rd(r.msg);
    const auto op = static_cast<wire::Op>(rd.u8());
    const std::int64_t session = rd.i64();
    if (touches_leases(op)) {
      std::vector<std::int64_t> blockers;
      try {
        blockers = collect_blockers(op, rd, session);
      } catch (...) {
        // Malformed message: let serve_request produce the Fail response.
      }
      if (!blockers.empty()) {
        send_recalls(leases.mark_recalled(blockers, now()));
        return false;
      }
    }
    serve_request(std::move(r));
    return true;
  };

  try {
    while (!stopping) {
      // Drain everything already delivered, then schedule.
      while (auto m = comm.try_recv_any(wire::kTagRequest)) {
        ingest(m->first, std::move(m->second));
        if (stopping) break;
      }
      if (stopping) break;

      leases.sweep(now());
      if (!parked.empty() && leases.version() != parked_seen) {
        parked_seen = leases.version();
        for (auto it = parked.begin(); it != parked.end();) {
          if (try_serve(*it)) {
            const std::int64_t s = it->session;
            it = parked.erase(it);
            bool more = false;
            for (const auto& p : parked) more = more || p.session == s;
            if (!more) sched.unblock(s);
          } else {
            ++it;
          }
        }
      }

      std::optional<PendingReq> r = sched.pop(now());
      st.escalations.store(sched.escalations(), std::memory_order_relaxed);
      if (!r) {
        if (parked.empty() && sched.empty()) {
          auto [src, msg] = comm.recv_any(wire::kTagRequest);
          ingest(src, std::move(msg));
          continue;
        }
        // Parked work (or every lane blocked behind it): wait briefly for
        // the releases/flushes to arrive; if nothing comes, the holders
        // are gone — jump the sim clock to the recall deadline so the
        // sweep can force-expire them.
        auto m = comm.recv_any_for(wire::kTagRequest, kStallWait);
        if (m) {
          ingest(m->first, std::move(m->second));
          continue;
        }
        const std::int64_t dl = leases.earliest_recall_deadline();
        if (dl != lease::kNever && dl > now()) advance_to(dl);
        continue;
      }
      if (!try_serve(*r)) {
        sched.block(r->session);
        st.parked.fetch_add(1, std::memory_order_relaxed);
        parked.push_back(std::move(*r));
      }
    }
  } catch (...) {
    // Transport failure or an unservable request: take the whole domain
    // down so clients get Errc::Protocol instead of hanging.
    world_->abort();
  }
}

}  // namespace llio::psrv
