#include "psrv/server_pool.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <map>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "core/listless_nav.hpp"
#include "dtype/serialize.hpp"
#include "obs/phase.hpp"
#include "pfs/mem_file.hpp"
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
    s.max_queue_depth = max_queue_depth.load(std::memory_order_relaxed);
    s.service_s =
        static_cast<double>(service_ns.load(std::memory_order_relaxed)) / 1e9;
    s.queue_wait_s =
        static_cast<double>(queue_wait_ns.load(std::memory_order_relaxed)) /
        1e9;
    return s;
  }
};

/// Per-server flow control: at most queue_depth requests in flight on
/// this server, summed over every handle on the pool.
struct ServerPool::CreditState {
  std::mutex mu;
  std::condition_variable cv;
  int inflight = 0;
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

  world_ = std::make_unique<sim::World>(cfg_.nservers + cfg_.client_slots,
                                        cfg_.net);
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

  threads_.reserve(to_size(Off{cfg_.nservers}));
  for (int s = 0; s < cfg_.nservers; ++s)
    threads_.emplace_back([this, s] { serve(s); });
}

ServerPool::~ServerPool() {
  try {
    Endpoint ep = checkout();
    const ByteVec stop = wire::request_header(wire::Op::Stop);
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

void ServerPool::Credit::release() {
  if (pool_ == nullptr) return;
  CreditState& cs = *pool_->credits_[to_size(Off{server_})];
  {
    std::lock_guard<std::mutex> lock(cs.mu);
    --cs.inflight;
  }
  cs.cv.notify_one();
  pool_ = nullptr;
}

std::optional<ServerPool::Credit> ServerPool::acquire_credit(int s,
                                                            bool wait) {
  LLIO_REQUIRE(s >= 0 && s < cfg_.nservers, Errc::InvalidArgument,
               "psrv: bad server index");
  CreditState& cs = *credits_[to_size(Off{s})];
  int depth = 0;
  {
    std::unique_lock<std::mutex> lock(cs.mu);
    if (wait)
      cs.cv.wait(lock, [&] { return cs.inflight < cfg_.queue_depth; });
    else if (cs.inflight >= cfg_.queue_depth)
      return std::nullopt;
    depth = ++cs.inflight;
  }
  AtomicServerStats& st = *stats_[to_size(Off{s})];
  std::uint64_t hwm = st.max_queue_depth.load(std::memory_order_relaxed);
  while (static_cast<std::uint64_t>(depth) > hwm &&
         !st.max_queue_depth.compare_exchange_weak(
             hwm, static_cast<std::uint64_t>(depth),
             std::memory_order_relaxed)) {
  }
  return Credit(this, s);
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

/// One queued request: the client slot to answer, the raw message (op
/// byte first), and when the server took it off its mailbox.
struct PendingReq {
  int src = -1;
  ByteVec msg;
  std::chrono::steady_clock::time_point enq{};
};

}  // namespace

void ServerPool::serve(int idx) {
  const obs::ThreadTrackGuard track(kServerTrackPid + idx, 0,
                                    "psrv server " + std::to_string(idx),
                                    "io");
  sim::Comm comm = world_->comm(idx);
  pfs::FileBackend& shard = *shards_[to_size(Off{idx})];
  const mpiio::Domain dom = domains_[to_size(Off{idx})];
  AtomicServerStats& st = *stats_[to_size(Off{idx})];

  ViewCache views;
  std::uint64_t use_tick = 0;
  // View requests' iovecs, kept across requests: a steady stream of view
  // requests allocates none.
  std::vector<pfs::IoVec> view_riov;
  std::vector<pfs::ConstIoVec> view_wiov;

  std::deque<PendingReq> queue;
  bool stopping = false;

  const auto ingest = [&](int src, ByteVec msg) {
    if (static_cast<wire::Op>(wire::Reader(msg).u8()) == wire::Op::Stop) {
      stopping = true;
      return;
    }
    queue.push_back({src, std::move(msg), std::chrono::steady_clock::now()});
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

  // Serve one request, account it and answer it.
  const auto serve_request = [&](const PendingReq& r) {
    wire::Reader rd(r.msg);
    const auto op = static_cast<wire::Op>(rd.u8());

    double service_s = 0;
    ByteVec resp;
    sim::MsgClass resp_cls = sim::MsgClass::Meta;
    try {
      obs::Phase timed(service_s, "psrv_service");
      timed.arg("op", static_cast<long long>(op));
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
          pfs::ConstIoVec one{off, data};
          shard.pwritev(std::span<const pfs::ConstIoVec>(&one, 1));
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
        default:
          throw_error(Errc::Protocol, "psrv: unknown request op");
      }
    } catch (const Error& e) {
      resp = wire::fail_response(e.code(), e.what());
      resp_cls = sim::MsgClass::Meta;
    } catch (const std::exception& e) {
      resp = wire::fail_response(Errc::Internal, e.what());
      resp_cls = sim::MsgClass::Meta;
    }

    st.requests.fetch_add(1, std::memory_order_relaxed);
    st.bytes_in.fetch_add(r.msg.size(), std::memory_order_relaxed);
    st.bytes_out.fetch_add(resp.size(), std::memory_order_relaxed);
    st.service_ns.fetch_add(static_cast<std::uint64_t>(service_s * 1e9),
                            std::memory_order_relaxed);
    // Ingest-to-now spans the wait and the service; keep only the wait.
    const double wait_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      r.enq)
            .count() -
        service_s;
    st.queue_wait_ns.fetch_add(static_cast<std::uint64_t>(wait_s * 1e9),
                               std::memory_order_relaxed);
    comm.send(r.src, wire::kTagResponse, std::move(resp), resp_cls);
  };

  try {
    while (!stopping) {
      // Block only when there is nothing to serve; then take everything
      // already delivered, stamping each request as it arrives.
      if (queue.empty()) {
        auto [src, msg] = comm.recv_any(wire::kTagRequest);
        ingest(src, std::move(msg));
      }
      while (!stopping) {
        auto m = comm.try_recv_any(wire::kTagRequest);
        if (!m) break;
        ingest(m->first, std::move(m->second));
      }
      if (stopping) break;
      serve_request(queue.front());
      queue.pop_front();
    }
  } catch (...) {
    // Transport failure or an unservable request: take the whole domain
    // down so clients get Errc::Protocol instead of hanging.
    world_->abort();
  }
}

}  // namespace llio::psrv
