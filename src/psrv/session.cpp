#include "psrv/session.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "obs/snapshot.hpp"
#include "psrv/wire.hpp"

namespace llio::psrv {

// ---- FairScheduler -------------------------------------------------------

void FairScheduler::set_weight(std::int64_t session, std::int64_t weight) {
  const bool existed = lanes_.count(session) > 0;
  Lane& l = lanes_[session];
  l.weight = std::max<std::int64_t>(1, weight);
  if (!existed) rotation_.push_back(session);
}

void FairScheduler::drop_session(std::int64_t session) {
  const auto it = lanes_.find(session);
  if (it == lanes_.end()) return;
  size_ -= it->second.q.size();
  lanes_.erase(it);
  const auto rit = std::find(rotation_.begin(), rotation_.end(), session);
  if (rit != rotation_.end()) {
    const std::size_t at = static_cast<std::size_t>(rit - rotation_.begin());
    rotation_.erase(rit);
    if (cursor_ > at) --cursor_;
    if (!rotation_.empty()) cursor_ %= rotation_.size();
    else cursor_ = 0;
  }
}

void FairScheduler::push_express(PendingReq r) {
  express_.push_back(std::move(r));
  ++size_;
}

void FairScheduler::push(PendingReq r, std::int64_t now) {
  if (lanes_.count(r.session) == 0) set_weight(r.session, 1);
  r.deadline = now + deadline_ticks_;
  lanes_[r.session].q.push_back(std::move(r));
  ++size_;
}

void FairScheduler::block(std::int64_t session) {
  if (lanes_.count(session) == 0) set_weight(session, 1);
  lanes_[session].blocked = true;
}

void FairScheduler::unblock(std::int64_t session) {
  const auto it = lanes_.find(session);
  if (it != lanes_.end()) it->second.blocked = false;
}

std::optional<PendingReq> FairScheduler::pop(std::int64_t now) {
  if (!express_.empty()) {
    PendingReq r = std::move(express_.front());
    express_.pop_front();
    --size_;
    return r;
  }
  // Deadline lane: any unblocked lane front the clock has passed, oldest
  // deadline first.
  Lane* overdue = nullptr;
  for (auto& [sid, l] : lanes_) {
    if (l.blocked || l.q.empty() || l.q.front().deadline > now) continue;
    if (overdue == nullptr ||
        l.q.front().deadline < overdue->q.front().deadline)
      overdue = &l;
  }
  if (overdue != nullptr) {
    ++escalations_;
    PendingReq r = std::move(overdue->q.front());
    overdue->q.pop_front();
    --size_;
    return r;
  }
  // Weighted round-robin: the lane under the cursor serves up to its
  // weight before the cursor moves on.
  std::size_t scanned = 0;
  while (scanned < rotation_.size()) {
    const auto it = lanes_.find(rotation_[cursor_]);
    Lane* l = it != lanes_.end() ? &it->second : nullptr;
    if (l != nullptr && !l->blocked && !l->q.empty()) {
      if (l->deficit <= 0) l->deficit = l->weight;
      PendingReq r = std::move(l->q.front());
      l->q.pop_front();
      --size_;
      if (--l->deficit <= 0 || l->q.empty()) {
        l->deficit = 0;
        cursor_ = (cursor_ + 1) % rotation_.size();
      }
      return r;
    }
    if (l != nullptr) l->deficit = 0;
    cursor_ = (cursor_ + 1) % rotation_.size();
    ++scanned;
  }
  return std::nullopt;
}

std::optional<PendingReq> FairScheduler::steal_front(
    const std::function<bool(const PendingReq&)>& pred) {
  for (auto& [sid, l] : lanes_) {
    if (l.blocked || l.q.empty() || !pred(l.q.front())) continue;
    PendingReq r = std::move(l.q.front());
    l.q.pop_front();
    --size_;
    return r;
  }
  return std::nullopt;
}

// ---- Session: wire helpers -----------------------------------------------

namespace {

/// A shard-local slice of one global extent.
struct Slice {
  int server = 0;
  Off local_off = 0;
  Off global_lo = 0;
  Off len = 0;
};

std::vector<Slice> split_span(const ServerPool& pool, Off lo, Off hi) {
  std::vector<Slice> out;
  if (hi <= lo) return out;
  int s = pool.owner(lo);
  const auto& domains = pool.domains();
  Off at = lo;
  while (at < hi) {
    const mpiio::Domain& d = domains[static_cast<std::size_t>(s)];
    if (d.empty() || at >= d.hi) {
      ++s;
      LLIO_ASSERT(s < static_cast<int>(domains.size()),
                  "psrv session: span ran past the last shard");
      continue;
    }
    const Off take = std::min(hi - at, d.hi - at);
    out.push_back({s, at - d.lo, at, take});
    at += take;
  }
  return out;
}

/// One round trip on `comm`; throws the server-reported error.
ByteVec roundtrip(sim::Comm& comm, int server, ByteVec msg,
                  sim::MsgClass cls) {
  comm.send(server, wire::kTagRequest, std::move(msg), cls);
  ByteVec resp = comm.recv(server, wire::kTagResponse);
  wire::Reader rd(resp);
  const auto status = static_cast<wire::Status>(rd.u8());
  if (status == wire::Status::Fail) {
    const auto code = static_cast<Errc>(rd.u8());
    const ConstByteSpan what = rd.rest();
    throw_error(code, std::string(reinterpret_cast<const char*>(what.data()),
                                  what.size()));
  }
  LLIO_REQUIRE(status == wire::Status::Ok, Errc::Protocol,
               "psrv session: unexpected response status");
  return resp;
}

}  // namespace

bool Session::acquire_lease_span(sim::Comm& comm, lease::Mode mode, Off lo,
                                 Off hi, std::vector<ClientLease>& out) {
  for (const Slice& sl : split_span(*pool_, lo, hi)) {
    ByteVec msg = wire::request_header(wire::Op::LeaseAcquire, id_);
    wire::put_u8(msg, static_cast<std::uint8_t>(mode));
    wire::put_i64(msg, sl.global_lo);
    wire::put_i64(msg, sl.global_lo + sl.len);
    const ByteVec resp =
        roundtrip(comm, sl.server, std::move(msg), sim::MsgClass::Meta);
    wire::Reader rd(resp);
    rd.u8();   // status (Ok)
    rd.i64();  // count (informational)
    const bool granted = rd.u8() != 0;
    const std::int64_t lease_id = rd.i64();
    const std::int64_t expiry = rd.i64();
    if (!granted) return false;
    ClientLease l;
    l.id = lease_id;
    l.server = sl.server;
    l.mode = mode;
    l.lo = sl.global_lo;
    l.hi = sl.global_lo + sl.len;
    l.expiry = expiry;
    out.push_back(l);
  }
  return true;
}

void Session::release_leases(sim::Comm& comm,
                             const std::vector<ClientLease>& ls) noexcept {
  for (const ClientLease& l : ls) {
    try {
      ByteVec msg = wire::request_header(wire::Op::LeaseRelease, id_);
      wire::put_i64(msg, l.id);
      roundtrip(comm, l.server, std::move(msg), sim::MsgClass::Meta);
    } catch (...) {
      // Server gone or already dropped the lease; either way it's over.
    }
  }
}

void Session::fetch_span(sim::Comm& comm, Off lo, ByteSpan out) {
  await_recall_flushes();
  Off done = 0;
  for (const Slice& sl : split_span(*pool_, lo, lo + to_off(out.size()))) {
    ServerPool::Credit credit = pool_->acquire_credit(sl.server, id_);
    ByteVec msg = wire::request_header(wire::Op::Read, id_);
    wire::put_i64(msg, sl.local_off);
    wire::put_i64(msg, sl.len);
    const ByteVec resp =
        roundtrip(comm, sl.server, std::move(msg), sim::MsgClass::Meta);
    wire::Reader rd(resp);
    rd.u8();
    rd.i64();
    const ConstByteSpan chunk = rd.bytes(sl.len);
    std::memcpy(out.data() + done, chunk.data(), chunk.size());
    done += sl.len;
  }
}

void Session::await_recall_flushes() {
  std::unique_lock<std::mutex> lock(mu_);
  recall_flushed_.wait(lock, [this] { return recall_flushes_ == 0; });
}

void Session::write_back(sim::Comm& comm,
                         const std::vector<DirtyExtent>& extents) noexcept {
  if (extents.empty()) return;
  await_recall_flushes();
  send_write_back(comm, extents);
}

void Session::send_write_back(
    sim::Comm& comm, const std::vector<DirtyExtent>& extents) noexcept {
  if (extents.empty()) return;
  // One WriteBack message per server: extent list + payload, the
  // WriteList shape validated against fences server-side.
  struct PerServer {
    std::vector<std::pair<Off, Off>> list;  // (local_off, len)
    std::vector<ConstByteSpan> runs;
    Off total = 0;
  };
  std::map<int, PerServer> by_server;
  for (const DirtyExtent& e : extents) {
    for (const Slice& sl :
         split_span(*pool_, e.lo, e.lo + to_off(e.data.size()))) {
      PerServer& ps = by_server[sl.server];
      ps.list.emplace_back(sl.local_off, sl.len);
      ps.runs.push_back(ConstByteSpan(
          e.data.data() + to_size(sl.global_lo - e.lo), to_size(sl.len)));
      ps.total += sl.len;
    }
  }
  for (auto& [server, ps] : by_server) {
    try {
      ByteVec msg = wire::request_header(wire::Op::WriteBack, id_);
      wire::put_i64(msg, to_off(ps.list.size()));
      for (const auto& [off, len] : ps.list) {
        wire::put_i64(msg, off);
        wire::put_i64(msg, len);
      }
      comm.send_gather(server, wire::kTagRequest, ConstByteSpan(msg), ps.runs,
                       sim::MsgClass::Data);
      const ByteVec resp = comm.recv(server, wire::kTagResponse);
      wire::Reader rd(resp);
      const auto status = static_cast<wire::Status>(rd.u8());
      if (status == wire::Status::Ok) {
        rd.i64();  // bytes applied (fenced extents were dropped)
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.writeback_ops;
        stats_.writeback_bytes += static_cast<std::uint64_t>(ps.total);
      }
    } catch (...) {
      // Dead pool: the data is lost either way; fencing keeps it coherent.
    }
  }
}

void Session::close_on_servers(sim::Comm& comm) noexcept {
  for (int s = 0; s < pool_->nservers(); ++s) {
    try {
      roundtrip(comm, s, wire::request_header(wire::Op::CloseSession, id_),
                sim::MsgClass::Meta);
    } catch (...) {
    }
  }
}

// ---- Session: lifecycle --------------------------------------------------

Session::Session(std::shared_ptr<ServerPool> pool, SessionConfig cfg)
    : pool_(std::move(pool)), cfg_(cfg) {
  id_ = pool_->alloc_session_id();
}

std::unique_ptr<Session> Session::open(std::shared_ptr<ServerPool> pool,
                                       SessionConfig cfg) {
  LLIO_REQUIRE(pool != nullptr, Errc::InvalidArgument, "psrv: null pool");
  LLIO_REQUIRE(cfg.weight >= 1, Errc::InvalidArgument,
               "psrv session: weight < 1");
  LLIO_REQUIRE(cfg.cache_block >= 1 && cfg.cache_capacity >= 1,
               Errc::InvalidArgument, "psrv session: bad cache geometry");
  std::unique_ptr<Session> s(new Session(std::move(pool), cfg));
  if (s->cfg_.cache) s->slot_.emplace(s->pool_->checkout_session_slot());
  s->open_on_servers();
  if (s->cfg_.cache) s->listener_ = std::thread([p = s.get()] {
    p->listener_loop();
  });
  return s;
}

void Session::open_on_servers() {
  ServerPool::Endpoint ep = pool_->checkout();
  for (int s = 0; s < pool_->nservers(); ++s) {
    ByteVec msg = wire::request_header(wire::Op::OpenSession, id_);
    wire::put_i64(msg, cfg_.weight);
    wire::put_i64(msg, slot_ ? slot_->slot() : -1);
    wire::put_i64(msg, cfg_.lease_term);
    roundtrip(ep.comm(), s, std::move(msg), sim::MsgClass::Meta);
  }
}

Session::~Session() {
  {
    std::lock_guard<std::mutex> op(op_mu_);
    bool was_closed = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      was_closed = closed_;
      closed_ = true;
    }
    if (!was_closed) {
      try {
        ServerPool::Endpoint ep = pool_->checkout();
        flush_with(ep.comm());
        close_on_servers(ep.comm());
      } catch (...) {
        // Dead pool: servers drop the session on their way out.
      }
    }
  }
  stop_listener();
}

void Session::abandon() {
  std::lock_guard<std::mutex> op(op_mu_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    blocks_.clear();
    leases_.clear();
    closed_ = true;
  }
  // No flush, no release, no CloseSession: from the servers' point of
  // view this client just died.  Leases go via recall grace or natural
  // expiry; unflushed dirty ranges get fenced.
  stop_listener();
}

void Session::stop_listener() noexcept {
  if (!listener_.joinable()) return;
  try {
    // The sentinel goes through a checked-out endpoint, not the callback
    // comm itself — the listener owns that comm, and per-slot accounting
    // is not thread-safe.
    ServerPool::Endpoint ep = pool_->checkout();
    ByteVec m;
    wire::put_i64(m, wire::kRecallStop);
    ep.comm().send(slot_->slot(), wire::kTagRecall, std::move(m),
                   sim::MsgClass::Meta);
  } catch (...) {
    // Dead world: the listener's recv has already thrown it out.
  }
  listener_.join();
}

// ---- Session: recall listener --------------------------------------------

void Session::listener_loop() {
  sim::Comm& comm = slot_->comm();
  try {
    for (;;) {
      auto [src, msg] = comm.recv_any(wire::kTagRecall);
      wire::Reader rd(msg);
      const std::int64_t lease_id = rd.i64();
      if (lease_id == wire::kRecallStop) break;
      const Off lo = rd.i64();
      const Off hi = rd.i64();
      rd.i64();  // deadline (ticks) — informational; we flush immediately
      handle_recall(lease_id, lo, hi);
    }
  } catch (...) {
    // World died under us; nothing left to listen to.
  }
}

void Session::handle_recall(std::int64_t lease_id, Off /*lo*/, Off /*hi*/) {
  std::vector<DirtyExtent> flush;
  std::vector<ClientLease> rel;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.recalls;
    const auto it = leases_.find(lease_id);
    if (it == leases_.end()) {
      // Recall raced our own grant handling (or we dropped it already):
      // remember the id so a pending install discards it.
      recall_orphans_.insert(lease_id);
      return;
    }
    rel.push_back(it->second);
    // Drop every block the lease covers, flushing dirty data first.
    for (auto bit = blocks_.begin(); bit != blocks_.end();) {
      Block& b = bit->second;
      if (std::find(b.lease_ids.begin(), b.lease_ids.end(), lease_id) ==
          b.lease_ids.end()) {
        ++bit;
        continue;
      }
      if (b.dirty())
        flush.push_back({bit->first + b.dlo,
                         ByteVec(b.data.begin() + b.dlo,
                                 b.data.begin() + b.dhi)});
      bit = blocks_.erase(bit);
    }
    leases_.erase(it);
    if (!flush.empty()) {
      ++recall_flush_seq_;
      ++recall_flushes_;
    }
  }
  // Credit-free, on our own callback comm: a recall flush must never
  // queue behind the (possibly parked) traffic that triggered it.
  send_write_back(slot_->comm(), flush);
  if (!flush.empty()) {
    std::lock_guard<std::mutex> lock(mu_);
    --recall_flushes_;
    recall_flushed_.notify_all();
  }
  release_leases(slot_->comm(), rel);
}

// ---- Session: cache internals --------------------------------------------

bool Session::lease_live(const ClientLease& l, std::int64_t now) const {
  return l.mode == lease::Mode::Write || l.expiry > now;
}

bool Session::block_valid(const Block& b, std::int64_t now) const {
  if (b.lease_ids.empty()) return false;
  for (std::int64_t id : b.lease_ids) {
    const auto it = leases_.find(id);
    if (it == leases_.end() || !lease_live(it->second, now)) return false;
  }
  return true;
}

void Session::copy_out(Off off, ByteSpan out) const {
  const Off B = cfg_.cache_block;
  Off at = off;
  const Off hi = off + to_off(out.size());
  while (at < hi) {
    const Off bstart = (at / B) * B;
    const auto it = blocks_.find(bstart);
    LLIO_ASSERT(it != blocks_.end(), "psrv session: cache hole on copy_out");
    const Off take = std::min(hi - at, bstart + B - at);
    std::memcpy(out.data() + to_size(at - off),
                it->second.data.data() + to_size(at - bstart), to_size(take));
    at += take;
  }
}

void Session::sweep_leases(std::int64_t now) {
  for (auto it = leases_.begin(); it != leases_.end();) {
    if (!lease_live(it->second, now))
      it = leases_.erase(it);
    else
      ++it;
  }
  for (auto& [bstart, b] : blocks_) {
    auto& ids = b.lease_ids;
    ids.erase(std::remove_if(ids.begin(), ids.end(),
                             [&](std::int64_t id) {
                               return leases_.count(id) == 0;
                             }),
              ids.end());
  }
}

void Session::evict_for_capacity(std::vector<DirtyExtent>& flush_out) {
  while (blocks_.size() > cfg_.cache_capacity) {
    auto victim = blocks_.begin();
    for (auto it = blocks_.begin(); it != blocks_.end(); ++it)
      if (it->second.lru < victim->second.lru) victim = it;
    Block& b = victim->second;
    if (b.dirty())
      flush_out.push_back({victim->first + b.dlo,
                           ByteVec(b.data.begin() + b.dlo,
                                   b.data.begin() + b.dhi)});
    blocks_.erase(victim);
    ++stats_.evictions;
  }
}

// ---- Session: client-facing ops ------------------------------------------

void Session::sample_cached(std::uint32_t op_id, std::size_t bytes,
                            long long dur_ns) {
  // Cache-served ops never reach IoEngine::observe_op (they return before
  // the wire), so without this the sampler ring would have no record of
  // them and its produced total would undercount the handle's ops.
  // Called under op_mu_, so the cached dim ids need no extra locking.
  obs::Sampler& sampler = obs::Sampler::instance();
  if (!sampler.enabled()) return;
  if (dims_.engine == 0) {
    dims_.engine = sampler.intern("psrv-session");
    dims_.backend = sampler.intern("psrv");
    const std::string& net = pool_->config().net_name;
    dims_.net = sampler.intern(net.empty() ? "default" : net);
  }
  obs::OpSample s;
  s.rank = -1;  // a session is shared by all rank-threads of the handle
  s.op = op_id;
  s.engine = dims_.engine;
  s.backend = dims_.backend;
  s.net = dims_.net;
  s.bytes = static_cast<long long>(bytes);
  s.runs = 0;  // no storage access: that is the point of the cache
  s.dur_ns = dur_ns;
  sampler.record(s);
}

bool Session::cached_read(Off off, ByteSpan out) {
  static const std::uint32_t kOpId =
      obs::Sampler::instance().intern("psrv.cached_read");
  WallTimer timer;
  std::lock_guard<std::mutex> op(op_mu_);
  if (out.empty()) return true;
  const Off B = cfg_.cache_block;
  const Off lo = off;
  const Off hi = off + to_off(out.size());
  const Off a0 = (lo / B) * B;
  const Off a1 = ((hi + B - 1) / B) * B;

  // A block that was valid at inspect time can be recalled away while the
  // missing runs are on the wire (the listener holds only mu_), so the
  // whole inspect-fetch-install cycle retries until the range is covered
  // in one critical section; persistent contention falls through to the
  // direct wire path.
  std::optional<ServerPool::Endpoint> ep;
  for (int attempt = 0; attempt < 4; ++attempt) {
    std::vector<std::pair<Off, Off>> missing;  // block-aligned runs
    bool hit = false;
    std::uint64_t flush_seq = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      flush_seq = recall_flush_seq_;
      const std::int64_t now = pool_->now();
      sweep_leases(now);
      Off run_lo = -1;
      for (Off b = a0; b < a1; b += B) {
        const auto it = blocks_.find(b);
        const bool ok = it != blocks_.end() && it->second.filled &&
                        block_valid(it->second, now);
        if (!ok) {
          if (run_lo < 0) run_lo = b;
        } else if (run_lo >= 0) {
          missing.emplace_back(run_lo, b);
          run_lo = -1;
        }
      }
      if (run_lo >= 0) missing.emplace_back(run_lo, a1);
      if (missing.empty()) {
        copy_out(off, out);
        for (Off b = a0; b < a1; b += B) blocks_[b].lru = ++lru_;
        ++stats_.hits;
        hit = true;
      }
    }
    if (hit) {
      sample_cached(kOpId, out.size(),
                    static_cast<long long>(timer.seconds() * 1e9));
      return true;
    }

    if (!ep) ep.emplace(pool_->checkout());
    std::vector<ClientLease> newls;
    bool denied = false;
    for (const auto& [mlo, mhi] : missing) {
      if (!acquire_lease_span(ep->comm(), lease::Mode::Read, mlo, mhi,
                              newls)) {
        denied = true;
        break;
      }
    }
    if (denied) {
      release_leases(ep->comm(), newls);
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.lease_denied;
      }
      bypass_with(ep->comm(), lo, hi, /*writing=*/false);
      return false;
    }
    std::vector<std::pair<Off, ByteVec>> fetched;
    for (const auto& [mlo, mhi] : missing) {
      ByteVec buf(to_size(mhi - mlo));
      fetch_span(ep->comm(), mlo, ByteSpan(buf.data(), buf.size()));
      fetched.emplace_back(mlo, std::move(buf));
    }

    std::vector<DirtyExtent> evict_flush;
    bool orphaned = false;
    bool covered = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (const ClientLease& l : newls)
        if (recall_orphans_.erase(l.id) > 0) orphaned = true;
      // A recall that dropped dirty blocks meanwhile may have dropped
      // ones we fetched (an unfilled block is fetched whole), and the
      // fetch can predate its flush: installing it would cache stale
      // bytes.
      if (recall_flush_seq_ != flush_seq) orphaned = true;
      if (!orphaned) {
        for (const ClientLease& l : newls) leases_.emplace(l.id, l);
        for (const auto& [mlo, buf] : fetched) {
          for (Off b = mlo; b < mlo + to_off(buf.size()); b += B) {
            Block& blk = blocks_[b];
            if (blk.data.empty()) blk.data.resize(to_size(B));
            const Byte* src = buf.data() + to_size(b - mlo);
            if (blk.dirty()) {
              // Dirty bytes are newer than the fetch: fill around them.
              if (blk.dlo > 0)
                std::memcpy(blk.data.data(), src, to_size(blk.dlo));
              if (blk.dhi < B)
                std::memcpy(blk.data.data() + to_size(blk.dhi),
                            src + to_size(blk.dhi), to_size(B - blk.dhi));
            } else {
              std::memcpy(blk.data.data(), src, to_size(B));
            }
            blk.filled = true;
            blk.lru = ++lru_;
            for (const ClientLease& l : newls)
              if (l.lo < b + B && b < l.hi) blk.lease_ids.push_back(l.id);
          }
        }
        const std::int64_t now = pool_->now();
        covered = true;
        for (Off b = a0; b < a1 && covered; b += B) {
          const auto it = blocks_.find(b);
          covered = it != blocks_.end() && it->second.filled &&
                    block_valid(it->second, now);
        }
        if (covered) {
          copy_out(off, out);
          ++stats_.misses;
        }
        evict_for_capacity(evict_flush);
      }
    }
    if (orphaned) {
      // A recall beat the grant or the fetch home: don't install stale
      // state.
      release_leases(ep->comm(), newls);
      bypass_with(ep->comm(), lo, hi, /*writing=*/false);
      return false;
    }
    write_back(ep->comm(), evict_flush);
    if (covered) return true;
  }
  if (!ep) ep.emplace(pool_->checkout());
  bypass_with(ep->comm(), lo, hi, /*writing=*/false);
  return false;
}

bool Session::cached_write(Off off, ConstByteSpan data) {
  static const std::uint32_t kOpId =
      obs::Sampler::instance().intern("psrv.cached_write");
  WallTimer timer;
  std::lock_guard<std::mutex> op(op_mu_);
  if (data.empty()) return true;
  const Off B = cfg_.cache_block;
  const Off lo = off;
  const Off hi = off + to_off(data.size());
  const Off a0 = (lo / B) * B;
  const Off a1 = ((hi + B - 1) / B) * B;

  std::vector<DirtyExtent> preflush;
  std::vector<Off> preflushed_blocks;
  std::vector<std::pair<Off, Off>> need;  // spans lacking a write lease
  {
    std::lock_guard<std::mutex> lock(mu_);
    const std::int64_t now = pool_->now();
    sweep_leases(now);
    // Uncovered gaps of [a0, a1) under our live write leases.
    std::vector<std::pair<Off, Off>> spans;
    for (const auto& [id, l] : leases_)
      if (l.mode == lease::Mode::Write && l.hi > a0 && l.lo < a1 &&
          lease_live(l, now))
        spans.emplace_back(l.lo, l.hi);
    std::sort(spans.begin(), spans.end());
    Off at = a0;
    for (const auto& [slo, shi] : spans) {
      if (slo > at) need.emplace_back(at, std::min(slo, a1));
      at = std::max(at, shi);
      if (at >= a1) break;
    }
    if (at < a1) need.emplace_back(at, a1);
    // A block whose existing dirty interval neither touches nor overlaps
    // the incoming write keeps a single dirty interval by flushing the
    // old one first.
    for (Off b = a0; b < a1; b += B) {
      const auto it = blocks_.find(b);
      if (it == blocks_.end() || !it->second.dirty()) continue;
      Block& blk = it->second;
      const Off nlo = std::max(lo, b) - b;
      const Off nhi = std::min(hi, b + B) - b;
      const bool mergeable = nlo <= blk.dhi && blk.dlo <= nhi;
      if (!mergeable) {
        preflush.push_back({b + blk.dlo,
                            ByteVec(blk.data.begin() + blk.dlo,
                                    blk.data.begin() + blk.dhi)});
        preflushed_blocks.push_back(b);
      }
    }
  }

  ServerPool::Endpoint ep = pool_->checkout();
  write_back(ep.comm(), preflush);
  std::vector<ClientLease> newls;
  for (const auto& [glo, ghi] : need) {
    if (!acquire_lease_span(ep.comm(), lease::Mode::Write, glo, ghi, newls)) {
      release_leases(ep.comm(), newls);
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.lease_denied;
      }
      bypass_with(ep.comm(), lo, hi, /*writing=*/true);
      return false;
    }
  }

  std::vector<DirtyExtent> evict_flush;
  bool orphaned = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const ClientLease& l : newls)
      if (recall_orphans_.erase(l.id) > 0) orphaned = true;
    if (!orphaned) {
      for (const ClientLease& l : newls) leases_.emplace(l.id, l);
      for (Off b : preflushed_blocks) {
        const auto it = blocks_.find(b);
        if (it != blocks_.end()) it->second.dlo = it->second.dhi = 0;
      }
      for (Off b = a0; b < a1; b += B) {
        const Off nlo = std::max(lo, b) - b;
        const Off nhi = std::min(hi, b + B) - b;
        if (nhi <= nlo) continue;
        Block& blk = blocks_[b];
        if (blk.data.empty()) blk.data.resize(to_size(B));
        std::memcpy(blk.data.data() + to_size(nlo),
                    data.data() + to_size(b + nlo - lo), to_size(nhi - nlo));
        if (blk.dirty()) {
          blk.dlo = std::min(blk.dlo, nlo);
          blk.dhi = std::max(blk.dhi, nhi);
        } else {
          blk.dlo = nlo;
          blk.dhi = nhi;
        }
        if (nhi - nlo == B) blk.filled = true;
        blk.lru = ++lru_;
        for (const auto& [id, l] : leases_)
          if (l.mode == lease::Mode::Write && l.lo < b + B && b < l.hi &&
              std::find(blk.lease_ids.begin(), blk.lease_ids.end(), id) ==
                  blk.lease_ids.end())
            blk.lease_ids.push_back(id);
      }
      evict_for_capacity(evict_flush);
    }
  }
  if (orphaned) {
    release_leases(ep.comm(), newls);
    bypass_with(ep.comm(), lo, hi, /*writing=*/true);
    return false;
  }
  write_back(ep.comm(), evict_flush);
  sample_cached(kOpId, data.size(),
                static_cast<long long>(timer.seconds() * 1e9));
  return true;
}

void Session::flush() {
  std::lock_guard<std::mutex> op(op_mu_);
  ServerPool::Endpoint ep = pool_->checkout();
  flush_with(ep.comm());
}

void Session::flush_with(sim::Comm& comm) {
  std::vector<DirtyExtent> flush;
  std::vector<Off> keys;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [b, blk] : blocks_) {
      if (!blk.dirty()) continue;
      flush.push_back({b + blk.dlo, ByteVec(blk.data.begin() + blk.dlo,
                                            blk.data.begin() + blk.dhi)});
      keys.push_back(b);
    }
  }
  write_back(comm, flush);
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (Off b : keys) {
      const auto it = blocks_.find(b);
      if (it != blocks_.end()) it->second.dlo = it->second.dhi = 0;
    }
  }
}

void Session::prepare_bypass(Off lo, Off hi, bool writing) {
  std::lock_guard<std::mutex> op(op_mu_);
  await_recall_flushes();  // the caller's wire op must not overtake one
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (blocks_.empty() && leases_.empty()) return;
  }
  ServerPool::Endpoint ep = pool_->checkout();
  bypass_with(ep.comm(), lo, hi, writing);
}

void Session::bypass_with(sim::Comm& comm, Off lo, Off hi, bool writing) {
  await_recall_flushes();  // the caller's wire op must not overtake one
  std::vector<DirtyExtent> flush;
  std::vector<ClientLease> rel;
  std::vector<Off> clean_keys;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (writing) {
      // The wire write makes overlapping cached state stale: release the
      // leases over the range and drop every block they cover (flushing
      // any dirty data those blocks hold first).
      std::vector<std::int64_t> rel_ids;
      for (const auto& [id, l] : leases_)
        if (l.lo < hi && lo < l.hi) {
          rel.push_back(l);
          rel_ids.push_back(id);
        }
      for (auto it = blocks_.begin(); it != blocks_.end();) {
        Block& b = it->second;
        const Off blo = it->first;
        const Off bhi = blo + cfg_.cache_block;
        const bool in_range = blo < hi && lo < bhi;
        const bool on_rel_lease =
            std::any_of(b.lease_ids.begin(), b.lease_ids.end(),
                        [&](std::int64_t id) {
                          return std::find(rel_ids.begin(), rel_ids.end(),
                                           id) != rel_ids.end();
                        });
        if (!in_range && !on_rel_lease) {
          ++it;
          continue;
        }
        if (b.dirty())
          flush.push_back({blo + b.dlo, ByteVec(b.data.begin() + b.dlo,
                                                b.data.begin() + b.dhi)});
        it = blocks_.erase(it);
      }
      for (std::int64_t id : rel_ids) leases_.erase(id);
    } else {
      // A wire read must see our buffered writes: flush dirty overlap,
      // keep blocks and leases.
      for (const auto& [blo, b] : blocks_) {
        if (!b.dirty()) continue;
        const Off bhi = blo + cfg_.cache_block;
        if (blo >= hi || bhi <= lo) continue;
        flush.push_back({blo + b.dlo, ByteVec(b.data.begin() + b.dlo,
                                              b.data.begin() + b.dhi)});
        clean_keys.push_back(blo);
      }
    }
  }
  write_back(comm, flush);
  release_leases(comm, rel);
  if (!clean_keys.empty()) {
    std::lock_guard<std::mutex> lock(mu_);
    for (Off b : clean_keys) {
      const auto it = blocks_.find(b);
      if (it != blocks_.end()) it->second.dlo = it->second.dhi = 0;
    }
  }
}

Session::CacheStats Session::cache_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace llio::psrv
