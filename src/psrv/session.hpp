// Multi-tenant sessions for the psrv file-server pool.
//
// Two halves live here:
//
//   * FairScheduler — the per-server-thread request scheduler that
//     replaces the single FIFO mailbox order.  Three priority bands:
//       1. express — session/lease admin and write-back flushes.  These
//          must never queue behind the data traffic that may be parked
//          waiting *for* them (a recall flush stuck behind the recalled
//          request would deadlock the grace period away).
//       2. deadline lane — any queued data request whose enqueue-time
//          deadline (enq + deadline_ticks) the sim clock has passed is
//          escalated and served earliest-deadline-first.  This bounds
//          the worst-case latency a low-weight session can suffer.
//       3. weighted round-robin — one lane per session, visited in
//          rotation; a visit serves up to `weight` requests (the deficit
//          refills to the weight each time the rotation returns).  The
//          per-initiator queuing shape of storage-target schedulers.
//
//   * Session — the client half.  Opened by every ServerFile (the id
//     rides on each wire request so servers can account and schedule
//     per tenant).  With `cache` enabled it adds a lease-coherent block
//     cache: read leases gate cached reads, write leases gate write-back
//     buffering, and a recall-listener thread answers server recalls by
//     flushing dirty blocks and releasing the lease within the grace
//     period.  All expiry decisions use the pool's sim clock.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "common/bytes.hpp"
#include "psrv/lease.hpp"
#include "psrv/server_pool.hpp"

namespace llio::psrv {

// ---- server side ---------------------------------------------------------

/// One queued request inside a server thread.
struct PendingReq {
  int src = -1;               ///< client slot to answer
  std::int64_t session = 0;   ///< scheduler lane / lease domain
  ByteVec msg;                ///< full raw request (op byte first)
  std::int64_t enq_tick = 0;  ///< sim clock at enqueue
  std::int64_t deadline = 0;  ///< escalation threshold (enq + deadline_ticks)
  std::chrono::steady_clock::time_point enq_wall{};  ///< queue-wait metric
};

class FairScheduler {
 public:
  explicit FairScheduler(std::int64_t deadline_ticks)
      : deadline_ticks_(deadline_ticks) {}

  /// Register / reweight a session lane (weight >= 1).
  void set_weight(std::int64_t session, std::int64_t weight);
  void drop_session(std::int64_t session);

  void push_express(PendingReq r);
  void push(PendingReq r, std::int64_t now);

  /// A session whose popped request had to be *parked* (lease conflict)
  /// blocks its lane: later requests from the same session must not
  /// overtake the parked one, or per-endpoint response matching breaks.
  /// Express traffic (lease admin, write-back flushes) is never blocked.
  void block(std::int64_t session);
  void unblock(std::int64_t session);

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// Next request to serve: express, then overdue lane fronts (EDF),
  /// then weighted round-robin.  May return nullopt with size() > 0 when
  /// every non-empty lane is blocked on a parked request.
  std::optional<PendingReq> pop(std::int64_t now);

  /// Pop the front of some unblocked lane if it matches `pred` (used by
  /// server-side write aggregation).  Front-only: serving a lane's front
  /// early is just the scheduler picking that lane next, so per-lane FIFO
  /// — and therefore per-endpoint response order — is preserved.
  std::optional<PendingReq> steal_front(
      const std::function<bool(const PendingReq&)>& pred);

  std::uint64_t escalations() const { return escalations_; }

 private:
  struct Lane {
    std::int64_t weight = 1;
    std::int64_t deficit = 0;
    bool blocked = false;
    std::deque<PendingReq> q;
  };

  std::int64_t deadline_ticks_;
  std::deque<PendingReq> express_;
  std::map<std::int64_t, Lane> lanes_;
  std::vector<std::int64_t> rotation_;  ///< lane visit order
  std::size_t cursor_ = 0;
  std::size_t size_ = 0;
  std::uint64_t escalations_ = 0;
};

// ---- client side ---------------------------------------------------------

struct SessionConfig {
  /// Fair-share weight: a weight-w session gets w slots per scheduler
  /// rotation on each server.
  std::int64_t weight = 1;

  /// Enable the lease-coherent client block cache (off: the session is
  /// only a scheduling/accounting identity).
  bool cache = false;

  /// Cache block size in bytes and capacity in blocks.
  Off cache_block = 4096;
  std::size_t cache_capacity = 256;

  /// Read-lease natural lifetime in sim-clock ticks; 0 = pool default.
  std::int64_t lease_term = 0;
};

/// Client-side session handle.  Thread-safe: many rank-threads may drive
/// one session (they share one ServerFile).  The internal mutex is never
/// held across a wire round trip.
class Session {
 public:
  static std::unique_ptr<Session> open(std::shared_ptr<ServerPool> pool,
                                       SessionConfig cfg);
  ~Session();  ///< graceful close: flush, release leases, CloseSession

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  std::int64_t id() const noexcept { return id_; }
  const SessionConfig& config() const noexcept { return cfg_; }
  bool cache_enabled() const noexcept { return cfg_.cache; }

  /// Serve [off, off+out.size()) from the cache, fetching blocks under
  /// read leases as needed.  Returns false when a lease was denied
  /// (contention): overlapping dirty data has been flushed and the
  /// caller must use the direct wire path.
  bool cached_read(Off off, ByteSpan out);

  /// Buffer the write in the cache under write leases (write-back).
  /// Returns false when a lease was denied: overlapping cache state has
  /// been flushed + dropped and the caller must write through the wire.
  bool cached_write(Off off, ConstByteSpan data);

  /// Push every dirty extent to the servers (WriteBack), keeping blocks
  /// cached and leases held.
  void flush();

  /// Make a wire-path access of [lo, hi) coherent with the cache: flush
  /// overlapping dirty data; if `writing`, also drop the overlapped
  /// blocks and release their leases (the wire write makes them stale).
  void prepare_bypass(Off lo, Off hi, bool writing);

  /// Drop everything client-side without flushing or telling servers —
  /// simulates a killed client.  Leases die by recall grace / natural
  /// expiry; unflushed dirty blocks get fenced server-side.
  void abandon();

  struct CacheStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t lease_denied = 0;
    std::uint64_t writeback_ops = 0;
    std::uint64_t writeback_bytes = 0;
    std::uint64_t recalls = 0;
    std::uint64_t evictions = 0;
  };
  CacheStats cache_stats() const;

 private:
  Session(std::shared_ptr<ServerPool> pool, SessionConfig cfg);

  struct ClientLease {
    std::int64_t id = 0;
    int server = 0;
    lease::Mode mode = lease::Mode::Read;
    Off lo = 0, hi = 0;  ///< global
    std::int64_t expiry = 0;
  };

  struct Block {
    ByteVec data;
    bool filled = false;  ///< whole block contents are defined
    Off dlo = 0, dhi = 0;  ///< dirty interval, block-relative ([0,0) clean)
    std::vector<std::int64_t> lease_ids;
    std::uint64_t lru = 0;

    bool dirty() const { return dhi > dlo; }
  };

  /// A dirty extent lifted out of the cache for a WriteBack.
  struct DirtyExtent {
    Off lo = 0;  ///< global
    ByteVec data;
  };

  void open_on_servers();
  void listener_loop();
  void handle_recall(std::int64_t lease_id, Off lo, Off hi);
  void stop_listener() noexcept;

  // Wire helpers.  mu_ is never held across them; the comm is either a
  // checked-out endpoint (client ops) or the session's own callback slot
  // (the recall listener — credit-free so a recall flush can never wait
  // behind the very traffic that triggered it).
  bool acquire_lease_span(sim::Comm& comm, lease::Mode mode, Off lo, Off hi,
                          std::vector<ClientLease>& out);
  void release_leases(sim::Comm& comm,
                      const std::vector<ClientLease>& ls) noexcept;
  void fetch_span(sim::Comm& comm, Off lo, ByteSpan out);
  /// A client op's WriteBack: waits for in-flight recall flushes first.
  void write_back(sim::Comm& comm,
                  const std::vector<DirtyExtent>& extents) noexcept;
  /// The WriteBack round trips themselves (the recall listener's flush).
  void send_write_back(sim::Comm& comm,
                       const std::vector<DirtyExtent>& extents) noexcept;
  void close_on_servers(sim::Comm& comm) noexcept;

  /// Block until no recall flush is on the wire.  A recall drops its
  /// blocks from the cache before its WriteBack lands, and the client
  /// ops talk to the servers over another comm, so without this a fetch
  /// could read the pre-flush bytes and a later write could be
  /// overwritten by them.  Caller holds op_mu_ but not mu_.
  void await_recall_flushes();

  // Whole-op helpers (op_mu_ held by caller).
  void flush_with(sim::Comm& comm);
  void bypass_with(sim::Comm& comm, Off lo, Off hi, bool writing);

  /// Record an obs::Sampler sample for an op served from the client
  /// cache (never reaches the wire or IoEngine::observe_op).  Caller
  /// holds op_mu_.
  void sample_cached(std::uint32_t op_id, std::size_t bytes,
                     long long dur_ns);

  // Cache internals (mu_ held by caller).
  bool lease_live(const ClientLease& l, std::int64_t now) const;
  bool block_valid(const Block& b, std::int64_t now) const;
  /// Drop naturally-expired read leases and dead lease ids on blocks, so
  /// a lapsed block is refetched instead of staying invalid forever.
  void sweep_leases(std::int64_t now);
  void copy_out(Off off, ByteSpan out) const;
  void evict_for_capacity(std::vector<DirtyExtent>& flush_out);

  std::shared_ptr<ServerPool> pool_;
  SessionConfig cfg_;
  std::int64_t id_ = 0;

  /// Serializes whole client-facing operations (cached_read/cached_write/
  /// flush/prepare_bypass) end to end, wire round trips included, so an
  /// op's inspect-then-install phases see consistent cache state.  The
  /// recall listener takes only mu_ (lock order: op_mu_ then mu_), so
  /// recalls make progress while an op is on the wire.
  std::mutex op_mu_;

  /// Guards the maps below; never held across a wire round trip.
  mutable std::mutex mu_;
  std::map<std::int64_t, ClientLease> leases_;
  std::map<Off, Block> blocks_;  ///< key = block start (global)
  /// Recalls that arrived for lease ids we had not installed yet (the
  /// grant response and the recall raced); install must drop these.
  std::set<std::int64_t> recall_orphans_;
  /// Recall flushes started so far, and those still on the wire;
  /// recall_flushed_ signals each landing.
  std::uint64_t recall_flush_seq_ = 0;
  int recall_flushes_ = 0;
  std::condition_variable recall_flushed_;
  std::uint64_t lru_ = 0;
  bool closed_ = false;
  CacheStats stats_;

  /// Interned sampler dims for cache-served ops; touched under op_mu_.
  struct {
    std::uint32_t engine = 0;
    std::uint32_t backend = 0;
    std::uint32_t net = 0;
  } dims_;

  std::optional<ServerPool::SessionSlot> slot_;  ///< recall channel
  std::thread listener_;
};

}  // namespace llio::psrv
