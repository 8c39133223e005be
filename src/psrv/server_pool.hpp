// Parallel file-server pool: N server threads, each owning a shard of one
// logical file (the ViPIOS/PVFS server-process architecture the paper's
// client-side approach is contrasted with).
//
// The file's byte space is partitioned into stripe-aligned contiguous
// domains with mpiio::partition_domains — the same splitter the two-phase
// collective uses for IOP file domains — and each server thread serves
// its domain from a private pfs::FileBackend shard store.  Clients talk
// to servers over a sim::World (buffered message passing with the usual
// CommCostModel wall-time charges), so requests, ol-lists, serialized
// fileview trees and data payloads all pay the interconnect.
//
// Three request classes (see wire.hpp):
//   contig — plain pread/pwrite of one extent per round trip,
//   list   — an ol-list plus its data in one message, replayed against
//            the shard with adjacent extents batched into vectored I/O,
//   view   — the serialized filetype tree plus (disp, stream range); the
//            server navigates it locally with the listless cursor, i.e.
//            listless I/O over the wire (fileview caching of §3.2.3).
//
// Each server thread serves its requests in arrival order: it drains its
// mailbox into one FIFO queue, stamping every request as it arrives, and
// answers the front request before taking the next.  One server answers
// one client endpoint in send order, which is what the client's in-order
// response matching relies on.
//
// Flow control is client-side and per server: at most `queue_depth`
// requests are in flight on a server at once, summed over every handle
// on the pool.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "common/bytes.hpp"
#include "mpiio/twophase.hpp"
#include "pfs/file_backend.hpp"
#include "simmpi/comm.hpp"

namespace llio::psrv {

struct PoolConfig {
  int nservers = 4;

  /// Shard-domain alignment (the "stripe"): domain boundaries snap to
  /// multiples of this, like the two-phase file domains snap to the file
  /// buffer size.
  Off stripe = 64 << 10;

  /// Byte space partitioned across the servers.  Offsets beyond it land
  /// on the last (non-empty) server, whose domain is open-ended.
  Off capacity = Off{1} << 30;

  /// Max requests in flight per server, over all handles (credit-based).
  int queue_depth = 16;

  /// Concurrent client endpoints (one per in-progress backend operation).
  int client_slots = 16;

  /// Cached fileviews per server before LRU eviction.
  int view_cache_cap = 64;

  /// Interconnect between clients and servers.
  sim::CommCostModel net;

  /// Shard store factory; default pfs::MemFile.  Wrap in ThrottledFile to
  /// model slow storage behind the servers.
  std::function<pfs::FilePtr(int server)> make_shard;
};

/// Snapshot of one server's service counters.
struct ServerStats {
  std::uint64_t requests = 0;
  std::uint64_t contig_ops = 0;  ///< Read/Write requests served
  std::uint64_t list_ops = 0;    ///< ReadList/WriteList requests served
  std::uint64_t view_ops = 0;    ///< ReadView/WriteView requests served
  std::uint64_t admin_ops = 0;   ///< Resize/Sync

  std::uint64_t bytes_in = 0;   ///< request message bytes received
  std::uint64_t bytes_out = 0;  ///< response message bytes sent

  /// File payload bytes moved, by request class.
  std::uint64_t contig_bytes = 0;
  std::uint64_t list_bytes = 0;
  std::uint64_t view_bytes = 0;

  std::uint64_t list_extents = 0;    ///< ol-list entries replayed
  std::uint64_t view_segments = 0;   ///< coalesced view runs (iovecs)
  std::uint64_t batched_extents = 0; ///< list extents merged by adjacency

  std::uint64_t view_installs = 0;
  std::uint64_t view_evictions = 0;
  std::uint64_t view_misses = 0;  ///< UnknownView responses (client retries)

  std::uint64_t max_queue_depth = 0;  ///< high-water of in-flight requests
  double service_s = 0;     ///< wall time spent serving
  double queue_wait_s = 0;  ///< wall time requests sat queued

  ServerStats& operator+=(const ServerStats& o);
};

class ServerFile;

class ServerPool {
 public:
  static std::shared_ptr<ServerPool> create(PoolConfig cfg = {});
  ~ServerPool();

  ServerPool(const ServerPool&) = delete;
  ServerPool& operator=(const ServerPool&) = delete;

  int nservers() const noexcept { return cfg_.nservers; }
  const PoolConfig& config() const noexcept { return cfg_; }

  /// Shard domains, index = server; the last non-empty domain is
  /// open-ended so every file offset has an owner.
  const std::vector<mpiio::Domain>& domains() const noexcept {
    return domains_;
  }

  /// Server owning file byte `off`.
  int owner(Off off) const;

  /// The shard store of server `s` (tests wrap/inspect it).
  const pfs::FilePtr& shard(int s) const;

  /// Logical file size, maintained client-side across all handles.
  Off logical_size() const noexcept {
    return size_.load(std::memory_order_acquire);
  }
  void grow_size(Off hi);  ///< size = max(size, hi)
  void set_size(Off n) { size_.store(n, std::memory_order_release); }

  ServerStats server_stats(int s) const;
  ServerStats total_server_stats() const;

  /// Total traffic in the client/server world (requests + responses).
  /// Only meaningful while no request is in flight.
  sim::CommStats wire_stats() const { return world_->total_stats(); }
  void reset_wire_stats() { world_->reset_stats(); }

  // ---- client plumbing (used by ServerFile) ----------------------------

  /// Exclusive use of one client mailbox slot for a whole round trip (the
  /// per-slot comm statistics and response matching both require it).
  class Endpoint {
   public:
    Endpoint(Endpoint&& o) noexcept
        : pool_(o.pool_), slot_(o.slot_), comm_(std::move(o.comm_)) {
      o.pool_ = nullptr;
    }
    Endpoint(const Endpoint&) = delete;
    Endpoint& operator=(const Endpoint&) = delete;
    Endpoint& operator=(Endpoint&&) = delete;
    ~Endpoint();

    sim::Comm& comm() { return *comm_; }

   private:
    friend class ServerPool;
    Endpoint(ServerPool* pool, int slot, sim::Comm comm)
        : pool_(pool), slot_(slot), comm_(std::move(comm)) {}

    ServerPool* pool_;
    int slot_;
    std::optional<sim::Comm> comm_;
  };

  /// One queue-depth credit on a server, held from send to response.
  class Credit {
   public:
    Credit(Credit&& o) noexcept : pool_(o.pool_), server_(o.server_) {
      o.pool_ = nullptr;
    }
    Credit(const Credit&) = delete;
    Credit& operator=(const Credit&) = delete;
    Credit& operator=(Credit&& o) noexcept {
      if (this != &o) {
        release();
        pool_ = o.pool_;
        server_ = o.server_;
        o.pool_ = nullptr;
      }
      return *this;
    }
    ~Credit() { release(); }

    void release();

   private:
    friend class ServerPool;
    Credit(ServerPool* pool, int server) : pool_(pool), server_(server) {}

    ServerPool* pool_;
    int server_;
  };

  /// A file offset at or above this marks an open-ended (last) domain.
  static constexpr Off kOpenEnd = std::numeric_limits<Off>::max() / 2;

  Endpoint checkout();  ///< blocks until a client slot is free

  /// One queue-depth credit on server `s`, held from send to response.
  /// With `wait`, blocks until one is free; otherwise returns nullopt
  /// when the server is at queue_depth.
  std::optional<Credit> acquire_credit(int s, bool wait);

  /// Allocate a pool-unique fileview id (client side).
  std::int64_t alloc_view_id() {
    return next_view_id_.fetch_add(1, std::memory_order_relaxed);
  }

 private:
  explicit ServerPool(PoolConfig cfg);

  void serve(int idx);

  struct AtomicServerStats;
  struct CreditState;

  PoolConfig cfg_;
  std::vector<mpiio::Domain> domains_;
  std::unique_ptr<sim::World> world_;
  std::vector<pfs::FilePtr> shards_;
  std::vector<std::unique_ptr<AtomicServerStats>> stats_;
  std::vector<std::unique_ptr<CreditState>> credits_;

  std::atomic<Off> size_{0};
  std::atomic<std::int64_t> next_view_id_{1};

  std::mutex ep_mu_;
  std::condition_variable ep_cv_;
  std::vector<int> free_slots_;

  std::vector<std::thread> threads_;
};

}  // namespace llio::psrv
