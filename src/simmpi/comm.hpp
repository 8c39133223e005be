// Thread-based message-passing runtime standing in for MPI.
//
// The paper's system runs on MPI/SX processes; here each "process" is a
// thread and "communication" is buffered message passing with byte
// accounting.  The accounting is what matters for the reproduction: the
// list-based two-phase path ships ol-lists (metadata) in addition to data,
// and the benches report both volumes separately (paper §2.3/§4.1).
//
// Usage:
//   sim::Runtime::run(4, [&](sim::Comm& c) { ... c.rank() ... });
//
// Exceptions thrown by any rank abort the whole run: other ranks blocked
// in communication calls receive an Errc::Protocol error, and the first
// exception is rethrown from run().
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/bytes.hpp"

namespace llio::sim {

/// Classification of message traffic for the benchmark accounting.
enum class MsgClass : std::uint8_t {
  Data,  ///< actual file data
  Meta,  ///< control information: ranges, ol-lists, cached fileviews
};

/// Interconnect cost model: each received message is charged
/// latency + size/bandwidth of wall time (on the receiver, which is where
/// message passing blocks).  Default: free (pure shared-memory copies).
/// Fixed when the domain is created (Runtime::run / World), so receives
/// read it without taking a lock.
/// Used by the network-sensitivity ablation: the slower the interconnect,
/// the more the list-based engine's ol-list exchange hurts (paper §5).
struct CommCostModel {
  double latency_s = 0.0;
  double bandwidth_bps = 0.0;  ///< 0 = infinite

  bool free() const { return latency_s <= 0.0 && bandwidth_bps <= 0.0; }
};

struct CommStats {
  std::uint64_t msgs_sent = 0;
  std::uint64_t data_bytes_sent = 0;
  std::uint64_t meta_bytes_sent = 0;

  std::uint64_t total_bytes() const {
    return data_bytes_sent + meta_bytes_sent;
  }

  CommStats& operator+=(const CommStats& o) {
    msgs_sent += o.msgs_sent;
    data_bytes_sent += o.data_bytes_sent;
    meta_bytes_sent += o.meta_bytes_sent;
    return *this;
  }
};

namespace detail {
class Context;
}

/// A gather-on-send message: `header` bytes first, then the payload
/// `runs` in order (iovec entries referencing caller memory).  The
/// payload is copied exactly once — when the message is materialized
/// into the receiver's mailbox; with no runs the header moves without
/// copying.  Wire bytes and accounting are identical to packing the runs
/// behind the header and calling send; the client staging copy is what
/// disappears.
struct GatherMsg {
  ByteVec header;
  std::vector<ConstByteSpan> runs;

  Off payload_bytes() const {
    Off n = 0;
    for (const ConstByteSpan& r : runs) n += to_off(r.size());
    return n;
  }
  bool empty() const { return header.empty() && runs.empty(); }
};

/// Per-rank communicator handle, valid inside Runtime::run's body.
class Comm {
 public:
  int rank() const noexcept { return rank_; }
  int size() const noexcept;

  /// Buffered send: never blocks; the payload is copied.
  void send(int dst, int tag, ConstByteSpan data,
            MsgClass cls = MsgClass::Data);

  /// Zero-copy send: the payload buffer moves into the receiver's mailbox
  /// (same stats accounting as the copying overload).
  void send(int dst, int tag, ByteVec&& data, MsgClass cls = MsgClass::Data);

  /// Gather-on-send: one message built from `header` followed by `runs`.
  void send_gather(int dst, int tag, ConstByteSpan header,
                   std::span<const ConstByteSpan> runs,
                   MsgClass cls = MsgClass::Data);

  /// Rvalue fast path: with no runs, `header` moves like send(ByteVec&&).
  void send_gather(int dst, int tag, ByteVec&& header,
                   std::span<const ConstByteSpan> runs,
                   MsgClass cls = MsgClass::Data);

  /// Blocking receive matching (src, tag).
  ByteVec recv(int src, int tag);

  /// Scatter-on-recv: receive (src, tag) and deliver the payload into
  /// `runs` in order.  The run lengths must sum to the message size
  /// (Errc::Protocol otherwise).  Returns the bytes delivered.
  Off recv_scatter(int src, int tag, std::span<const ByteSpan> runs);

  /// Blocking receive matching `tag` from any source (MPI_ANY_SOURCE):
  /// returns (src, payload).  Messages from one sender are delivered in
  /// send order.  This is what a server loop uses — it cannot know which
  /// client will request next.
  std::pair<int, ByteVec> recv_any(int tag);

  /// Non-blocking probe-and-receive: a matching message if one is already
  /// queued, std::nullopt otherwise.  A scheduler loop uses this to drain
  /// its mailbox without stalling on an empty queue.
  std::optional<std::pair<int, ByteVec>> try_recv_any(int tag);

  void barrier();

  /// Gather every rank's contribution; result[i] is rank i's bytes.
  std::vector<ByteVec> allgather(ConstByteSpan mine,
                                 MsgClass cls = MsgClass::Meta);

  /// As above, moving `mine` into the self slot instead of copying it.
  std::vector<ByteVec> allgather(ByteVec&& mine,
                                 MsgClass cls = MsgClass::Meta);

  /// Personalized exchange; outgoing[i] goes to rank i (outgoing[rank]
  /// loops back).  Returns incoming[i] from rank i.
  std::vector<ByteVec> alltoall(std::vector<ByteVec> outgoing,
                                MsgClass cls = MsgClass::Data);

  /// Personalized exchange with gather-on-send payloads: outgoing[i] is
  /// materialized (header + runs) straight into rank i's mailbox.
  std::vector<ByteVec> alltoall_gather(std::vector<GatherMsg> outgoing,
                                       MsgClass cls = MsgClass::Data);

  /// Personalized exchange with scatter-on-recv: an incoming payload i
  /// with a non-empty scatter[i] is delivered into those runs and the
  /// returned slot i is left empty; runs must sum to the payload size.
  std::vector<ByteVec> alltoall_scatter(
      std::vector<ByteVec> outgoing,
      const std::vector<std::vector<ByteSpan>>& scatter,
      MsgClass cls = MsgClass::Data);

  /// Broadcast root's bytes to everyone.
  ByteVec bcast(int root, ConstByteSpan mine);

  Off allreduce_sum(Off v);
  Off allreduce_min(Off v);
  Off allreduce_max(Off v);

  /// This rank's send-side statistics.
  const CommStats& stats() const;
  void reset_stats();

  /// Sum of all ranks' statistics (collective: includes a barrier).
  CommStats global_stats();

 private:
  friend class Runtime;
  friend class World;
  Comm(detail::Context* ctx, int rank) : ctx_(ctx), rank_(rank) {}

  detail::Context* ctx_;
  int rank_;
};

/// A standalone communication domain with a fixed number of slots and no
/// rank-threads of its own: the owner hands out per-slot Comm handles to
/// whatever threads it likes (file-server threads, client endpoints).
/// Each slot must be driven by at most one thread at a time — per-slot
/// send statistics are unsynchronized, exactly as under Runtime::run.
class World {
 public:
  explicit World(int nslots, const CommCostModel& net = {});
  ~World();

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  int size() const noexcept;

  /// Communicator handle bound to `slot` (0 <= slot < size()).
  Comm comm(int slot);

  /// Wake every blocked receiver with Errc::Protocol (failure shutdown).
  void abort();

  /// Sum of all slots' send statistics.  Unlike Comm::global_stats() this
  /// does not barrier — the caller must know the domain is quiescent.
  CommStats total_stats() const;
  void reset_stats();

 private:
  std::unique_ptr<detail::Context> ctx_;
};

class Runtime {
 public:
  /// Run `body` on nprocs rank-threads; joins all and rethrows the first
  /// rank exception (after aborting blocked peers).
  static void run(int nprocs, const std::function<void(Comm&)>& body);

  /// As run(), with an interconnect cost model applied to every receive.
  static void run(int nprocs, const CommCostModel& net,
                  const std::function<void(Comm&)>& body);

  /// Run `njobs` independent jobs concurrently, each a full run() world
  /// of `nprocs` rank-threads over its own communication domain.  The
  /// jobs share nothing at this layer — multi-tenancy happens in whatever
  /// the bodies touch (e.g. one psrv::ServerPool opened by every job).
  /// Joins all jobs and rethrows the first failure.
  static void run_jobs(int njobs, int nprocs, const CommCostModel& net,
                       const std::function<void(int job, Comm&)>& body);
};

}  // namespace llio::sim
