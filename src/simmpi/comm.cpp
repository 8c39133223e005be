#include "simmpi/comm.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>

#include "common/error.hpp"
#include "obs/trace.hpp"

namespace llio::sim {

namespace detail {

struct Message {
  int src;
  int tag;
  ByteVec data;
};

struct Mailbox {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Message> queue;
};

class Context {
 public:
  explicit Context(int nprocs, const CommCostModel& net = {})
      : nprocs_(nprocs), net_(net), mailboxes_(to_size(Off{nprocs})),
        stats_(to_size(Off{nprocs})) {}

  int size() const noexcept { return nprocs_; }

  void abort() {
    aborted_.store(true, std::memory_order_release);
    for (auto& mb : mailboxes_) {
      std::lock_guard<std::mutex> lock(mb.mu);
      mb.cv.notify_all();
    }
    {
      std::lock_guard<std::mutex> lock(barrier_mu_);
      barrier_cv_.notify_all();
    }
  }

  bool aborted() const { return aborted_.load(std::memory_order_acquire); }

  void check_alive() const {
    LLIO_REQUIRE(!aborted(), Errc::Protocol,
                 "communication aborted: a peer rank failed");
  }

  /// Zero-copy send: the payload moves into the receiver's mailbox.
  /// Stats are charged before the move, so accounting is identical to the
  /// copying overload.
  void send(int src, int dst, int tag, ByteVec&& data, MsgClass cls) {
    check_alive();
    LLIO_REQUIRE(dst >= 0 && dst < nprocs_, Errc::InvalidArgument,
                 "send: bad destination rank");
    CommStats& st = stats_[to_size(Off{src})];
    st.msgs_sent += 1;
    if (cls == MsgClass::Data)
      st.data_bytes_sent += data.size();
    else
      st.meta_bytes_sent += data.size();
    Mailbox& mb = mailboxes_[to_size(Off{dst})];
    {
      std::lock_guard<std::mutex> lock(mb.mu);
      mb.queue.push_back({src, tag, std::move(data)});
    }
    mb.cv.notify_all();
  }

  void send(int src, int dst, int tag, ConstByteSpan data, MsgClass cls) {
    send(src, dst, tag, ByteVec(data.begin(), data.end()), cls);
  }

  ByteVec recv(int self, int src, int tag) {
    LLIO_REQUIRE(src >= 0 && src < nprocs_, Errc::InvalidArgument,
                 "recv: bad source rank");
    Mailbox& mb = mailboxes_[to_size(Off{self})];
    std::unique_lock<std::mutex> lock(mb.mu);
    for (;;) {
      check_alive();
      auto it = std::find_if(mb.queue.begin(), mb.queue.end(),
                             [&](const Message& m) {
                               return m.src == src && m.tag == tag;
                             });
      if (it != mb.queue.end()) {
        ByteVec out = std::move(it->data);
        mb.queue.erase(it);
        if (!net_.free()) {
          lock.unlock();
          charge_network(net_, out.size());
        }
        return out;
      }
      mb.cv.wait(lock);
    }
  }

  std::pair<int, ByteVec> recv_any(int self, int tag) {
    Mailbox& mb = mailboxes_[to_size(Off{self})];
    std::unique_lock<std::mutex> lock(mb.mu);
    for (;;) {
      check_alive();
      auto it = std::find_if(mb.queue.begin(), mb.queue.end(),
                             [&](const Message& m) { return m.tag == tag; });
      if (it != mb.queue.end()) {
        const int src = it->src;
        ByteVec out = std::move(it->data);
        mb.queue.erase(it);
        if (!net_.free()) {
          lock.unlock();
          charge_network(net_, out.size());
        }
        return {src, std::move(out)};
      }
      mb.cv.wait(lock);
    }
  }

  std::optional<std::pair<int, ByteVec>> try_recv_any(int self, int tag) {
    Mailbox& mb = mailboxes_[to_size(Off{self})];
    std::unique_lock<std::mutex> lock(mb.mu);
    check_alive();
    auto it = std::find_if(mb.queue.begin(), mb.queue.end(),
                           [&](const Message& m) { return m.tag == tag; });
    if (it == mb.queue.end()) return std::nullopt;
    const int src = it->src;
    ByteVec out = std::move(it->data);
    mb.queue.erase(it);
    if (!net_.free()) {
      lock.unlock();
      charge_network(net_, out.size());
    }
    return std::make_pair(src, std::move(out));
  }

  /// Burn wall time per the interconnect cost model.
  static void charge_network(const CommCostModel& net, std::size_t bytes) {
    double s = net.latency_s;
    if (net.bandwidth_bps > 0)
      s += static_cast<double>(bytes) / net.bandwidth_bps;
    if (s <= 0) return;
    if (s < 50e-6) {
      const auto until =
          std::chrono::steady_clock::now() +
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(s));
      while (std::chrono::steady_clock::now() < until) {
      }
    } else {
      std::this_thread::sleep_for(std::chrono::duration<double>(s));
    }
  }

  void barrier() {
    std::unique_lock<std::mutex> lock(barrier_mu_);
    check_alive();
    const std::uint64_t gen = barrier_gen_;
    if (++barrier_count_ == nprocs_) {
      barrier_count_ = 0;
      ++barrier_gen_;
      barrier_cv_.notify_all();
      return;
    }
    barrier_cv_.wait(lock, [&] { return barrier_gen_ != gen || aborted(); });
    check_alive();
  }

  CommStats& stats(int rank) { return stats_[to_size(Off{rank})]; }

 private:
  int nprocs_;
  const CommCostModel net_;  ///< fixed for the domain's lifetime
  std::vector<Mailbox> mailboxes_;
  std::vector<CommStats> stats_;
  std::atomic<bool> aborted_{false};

  std::mutex barrier_mu_;
  std::condition_variable barrier_cv_;
  int barrier_count_ = 0;
  std::uint64_t barrier_gen_ = 0;
};

}  // namespace detail

namespace {
// Internal tags reserved for the collective implementations.
constexpr int kTagAllgather = -101;
constexpr int kTagAlltoall = -102;
constexpr int kTagBcast = -103;
constexpr int kTagReduce = -104;

/// Build the wire image of a gather-send: header bytes, then the runs in
/// order.  With no runs the header IS the message and moves untouched.
/// The runs are placed with memcpy into the grown (unwritten) tail:
/// ByteVec's allocator makes insert() copy through an inline loop, which
/// is slower than memcpy on the megabyte payloads of psrv view writes.
ByteVec materialize_gather(ByteVec&& header,
                           std::span<const ConstByteSpan> runs) {
  if (runs.empty()) return std::move(header);
  std::size_t total = header.size();
  for (const ConstByteSpan& r : runs) total += r.size();
  ByteVec out;
  out.reserve(total);
  append_bytes(out, header);
  for (const ConstByteSpan& r : runs) append_bytes(out, r);
  return out;
}

/// Deliver a received payload into the scatter runs, in order.
void scatter_payload(ConstByteSpan payload, std::span<const ByteSpan> runs) {
  std::size_t at = 0;
  for (const ByteSpan& r : runs) {
    LLIO_REQUIRE(at + r.size() <= payload.size(), Errc::Protocol,
                 "scatter recv: runs exceed the payload");
    if (!r.empty()) std::memcpy(r.data(), payload.data() + at, r.size());
    at += r.size();
  }
  LLIO_REQUIRE(at == payload.size(), Errc::Protocol,
               "scatter recv: runs do not cover the payload");
}
}  // namespace

int Comm::size() const noexcept { return ctx_->size(); }

void Comm::send(int dst, int tag, ConstByteSpan data, MsgClass cls) {
  ctx_->send(rank_, dst, tag, data, cls);
}

void Comm::send(int dst, int tag, ByteVec&& data, MsgClass cls) {
  ctx_->send(rank_, dst, tag, std::move(data), cls);
}

void Comm::send_gather(int dst, int tag, ConstByteSpan header,
                       std::span<const ConstByteSpan> runs, MsgClass cls) {
  ctx_->send(rank_, dst, tag,
             materialize_gather(ByteVec(header.begin(), header.end()), runs),
             cls);
}

void Comm::send_gather(int dst, int tag, ByteVec&& header,
                       std::span<const ConstByteSpan> runs, MsgClass cls) {
  ctx_->send(rank_, dst, tag, materialize_gather(std::move(header), runs),
             cls);
}

ByteVec Comm::recv(int src, int tag) {
  obs::Span span("recv", obs::TraceLevel::Full);
  span.arg("src", src);
  return ctx_->recv(rank_, src, tag);
}

Off Comm::recv_scatter(int src, int tag, std::span<const ByteSpan> runs) {
  obs::Span span("recv", obs::TraceLevel::Full);
  span.arg("src", src);
  const ByteVec msg = ctx_->recv(rank_, src, tag);
  scatter_payload(msg, runs);
  return to_off(msg.size());
}

std::pair<int, ByteVec> Comm::recv_any(int tag) {
  obs::Span span("recv_any", obs::TraceLevel::Full);
  return ctx_->recv_any(rank_, tag);
}

std::optional<std::pair<int, ByteVec>> Comm::try_recv_any(int tag) {
  return ctx_->try_recv_any(rank_, tag);
}

void Comm::barrier() {
  obs::Span span("barrier", obs::TraceLevel::Full);
  ctx_->barrier();
}

std::vector<ByteVec> Comm::allgather(ConstByteSpan mine, MsgClass cls) {
  obs::Span span("allgather", obs::TraceLevel::Full);
  span.arg("bytes", to_off(mine.size()));
  const int p = size();
  std::vector<ByteVec> out(to_size(Off{p}));
  for (int r = 0; r < p; ++r) {
    if (r == rank_) continue;
    ctx_->send(rank_, r, kTagAllgather, mine, cls);
  }
  out[to_size(Off{rank_})] = ByteVec(mine.begin(), mine.end());
  for (int r = 0; r < p; ++r) {
    if (r == rank_) continue;
    out[to_size(Off{r})] = ctx_->recv(rank_, r, kTagAllgather);
  }
  return out;
}

std::vector<ByteVec> Comm::allgather(ByteVec&& mine, MsgClass cls) {
  // Peers necessarily get copies (one payload, p-1 destinations), but the
  // self slot takes the buffer by move.
  obs::Span span("allgather", obs::TraceLevel::Full);
  span.arg("bytes", to_off(mine.size()));
  const int p = size();
  std::vector<ByteVec> out(to_size(Off{p}));
  for (int r = 0; r < p; ++r) {
    if (r == rank_) continue;
    ctx_->send(rank_, r, kTagAllgather, ConstByteSpan(mine), cls);
  }
  out[to_size(Off{rank_})] = std::move(mine);
  for (int r = 0; r < p; ++r) {
    if (r == rank_) continue;
    out[to_size(Off{r})] = ctx_->recv(rank_, r, kTagAllgather);
  }
  return out;
}

std::vector<ByteVec> Comm::alltoall(std::vector<ByteVec> outgoing,
                                    MsgClass cls) {
  const int p = size();
  LLIO_REQUIRE(static_cast<int>(outgoing.size()) == p, Errc::InvalidArgument,
               "alltoall: outgoing size != nprocs");
  obs::Span span("alltoall", obs::TraceLevel::Full);
  if (span.active()) {
    Off total = 0;
    for (const ByteVec& v : outgoing) total += to_off(v.size());
    span.arg("bytes", total);
  }
  std::vector<ByteVec> in(to_size(Off{p}));
  for (int r = 0; r < p; ++r) {
    if (r == rank_) continue;
    // Move each payload into the destination mailbox: large Data-class
    // buffers (two-phase exchange) are never deep-copied.
    ctx_->send(rank_, r, kTagAlltoall, std::move(outgoing[to_size(Off{r})]),
               cls);
  }
  in[to_size(Off{rank_})] = std::move(outgoing[to_size(Off{rank_})]);
  for (int r = 0; r < p; ++r) {
    if (r == rank_) continue;
    in[to_size(Off{r})] = ctx_->recv(rank_, r, kTagAlltoall);
  }
  return in;
}

std::vector<ByteVec> Comm::alltoall_gather(std::vector<GatherMsg> outgoing,
                                           MsgClass cls) {
  const int p = size();
  LLIO_REQUIRE(static_cast<int>(outgoing.size()) == p, Errc::InvalidArgument,
               "alltoall_gather: outgoing size != nprocs");
  obs::Span span("alltoall", obs::TraceLevel::Full);
  if (span.active()) {
    Off total = 0;
    for (const GatherMsg& m : outgoing)
      total += to_off(m.header.size()) + m.payload_bytes();
    span.arg("bytes", total);
  }
  std::vector<ByteVec> in(to_size(Off{p}));
  for (int r = 0; r < p; ++r) {
    if (r == rank_) continue;
    GatherMsg& m = outgoing[to_size(Off{r})];
    ctx_->send(rank_, r, kTagAlltoall,
               materialize_gather(std::move(m.header), m.runs), cls);
  }
  {
    GatherMsg& m = outgoing[to_size(Off{rank_})];
    in[to_size(Off{rank_})] = materialize_gather(std::move(m.header), m.runs);
  }
  for (int r = 0; r < p; ++r) {
    if (r == rank_) continue;
    in[to_size(Off{r})] = ctx_->recv(rank_, r, kTagAlltoall);
  }
  return in;
}

std::vector<ByteVec> Comm::alltoall_scatter(
    std::vector<ByteVec> outgoing,
    const std::vector<std::vector<ByteSpan>>& scatter, MsgClass cls) {
  const int p = size();
  LLIO_REQUIRE(static_cast<int>(outgoing.size()) == p, Errc::InvalidArgument,
               "alltoall_scatter: outgoing size != nprocs");
  LLIO_REQUIRE(static_cast<int>(scatter.size()) == p, Errc::InvalidArgument,
               "alltoall_scatter: scatter size != nprocs");
  obs::Span span("alltoall", obs::TraceLevel::Full);
  if (span.active()) {
    Off total = 0;
    for (const ByteVec& v : outgoing) total += to_off(v.size());
    span.arg("bytes", total);
  }
  std::vector<ByteVec> in(to_size(Off{p}));
  for (int r = 0; r < p; ++r) {
    if (r == rank_) continue;
    ctx_->send(rank_, r, kTagAlltoall, std::move(outgoing[to_size(Off{r})]),
               cls);
  }
  {
    ByteVec self = std::move(outgoing[to_size(Off{rank_})]);
    const auto& runs = scatter[to_size(Off{rank_})];
    if (!runs.empty())
      scatter_payload(self, runs);
    else
      in[to_size(Off{rank_})] = std::move(self);
  }
  for (int r = 0; r < p; ++r) {
    if (r == rank_) continue;
    ByteVec got = ctx_->recv(rank_, r, kTagAlltoall);
    const auto& runs = scatter[to_size(Off{r})];
    if (!runs.empty())
      scatter_payload(got, runs);
    else
      in[to_size(Off{r})] = std::move(got);
  }
  return in;
}

ByteVec Comm::bcast(int root, ConstByteSpan mine) {
  obs::Span span("bcast", obs::TraceLevel::Full);
  span.arg("root", root);
  if (rank_ == root) {
    for (int r = 0; r < size(); ++r) {
      if (r == root) continue;
      ctx_->send(rank_, r, kTagBcast, mine, MsgClass::Meta);
    }
    return ByteVec(mine.begin(), mine.end());
  }
  return ctx_->recv(rank_, root, kTagBcast);
}

namespace {
template <typename F>
Off allreduce_impl(Comm& c, detail::Context* ctx, int rank, Off v, F combine) {
  ByteVec raw(sizeof(Off));
  std::memcpy(raw.data(), &v, sizeof(Off));
  // Gather to rank 0, combine, broadcast back.
  if (rank == 0) {
    Off acc = v;
    for (int r = 1; r < c.size(); ++r) {
      ByteVec got = ctx->recv(0, r, kTagReduce);
      Off other;
      std::memcpy(&other, got.data(), sizeof(Off));
      acc = combine(acc, other);
    }
    ByteVec out(sizeof(Off));
    std::memcpy(out.data(), &acc, sizeof(Off));
    for (int r = 1; r < c.size(); ++r)
      ctx->send(0, r, kTagReduce, out, MsgClass::Meta);
    return acc;
  }
  ctx->send(rank, 0, kTagReduce, raw, MsgClass::Meta);
  ByteVec got = ctx->recv(rank, 0, kTagReduce);
  Off acc;
  std::memcpy(&acc, got.data(), sizeof(Off));
  return acc;
}
}  // namespace

Off Comm::allreduce_sum(Off v) {
  return allreduce_impl(*this, ctx_, rank_, v,
                        [](Off a, Off b) { return a + b; });
}

Off Comm::allreduce_min(Off v) {
  return allreduce_impl(*this, ctx_, rank_, v,
                        [](Off a, Off b) { return std::min(a, b); });
}

Off Comm::allreduce_max(Off v) {
  return allreduce_impl(*this, ctx_, rank_, v,
                        [](Off a, Off b) { return std::max(a, b); });
}

const CommStats& Comm::stats() const { return ctx_->stats(rank_); }

void Comm::reset_stats() { ctx_->stats(rank_) = CommStats{}; }

CommStats Comm::global_stats() {
  barrier();  // quiesce in-flight sends
  CommStats total;
  for (int r = 0; r < size(); ++r) total += ctx_->stats(r);
  barrier();
  return total;
}

void Runtime::run(int nprocs, const std::function<void(Comm&)>& body) {
  run(nprocs, CommCostModel{}, body);
}

void Runtime::run(int nprocs, const CommCostModel& net,
                  const std::function<void(Comm&)>& body) {
  LLIO_REQUIRE(nprocs >= 1, Errc::InvalidArgument, "run: nprocs < 1");
  detail::Context ctx(nprocs, net);
  std::vector<std::exception_ptr> errors(to_size(Off{nprocs}));
  std::vector<std::thread> threads;
  threads.reserve(to_size(Off{nprocs}));
  for (int r = 0; r < nprocs; ++r) {
    threads.emplace_back([&, r] {
      const obs::ThreadTrackGuard track(r, 0, "rank " + std::to_string(r),
                                        "compute");
      Comm comm(&ctx, r);
      try {
        body(comm);
      } catch (...) {
        errors[to_size(Off{r})] = std::current_exception();
        ctx.abort();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (auto& e : errors)
    if (e) std::rethrow_exception(e);
}

void Runtime::run_jobs(int njobs, int nprocs, const CommCostModel& net,
                       const std::function<void(int job, Comm&)>& body) {
  LLIO_REQUIRE(njobs >= 1, Errc::InvalidArgument, "run_jobs: njobs < 1");
  std::vector<std::exception_ptr> errors(to_size(Off{njobs}));
  std::vector<std::thread> jobs;
  jobs.reserve(to_size(Off{njobs}));
  for (int j = 0; j < njobs; ++j) {
    jobs.emplace_back([&, j] {
      try {
        run(nprocs, net, [&](Comm& c) { body(j, c); });
      } catch (...) {
        errors[to_size(Off{j})] = std::current_exception();
      }
    });
  }
  for (auto& t : jobs) t.join();
  for (auto& e : errors)
    if (e) std::rethrow_exception(e);
}

World::World(int nslots, const CommCostModel& net)
    : ctx_(std::make_unique<detail::Context>(nslots, net)) {
  LLIO_REQUIRE(nslots >= 1, Errc::InvalidArgument, "World: nslots < 1");
}

World::~World() = default;

int World::size() const noexcept { return ctx_->size(); }

Comm World::comm(int slot) {
  LLIO_REQUIRE(slot >= 0 && slot < ctx_->size(), Errc::InvalidArgument,
               "World::comm: slot out of range");
  return Comm(ctx_.get(), slot);
}

void World::abort() { ctx_->abort(); }

CommStats World::total_stats() const {
  CommStats total;
  for (int r = 0; r < ctx_->size(); ++r) total += ctx_->stats(r);
  return total;
}

void World::reset_stats() {
  for (int r = 0; r < ctx_->size(); ++r) ctx_->stats(r) = CommStats{};
}

}  // namespace llio::sim
