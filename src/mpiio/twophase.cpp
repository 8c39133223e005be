#include "mpiio/twophase.hpp"

#include <algorithm>
#include <cstring>

#include "common/error.hpp"
#include "mpiio/engine.hpp"
#include "mpiio/mergeview.hpp"
#include "mpiio/pipeline.hpp"
#include "mpiio/sieve.hpp"
#include "obs/phase.hpp"

namespace llio::mpiio {

void put_off(ByteVec& out, Off v) {
  Byte raw[sizeof(Off)];
  std::memcpy(raw, &v, sizeof(Off));
  out.insert(out.end(), raw, raw + sizeof(Off));
}

Off get_off(ConstByteSpan data, std::size_t at) {
  LLIO_REQUIRE(at + sizeof(Off) <= data.size(), Errc::Protocol,
               "short message");
  Off v;
  std::memcpy(&v, data.data() + at, sizeof(Off));
  return v;
}

std::vector<AccessRange> exchange_ranges(sim::Comm& comm,
                                         const AccessRange& mine) {
  ByteVec raw(sizeof(AccessRange));
  std::memcpy(raw.data(), &mine, sizeof(AccessRange));
  auto gathered = comm.allgather(raw, sim::MsgClass::Meta);
  std::vector<AccessRange> out(gathered.size());
  for (std::size_t i = 0; i < gathered.size(); ++i) {
    LLIO_REQUIRE(gathered[i].size() == sizeof(AccessRange), Errc::Protocol,
                 "exchange_ranges: bad payload size");
    std::memcpy(&out[i], gathered[i].data(), sizeof(AccessRange));
  }
  return out;
}

GlobalRange global_range(const std::vector<AccessRange>& ranges) {
  GlobalRange g;
  for (const AccessRange& r : ranges) {
    if (r.nbytes <= 0) continue;
    if (!g.any) {
      g.lo = r.abs_lo;
      g.hi = r.abs_hi;
      g.any = true;
    } else {
      g.lo = std::min(g.lo, r.abs_lo);
      g.hi = std::max(g.hi, r.abs_hi);
    }
  }
  return g;
}

std::vector<Domain> partition_domains(const GlobalRange& g, int niops,
                                      Off align) {
  LLIO_REQUIRE(niops >= 1, Errc::InvalidArgument, "partition: niops < 1");
  LLIO_REQUIRE(align >= 1, Errc::InvalidArgument, "partition: align < 1");
  std::vector<Domain> out(to_size(Off{niops}));
  if (!g.any) return out;
  // Deal the range's `units` align-sized units (the last one partial) out
  // as evenly as they go: every domain gets `q` units and the last `r`
  // get one more, so the clipped final unit lands in a long domain and
  // non-empty lengths differ by at most one `align`.  A unit count below
  // niops leaves leading domains empty; they move to the back below.
  // Offsets are formed only for units < `units`, which lie below g.hi,
  // so nothing overflows for ranges near the Off maximum.
  const Off total = g.hi - g.lo;
  const Off units = total / align + (total % align != 0 ? 1 : 0);
  const Off q = units / niops;
  const Off r = units % niops;
  Off at = 0;  // units dealt so far
  Off lo = g.lo;
  for (int i = 0; i < niops; ++i) {
    at += q + (i >= niops - r ? 1 : 0);
    const Off hi = at < units ? g.lo + at * align : g.hi;
    out[to_size(Off{i})] = {lo, hi};
    lo = hi;
  }
  // Invariant the IOP loops rely on: only trailing domains are empty.
  std::stable_partition(out.begin(), out.end(),
                        [](const Domain& d) { return !d.empty(); });
  return out;
}

int effective_iops(int io_procs_opt, int comm_size) {
  if (io_procs_opt <= 0 || io_procs_opt > comm_size) return comm_size;
  return io_procs_opt;
}

namespace {

/// Every description starts with the slice's stream interval [s1][s2].
constexpr std::size_t kSliceHeader = 2 * sizeof(Off);

/// File-domain alignment: the page size, which is also
/// PosixFile::direct_align.  Domains snap to it rather than to the file
/// buffer size, so every IOP gets an equal share of the collective; the
/// windows inside a domain stay <= the file buffer size.
constexpr Off kDomainAlign = 4096;

/// Parse the description [s1][s2][payload] peer `src` sent this IOP.
PeerSlice parse_desc(int src, ConstByteSpan desc, bool with_payload) {
  PeerSlice peer;
  peer.src = src;
  peer.slice = {get_off(desc, 0), get_off(desc, sizeof(Off))};
  LLIO_REQUIRE(peer.slice.s1 >= 0 && !peer.slice.empty(), Errc::Protocol,
               "collective: malformed slice description");
  if (with_payload) peer.payload = desc.subspan(kSliceHeader);
  return peer;
}

}  // namespace

TwoPhase::TwoPhase(IoEngine& engine, bool write)
    : e_(engine), write_(write), codec_(engine.codec()),
      stats_(engine.stats_) {}

Off TwoPhase::run(Off stream_lo, const void* buf, Off count,
                  const dt::Type& mt) {
  sim::Comm& comm = *e_.comm_;
  const Options& opts = e_.opts_;
  if (!(write_ ? opts.cb_write : opts.cb_read)) {
    // Collective buffering disabled (hint): independent access + barrier.
    const Off n = e_.indep(write_, stream_lo, buf, count, mt);
    comm.barrier();
    return n;
  }
  const Off nbytes = count * mt->size();

  // Phase 0: exchange access ranges (tiny, Meta).
  mine_ = {stream_lo, nbytes, 0, 0};
  if (nbytes > 0) {
    ViewNav& nav = e_.nav();
    mine_.abs_lo = e_.view_.disp + nav.stream_to_file_start(stream_lo);
    mine_.abs_hi = e_.view_.disp + nav.stream_to_file_end(stream_lo + nbytes);
  }
  {
    obs::Phase t(stats_.exchange_s, "exchange");
    t.arg("what", "ranges");
    ranges_ = exchange_ranges(comm, mine_);
  }
  const GlobalRange g = global_range(ranges_);
  if (!g.any) {
    comm.barrier();
    return 0;
  }

  // Dense bypass: every participant's restriction to its access range is
  // one contiguous extent — each rank accesses its own extent directly,
  // no descriptions, no exchange, no RMW.  Writers must also be pairwise
  // disjoint; overlapping readers are harmless.
  if (opts.merge_contig != MergeContig::Off &&
      (write_ ? ranges_dense_disjoint(ranges_) : ranges_dense(ranges_))) {
    if (nbytes > 0) {
      SieveContext ctx{*e_.file_, *e_.locks_, opts, stats_};
      auto m = e_.make_mover(buf, count, mt);
      if (write_) {
        pfs::ScopedRangeLock lock(*e_.locks_, mine_.abs_lo, mine_.abs_hi);
        dense_write(ctx, mine_.abs_lo, nbytes, *m);
      } else {
        dense_read(ctx, mine_.abs_lo, nbytes, *m);
      }
    }
    comm.barrier();
    ++stats_.merge_contig_ops;
    return nbytes;  // dense_write/dense_read already counted bytes_moved
  }

  domains_ = partition_domains(g, effective_iops(opts.io_procs, comm.size()),
                               std::min(opts.file_buffer_size, kDomainAlign));
  describe();
  if (nbytes > 0) mover_ = e_.make_mover(buf, count, mt);
  if (write_)
    write_phases();
  else
    read_phases();
  comm.barrier();
  stats_.bytes_moved += nbytes;
  return nbytes;
}

void TwoPhase::describe() {
  slices_.assign(domains_.size(), StreamSlice{});
  descs_.assign(to_size(Off{e_.comm_->size()}), ByteVec{});
  if (mine_.nbytes <= 0) return;
  codec_.describe(mine_, domains_, slices_);
  const bool lists = codec_.ships_lists();
  for (std::size_t i = 0; i < slices_.size(); ++i) {
    if (slices_[i].empty()) continue;
    ByteVec& d = descs_[i];
    put_off(d, slices_[i].s1);
    put_off(d, slices_[i].s2);
    if (lists) codec_.append_list(i, d);
  }
}

void TwoPhase::write_phases() {
  sim::Comm& comm = *e_.comm_;
  const int p = comm.size();
  const bool lists = codec_.ships_lists();

  // AP phase 1: ol-lists travel as Meta ahead of the data ...
  std::vector<ByteVec> descs_in;
  if (lists) {
    obs::Phase t(stats_.exchange_s, "exchange");
    t.arg("what", "lists");
    descs_in = comm.alltoall(std::move(descs_), sim::MsgClass::Meta);
  }
  // ... and each IOP's data slice rides as gather-on-send runs over the
  // user buffer (llio_zerocopy=auto, run budget permitting) or packed;
  // behind the [s1][s2] header when that is the whole description.
  std::vector<sim::GatherMsg> out(to_size(Off{p}));
  if (mover_ != nullptr) {
    obs::Phase t(stats_.copy_s, "pack");
    t.arg("what", "phase1_gather");
    std::vector<ByteSpan> runs;
    for (std::size_t i = 0; i < slices_.size(); ++i) {
      const StreamSlice sl = slices_[i];
      if (sl.empty()) continue;
      sim::GatherMsg& msg = out[i];
      if (!lists) msg.header = std::move(descs_[i]);
      runs.clear();
      if (zerocopy_runs(e_.opts_, stats_, *mover_, sl.s1 - mine_.stream_lo,
                        sl.s2 - sl.s1, runs)) {
        msg.runs.assign(runs.begin(), runs.end());
      } else {
        const std::size_t hdr = msg.header.size();
        msg.header.resize(hdr + to_size(sl.s2 - sl.s1));
        mover_->to_stream(msg.header.data() + hdr, sl.s1 - mine_.stream_lo,
                          sl.s2 - sl.s1);
      }
      stats_.data_bytes_sent += sl.s2 - sl.s1;
    }
  }
  std::vector<ByteVec> data_in;
  {
    obs::Phase t(stats_.exchange_s, "exchange");
    t.arg("what", "data");
    data_in = comm.alltoall_gather(std::move(out), sim::MsgClass::Data);
  }

  // IOP phase 2: patch my domain's windows with the received slices.
  std::vector<PeerSlice> peers;
  for (int r = 0; r < p; ++r) {
    ByteVec& data = data_in[to_size(Off{r})];
    const ByteVec& desc = lists ? descs_in[to_size(Off{r})] : data;
    if (desc.empty()) continue;
    PeerSlice peer = parse_desc(r, desc, lists);
    const std::size_t skip = lists ? 0 : kSliceHeader;
    LLIO_REQUIRE(data.size() == skip + to_size(peer.slice.s2 - peer.slice.s1),
                 Errc::Protocol, "write_at_all: data/description mismatch");
    peer.data = data.data() + skip;
    peers.push_back(peer);
  }
  serve(peers);
}

void TwoPhase::read_phases() {
  sim::Comm& comm = *e_.comm_;
  const int p = comm.size();
  const bool lists = codec_.ships_lists();

  // AP phase 1: request my slice from each IOP (Meta).
  std::vector<ByteVec> descs_in;
  {
    obs::Phase t(stats_.exchange_s, "exchange");
    t.arg("what", lists ? "lists" : "requests");
    descs_in = comm.alltoall(std::move(descs_), sim::MsgClass::Meta);
  }

  // IOP phase 2: read my domain window by window and gather each AP's
  // slice into its reply.
  std::vector<ByteVec> replies(to_size(Off{p}));
  std::vector<PeerSlice> peers;
  for (int r = 0; r < p; ++r) {
    const ByteVec& desc = descs_in[to_size(Off{r})];
    if (desc.empty()) continue;
    PeerSlice peer = parse_desc(r, desc, lists);
    const Off n = peer.slice.s2 - peer.slice.s1;
    ByteVec& reply = replies[to_size(Off{r})];
    reply.resize(to_size(n));
    peer.data = reply.data();
    peers.push_back(peer);
    stats_.data_bytes_sent += n;
  }
  serve(peers);

  // Scatter-on-recv (llio_zerocopy=auto): replies whose slice maps to
  // in-budget memory runs land straight in the user buffer; their
  // incoming slot comes back empty and phase 3 skips it.
  std::vector<std::vector<ByteSpan>> scatter(to_size(Off{p}));
  if (mover_ != nullptr)
    for (std::size_t i = 0; i < slices_.size(); ++i)
      if (!slices_[i].empty())
        zerocopy_runs(e_.opts_, stats_, *mover_,
                      slices_[i].s1 - mine_.stream_lo,
                      slices_[i].s2 - slices_[i].s1, scatter[i]);
  std::vector<ByteVec> data_in;
  {
    obs::Phase t(stats_.exchange_s, "exchange");
    t.arg("what", "data");
    data_in = comm.alltoall_scatter(std::move(replies), scatter,
                                    sim::MsgClass::Data);
  }

  // AP phase 3: unpack the replies that were not scatter-delivered.
  if (mover_ != nullptr) {
    obs::Phase t(stats_.copy_s, "pack");
    t.arg("what", "phase3_unpack");
    for (std::size_t i = 0; i < slices_.size(); ++i) {
      const StreamSlice sl = slices_[i];
      if (sl.empty() || !scatter[i].empty()) continue;
      const ByteVec& reply = data_in[i];
      LLIO_REQUIRE(reply.size() == to_size(sl.s2 - sl.s1), Errc::Protocol,
                   "read_at_all: bad reply size");
      mover_->from_stream(reply.data(), sl.s1 - mine_.stream_lo,
                          sl.s2 - sl.s1);
    }
  }
}

void TwoPhase::serve(const std::vector<PeerSlice>& peers) {
  if (peers.empty()) return;
  const Options& opts = e_.opts_;
  const Domain dom = domains_.at(to_size(Off{e_.comm_->rank()}));
  // ceil(len / file buffer size) windows of equal size: each window
  // buffer is no larger than the domain needs.
  const Off len = dom.hi - dom.lo;
  const Off nwin = ceil_div(len, opts.file_buffer_size);
  const Off win = ceil_div(len, nwin);
  codec_.serve(peers);

  // Mergeview analysis (§3.2.4): per-window hole-freeness of a write,
  // memoized across repeated collectives on the same view.  Off/Force
  // skip the analysis; reads always load their windows.
  const MergeContig mode = opts.merge_contig;
  const DomainWindows* verdict = nullptr;
  if (write_ && mode == MergeContig::Auto) {
    obs::Phase t(stats_.merge_analysis_s, "merge_analysis");
    verdict = &e_.merge_cache_.get(
        MergeCache::Key{e_.view_epoch_, dom.lo, dom.hi, win, ranges_},
        [&] { return codec_.analyze(dom, win, ranges_); });
  }

  // The codec's cursors advance in window order, so `next` queues each
  // window's copy units and `fill` consumes them in the same order.
  Off pos = dom.lo;
  auto next = [&](WindowPlan& plan) {
    while (pos < dom.hi) {
      const Off lo = pos;
      const Off hi = std::min(dom.hi, pos + win);
      pos = hi;
      if (!codec_.plan_window(lo, hi)) continue;
      plan.lo = lo;
      plan.hi = hi;
      plan.preread = !write_ || mode == MergeContig::Off ||
                     (mode == MergeContig::Auto && !verdict->dense_at(lo));
      plan.writeback = write_;
      plan.lock = write_;
      return true;
    }
    return false;
  };
  auto fill = [&](const WindowPlan& plan, ByteSpan buf) {
    obs::Phase t(stats_.copy_s, "pack");
    t.arg("win", plan.index);
    t.arg("slices", codec_.fill_window(plan.lo, buf, write_));
  };
  SieveContext ctx{*e_.file_, *e_.locks_, opts, stats_};
  run_window_pipeline(ctx, opts.pipeline_depth, win, next, fill);
  codec_.serve({});  // the peers' buffers end with this op
}

}  // namespace llio::mpiio
