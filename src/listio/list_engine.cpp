#include "listio/list_engine.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "common/error.hpp"
#include "listio/list_mover.hpp"
#include "mpiio/mergeview.hpp"
#include "obs/phase.hpp"

namespace llio::listio {

using mpiio::Domain;
using mpiio::StreamSlice;

void OlListCodec::describe(const mpiio::AccessRange& mine,
                           const std::vector<Domain>& doms,
                           std::vector<StreamSlice>& slices) {
  // The N_coll expansion (§2.3): walk my access tuple by tuple across
  // filetype instances and clip every block against the IOP domains.
  // Cost and memory are O(S_access / S_extent * N_block) in total.
  obs::Phase t(stats_.list_build_s, "list_build");
  lists_.resize(doms.size());
  for (std::vector<dt::OlTuple>& list : lists_) list.clear();
  const Off stream_lo = mine.stream_lo;
  const Off nbytes = mine.nbytes;
  OlWalker w(&ft_list_, view_.ft_extent());
  w.position(stream_lo);
  if (view_.dense()) {
    // Contiguous fileview: the access is one file range; one tuple per
    // domain (ROMIO treats contiguous filetypes with plain offsets).
    const Off a0 = view_.disp + w.mem();
    for (std::size_t di = 0; di < doms.size(); ++di) {
      const Off lo = std::max(doms[di].lo, a0);
      const Off hi = std::min(doms[di].hi, a0 + nbytes);
      if (hi <= lo) continue;
      lists_[di].push_back({lo, hi - lo});
      slices[di] = {stream_lo + (lo - a0), stream_lo + (hi - a0)};
    }
  } else {
    Off s = stream_lo;
    const Off s_end = stream_lo + nbytes;
    std::size_t di = 0;
    while (s < s_end) {
      Off seg_mem = view_.disp + w.run_mem();
      Off seg_len = std::min(w.run_len(), s_end - s);
      w.consume(seg_len);
      while (seg_len > 0) {
        while (di < doms.size() &&
               (doms[di].empty() || doms[di].hi <= seg_mem))
          ++di;
        LLIO_ASSERT(di < doms.size() && seg_mem >= doms[di].lo,
                    "describe: segment outside all domains");
        const Off cut = std::min(seg_len, doms[di].hi - seg_mem);
        std::vector<dt::OlTuple>& list = lists_[di];
        if (!list.empty() && list.back().off + list.back().len == seg_mem) {
          list.back().len += cut;
        } else {
          list.push_back({seg_mem, cut});
        }
        if (slices[di].empty()) slices[di].s1 = s;
        slices[di].s2 = s + cut;
        seg_mem += cut;
        seg_len -= cut;
        s += cut;
      }
    }
  }
  Off list_mem = 0;
  for (const auto& list : lists_)
    list_mem += to_off(list.size() * sizeof(dt::OlTuple));
  stats_.list_mem_bytes = std::max(stats_.list_mem_bytes, list_mem);
}

void OlListCodec::append_list(std::size_t iop, ByteVec& out) {
  // Wire form after the [s1][s2] header: [n][n tuples].
  const std::vector<dt::OlTuple>& list = lists_[iop];
  const std::size_t bytes = list.size() * sizeof(dt::OlTuple);
  mpiio::put_off(out, to_off(list.size()));
  const std::size_t at = out.size();
  out.resize(at + bytes);
  std::memcpy(out.data() + at, list.data(), bytes);
  stats_.list_bytes_sent += to_off(bytes);
}

void OlListCodec::serve(const std::vector<mpiio::PeerSlice>& peers) {
  recvs_.clear();
  queued_.clear();
  win_end_.clear();
  filled_ = 0;
  for (const mpiio::PeerSlice& p : peers) {
    // Wire form [n][n tuples], read in place: the payload outlives the op.
    const Off n = mpiio::get_off(p.payload, 0);
    const std::size_t bytes = p.payload.size() - sizeof(Off);
    LLIO_REQUIRE(n > 0 && bytes % sizeof(dt::OlTuple) == 0 &&
                     to_off(bytes / sizeof(dt::OlTuple)) == n,
                 Errc::Protocol, "collective list message malformed");
    const Byte* raw = p.payload.data() + sizeof(Off);
    LLIO_REQUIRE(reinterpret_cast<std::uintptr_t>(raw) %
                         alignof(dt::OlTuple) == 0,
                 Errc::Protocol, "collective list message misaligned");
    RecvList rl;
    rl.tuples = {reinterpret_cast<const dt::OlTuple*>(raw), to_size(n)};
    rl.data = p.data;
    rl.avg_run = (p.slice.s2 - p.slice.s1) / n;
    recvs_.push_back(rl);
  }
}

mpiio::DomainWindows OlListCodec::analyze(
    const Domain& dom, Off win, const std::vector<mpiio::AccessRange>&) {
  // The union of the received (sorted, domain-clipped) ol-lists.
  std::vector<std::span<const dt::OlTuple>> lists;
  lists.reserve(recvs_.size());
  for (const RecvList& rl : recvs_) lists.push_back(rl.tuples);
  return mpiio::analyze_tuple_domain(dom.lo, dom.hi, win, lists);
}

template <class Unit>
void OlListCodec::walk(std::span<const dt::OlTuple> tuples, Cursor& c,
                       Off lo, Off hi, Unit&& unit) {
  while (c.idx < tuples.size()) {
    const dt::OlTuple& t = tuples[c.idx];
    const Off off = t.off + c.within;
    if (off >= hi) break;
    LLIO_ASSERT(off >= lo, "collective tuple behind current window");
    const Off cut = std::min(t.len - c.within, hi - off);
    unit(off, cut, c.data_off);
    c.data_off += cut;
    c.within += cut;
    if (c.within == t.len) {
      ++c.idx;
      c.within = 0;
    }
    if (off + cut == hi) break;
  }
}

bool OlListCodec::plan_window(Off lo, Off hi) {
  // Queue each touching peer's cursor at the window start and move it
  // past the window; fill_window replays the same tuples from there.
  const std::size_t first = queued_.size();
  for (RecvList& r : recvs_) {
    const Cursor from = r.planned;
    walk(r.tuples, r.planned, lo, hi, [](Off, Off, Off) {});
    if (r.planned.data_off != from.data_off) queued_.push_back({&r, from});
  }
  if (queued_.size() == first) return false;
  win_end_.push_back(queued_.size());
  return true;
}

bool OlListCodec::window_runs(Off lo, Off hi,
                              const mpiio::RunBudget& budget,
                              std::vector<pfs::IoVec>& runs) {
  // The newest window: its peers' cursors sit at the window start, and
  // plan_window left each list's `planned` cursor at the window end, so
  // both the average-run test and the run count are O(1) per peer.
  runs.clear();
  const std::size_t begin =
      win_end_.size() > 1 ? win_end_[win_end_.size() - 2] : 0;
  const std::size_t end = win_end_.back();
  std::size_t count = 0;
  for (std::size_t i = begin; i < end; ++i) {
    const RecvList& r = *queued_[i].src;
    if (r.avg_run < budget.min_avg_run) return false;
    count += r.planned.idx - queued_[i].from.idx +
             (r.planned.within > 0 ? 1 : 0);
  }
  if (count > budget.max_runs) return false;
  runs.reserve(count);
  for (std::size_t i = begin; i < end; ++i) {
    const std::size_t mid = runs.size();
    Cursor c = queued_[i].from;
    Byte* data = queued_[i].src->data;
    walk(queued_[i].src->tuples, c, lo, hi,
         [&](Off off, Off len, Off data_off) {
           runs.push_back({off, ByteSpan(data + data_off, to_size(len))});
         });
    mpiio::merge_runs(runs, mid);
  }
  if (!mpiio::runs_disjoint(runs)) {
    runs.clear();
    return false;
  }
  queued_.resize(begin);
  win_end_.pop_back();
  return true;
}

Off OlListCodec::fill_window(Off lo, ByteSpan win, bool write) {
  // Peer by peer, tuple by tuple: the copy order of overlapping writes.
  const std::size_t begin = filled_ == 0 ? 0 : win_end_[filled_ - 1];
  const std::size_t end = win_end_[filled_++];
  Off units = 0;
  for (std::size_t i = begin; i < end; ++i) {
    Cursor c = queued_[i].from;
    Byte* data = queued_[i].src->data;
    walk(queued_[i].src->tuples, c, lo, lo + to_off(win.size()),
         [&](Off off, Off len, Off data_off) {
           Byte* w = win.data() + (off - lo);
           Byte* d = data + data_off;
           if (write)
             std::memcpy(w, d, to_size(len));
           else
             std::memcpy(d, w, to_size(len));
           ++units;
         });
  }
  return units;
}

void ListEngine::set_view(const mpiio::View& v) {
  validate_view(v);
  view_ = v;
  ++view_epoch_;  // invalidates cached mergeview verdicts
  // Explicit flattening (§2.1): build and store the filetype ol-list.
  ft_list_ = dt::flatten(v.filetype);
  nav_ = std::make_unique<OlViewNav>(&ft_list_, v.ft_extent(), &stats_);
  // No fileview caching: nothing is exchanged here (ROMIO behaviour);
  // keep ranks loosely synchronized like the collective MPI call would.
  comm_->barrier();
}

std::unique_ptr<mpiio::StreamMover> ListEngine::make_nc_mover(
    const void* buf, Off count, const dt::Type& mt) {
  return std::make_unique<ListMover>(buf, count, mt, &stats_);
}

}  // namespace llio::listio
