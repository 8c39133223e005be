#include "listio/list_engine.hpp"

#include <algorithm>
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
  lists_.assign(doms.size(), {});
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
  for (const mpiio::PeerSlice& p : peers) {
    const Off n = mpiio::get_off(p.payload, 0);
    LLIO_REQUIRE(n > 0 && p.payload.size() ==
                              sizeof(Off) + to_size(n) * sizeof(dt::OlTuple),
                 Errc::Protocol, "collective list message malformed");
    RecvList rl;
    rl.tuples.resize(to_size(n));
    std::memcpy(rl.tuples.data(), p.payload.data() + sizeof(Off),
                to_size(n) * sizeof(dt::OlTuple));
    rl.data = p.data;
    recvs_.push_back(std::move(rl));
  }
}

mpiio::DomainWindows OlListCodec::analyze(
    const Domain& dom, Off win, const std::vector<mpiio::AccessRange>&) {
  // The union of the received (sorted, domain-clipped) ol-lists.
  std::vector<std::span<const dt::OlTuple>> lists;
  lists.reserve(recvs_.size());
  for (const RecvList& rl : recvs_)
    lists.push_back({rl.tuples.data(), rl.tuples.size()});
  return mpiio::analyze_tuple_domain(dom.lo, dom.hi, win, lists);
}

void OlListCodec::collect_window_spans(RecvList& r, Off lo, Off hi,
                                       std::vector<WinSpan>& out) {
  while (r.idx < r.tuples.size()) {
    const dt::OlTuple& t = r.tuples[r.idx];
    const Off off = t.off + r.within;
    const Off len = t.len - r.within;
    if (off >= hi) break;
    LLIO_ASSERT(off >= lo, "collective tuple behind current window");
    const Off cut = std::min(len, hi - off);
    out.push_back({off, cut, &r, r.data_off});
    r.data_off += cut;
    r.within += cut;
    if (r.within == t.len) {
      ++r.idx;
      r.within = 0;
    }
    if (off + cut == hi) break;
  }
}

bool OlListCodec::plan_window(Off lo, Off hi) {
  std::vector<WinSpan> spans;
  for (RecvList& rl : recvs_) collect_window_spans(rl, lo, hi, spans);
  if (spans.empty()) return false;
  queued_.push_back(std::move(spans));
  return true;
}

Off OlListCodec::fill_window(Off lo, ByteSpan win, bool write) {
  const std::vector<WinSpan> spans = std::move(queued_.front());
  queued_.pop_front();
  for (const WinSpan& sp : spans) {
    Byte* w = win.data() + (sp.off - lo);
    Byte* d = sp.src->data + sp.data_off;
    if (write)
      std::memcpy(w, d, to_size(sp.len));
    else
      std::memcpy(d, w, to_size(sp.len));
  }
  return to_off(spans.size());
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
