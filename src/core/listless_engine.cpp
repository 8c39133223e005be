#include "core/listless_engine.hpp"

#include <algorithm>

#include "dtype/normalize.hpp"
#include "dtype/serialize.hpp"
#include "mpiio/mergeview.hpp"

namespace llio::core {

using mpiio::View;

void CachedViewCodec::set_view(sim::Comm& comm, const View& v,
                               mpiio::IoOpStats* stats) {
  // Normalize once: the cursor then sees the largest regular strata, and
  // the cached wire form shrinks.  The typemap is provably unchanged.
  const dt::Type ft = dt::normalize(v.filetype);
  disp_ = v.disp;
  nav_ = std::make_unique<ListlessNav>(ft);
  nav_->bind_stats(stats);

  // Fileview caching (§3.2.3): exchange the compact representation once.
  ByteVec blob;
  mpiio::put_off(blob, v.disp);
  append_bytes(blob, dt::serialize(ft));
  auto all = comm.allgather(blob, sim::MsgClass::Meta);

  cached_.clear();
  cached_.reserve(all.size());
  for (auto& raw : all) {
    CachedView cv;
    cv.disp = mpiio::get_off(raw, 0);
    cv.filetype = dt::deserialize(
        ConstByteSpan(raw.data() + sizeof(Off), raw.size() - sizeof(Off)));
    cv.nav = std::make_unique<ListlessNav>(cv.filetype);
    cv.nav->bind_stats(stats);
    cached_.push_back(std::move(cv));
  }
}

void CachedViewCodec::describe(const mpiio::AccessRange& mine,
                               const std::vector<mpiio::Domain>& doms,
                               std::vector<mpiio::StreamSlice>& slices) {
  // Two file_to_stream calls per IOP find the stream bytes landing in its
  // domain; the IOP needs nothing more, it holds my view.
  const Off s_end = mine.stream_lo + mine.nbytes;
  for (std::size_t i = 0; i < doms.size(); ++i) {
    const Off lo = std::max(doms[i].lo, mine.abs_lo);
    const Off hi = std::min(doms[i].hi, mine.abs_hi);
    if (hi <= lo) continue;
    slices[i] = {
        std::clamp(nav_->file_to_stream(lo - disp_), mine.stream_lo, s_end),
        std::clamp(nav_->file_to_stream(hi - disp_), mine.stream_lo, s_end)};
  }
}

void CachedViewCodec::serve(const std::vector<mpiio::PeerSlice>& peers) {
  peers_ = peers;
  queued_.clear();
}

mpiio::DomainWindows CachedViewCodec::analyze(
    const mpiio::Domain& dom, Off win,
    const std::vector<mpiio::AccessRange>& ranges) {
  std::vector<mpiio::ViewContribution> contribs;
  for (std::size_t r = 0; r < ranges.size(); ++r) {
    const mpiio::AccessRange& ar = ranges[r];
    if (ar.nbytes <= 0) continue;
    contribs.push_back({cached_[r].filetype, cached_[r].disp, ar.stream_lo,
                        ar.stream_lo + ar.nbytes});
  }
  return mpiio::analyze_view_domain(dom.lo, dom.hi, win, contribs);
}

bool CachedViewCodec::plan_window(Off lo, Off hi) {
  // The navs stay on the compute thread: slices are found here and only
  // consumed by fill_window.
  std::vector<Slice> slices;
  for (const mpiio::PeerSlice& p : peers_) {
    const CachedView& cv = cached_[to_size(Off{p.src})];
    const Off s1 = std::clamp(cv.nav->file_to_stream(lo - cv.disp),
                              p.slice.s1, p.slice.s2);
    const Off s2 = std::clamp(cv.nav->file_to_stream(hi - cv.disp),
                              p.slice.s1, p.slice.s2);
    if (s2 > s1) slices.push_back({&p, s1, s2});
  }
  if (slices.empty()) return false;
  queued_.push_back(std::move(slices));
  return true;
}

bool CachedViewCodec::window_runs(Off, Off, const mpiio::RunBudget& budget,
                                  std::vector<pfs::IoVec>& runs) {
  // Each touching peer's view must have long runs on average (O(1) from
  // its filetype, so fine-grained views never materialize anything); then
  // its slice's runs merge into file order.
  runs.clear();
  const std::vector<Slice>& slices = queued_.back();
  for (const Slice& sl : slices)
    if (fotf::avg_run(cached_[to_size(Off{sl.peer->src})].filetype) <
        budget.min_avg_run)
      return false;
  for (const Slice& sl : slices) {
    const CachedView& cv = cached_[to_size(Off{sl.peer->src})];
    if (!cv.nav->layout_runs(sl.s1, sl.s2 - sl.s1,
                             budget.max_runs - runs.size(), layout_)) {
      runs.clear();
      return false;
    }
    const std::size_t mid = runs.size();
    Byte* data = sl.peer->data + (sl.s1 - sl.peer->slice.s1);
    for (const fotf::MemRun& r : layout_.runs) {
      runs.push_back({cv.disp + r.mem, ByteSpan(data, to_size(r.len))});
      data += r.len;
    }
    mpiio::merge_runs(runs, mid);
  }
  if (!mpiio::runs_disjoint(runs)) {
    runs.clear();
    return false;
  }
  queued_.pop_back();
  return true;
}

Off CachedViewCodec::fill_window(Off lo, ByteSpan win, bool write) {
  const std::vector<Slice> slices = std::move(queued_.front());
  queued_.pop_front();
  for (const Slice& sl : slices) {
    const CachedView& cv = cached_[to_size(Off{sl.peer->src})];
    Byte* data = sl.peer->data + (sl.s1 - sl.peer->slice.s1);
    if (write)
      cv.nav->scatter(win.data(), lo - cv.disp, sl.s1, data, sl.s2 - sl.s1);
    else
      cv.nav->gather(data, win.data(), lo - cv.disp, sl.s1, sl.s2 - sl.s1);
  }
  return to_off(slices.size());
}

void ListlessEngine::set_view(const View& v) {
  validate_view(v);
  view_ = v;
  ++view_epoch_;  // invalidates cached mergeview verdicts
  codec_.set_view(*comm_, v, &stats_);
}

std::unique_ptr<mpiio::StreamMover> ListlessEngine::make_nc_mover(
    const void* buf, Off count, const dt::Type& mt) {
  return std::make_unique<FotfMover>(buf, count, mt, mem_plans_);
}

}  // namespace llio::core
