#include "core/listless_nav.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "fotf/navigate.hpp"
#include "fotf/pack.hpp"

namespace llio::core {

ListlessNav::ListlessNav(dt::Type filetype, std::size_t max_runs)
    : ft_(std::move(filetype)), max_runs_(max_runs) {
  LLIO_REQUIRE(ft_ != nullptr && ft_->size() > 0, Errc::InvalidDatatype,
               "ListlessNav: bad filetype");
}

Off ListlessNav::stream_to_file_start(Off s) { return fotf::mem_start(ft_, s); }

Off ListlessNav::stream_to_file_end(Off s) { return fotf::mem_end(ft_, s); }

Off ListlessNav::file_to_stream(Off mem) { return fotf::data_below(ft_, mem); }

fotf::SegmentCursor& ListlessNav::at(Off s, Off hi) {
  const Off need = instances_below(hi);
  if (!cur_ || cur_instances_ < need) {
    // Grow geometrically so sequential accesses rarely reconstruct.
    cur_instances_ = std::max<Off>(need * 2, 16);
    cur_ = std::make_unique<fotf::SegmentCursor>(ft_, cur_instances_);
    next_stream_ = -1;
  }
  if (next_stream_ != s) cur_->seek(s);
  return *cur_;
}

const fotf::PackPlan* ListlessNav::compiled() {
  if (!plan_tried_) {
    plan_tried_ = true;
    plan_ = fotf::PackPlan::compile(ft_, max_runs_);
    if (stats_ != nullptr) ++stats_->plan_misses;  // the compile itself
  }
  return plan_.get();
}

const fotf::PackPlan* ListlessNav::plan() {
  const bool replay = plan_tried_;
  const fotf::PackPlan* pl = compiled();
  if (replay && pl != nullptr && stats_ != nullptr) ++stats_->plan_hits;
  return pl;
}

bool ListlessNav::layout_runs(Off s, Off n, std::size_t max_runs,
                              fotf::IoVecSpan& out) {
  const fotf::PackPlan* pl = compiled();
  if (pl == nullptr) {
    out.clear();
    return false;
  }
  return pl->materialize(0, instances_below(s + n), s, n, max_runs, out);
}

void ListlessNav::scatter(Byte* win, Off bias, Off s, const Byte* src,
                          Off n) {
  if (n <= 0) return;
  Off copied = 0;
  if (const fotf::PackPlan* pl = plan()) {
    copied = pl->unpack(win, bias, instances_below(s + n), s, src, n);
  } else {
    copied = fotf::transfer_unpack(at(s, s + n), win, bias, src, n);
    next_stream_ = s + n;
  }
  LLIO_ASSERT(copied == n, "ListlessNav::scatter: short transfer");
}

void ListlessNav::for_each_segment(
    Off s, Off n, const std::function<void(Off, Off, Off)>& fn) {
  for_each_run(s, n, fn);
}

void ListlessNav::gather(Byte* dst, const Byte* win, Off bias, Off s, Off n) {
  if (n <= 0) return;
  Off copied = 0;
  if (const fotf::PackPlan* pl = plan()) {
    copied = pl->pack(win, bias, instances_below(s + n), s, dst, n);
  } else {
    copied = fotf::transfer_pack(at(s, s + n), win, bias, dst, n);
    next_stream_ = s + n;
  }
  LLIO_ASSERT(copied == n, "ListlessNav::gather: short transfer");
}

}  // namespace llio::core
