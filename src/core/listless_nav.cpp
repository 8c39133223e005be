#include "core/listless_nav.hpp"

#include <algorithm>
#include <limits>

#include "common/error.hpp"
#include "fotf/navigate.hpp"
#include "fotf/pack.hpp"

namespace llio::core {

ListlessNav::ListlessNav(dt::Type filetype, fotf::PackConfig cfg)
    : ft_(std::move(filetype)), cfg_(cfg) {
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
  if (!cfg_.use_plan) return nullptr;
  if (!plan_tried_) {
    plan_tried_ = true;
    plan_ = fotf::PackPlan::compile(ft_);
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

Off ListlessNav::avg_run() {
  const fotf::PackPlan* pl = compiled();
  if (pl == nullptr) return 0;
  // One run that fills its instance abuts the next instance's.
  if (pl->run_count() == 1 && pl->instance_extent() == pl->instance_size())
    return std::numeric_limits<Off>::max();
  return pl->instance_size() / pl->run_count();
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

void ListlessNav::fold(const fotf::RangeStats& rs) {
  if (stats_ == nullptr) return;
  stats_->pack_threads_used =
      std::max<std::uint64_t>(stats_->pack_threads_used,
                              static_cast<std::uint64_t>(rs.threads_used));
  stats_->pack_slices += rs.slices;
  stats_->pack_slice_max_s =
      std::max(stats_->pack_slice_max_s, rs.slice_max_s);
  stats_->pack_slice_total_s += rs.slice_total_s;
}

void ListlessNav::scatter(Byte* win, Off bias, Off s, const Byte* src,
                          Off n) {
  if (n <= 0) return;
  const fotf::PackPlan* pl = plan();
  fotf::SegmentCursor* reuse = nullptr;
  if (pl == nullptr && !fotf::will_parallelize(cfg_, n))
    reuse = &at(s, s + n);
  const Off count =
      reuse != nullptr ? cur_instances_ : instances_below(s + n);
  fotf::RangeStats rs;
  const Off copied =
      fotf::unpack_range(ft_, count, win, bias, s, src, n, cfg_, pl, &rs,
                         reuse);
  LLIO_ASSERT(copied == n, "ListlessNav::scatter: short transfer");
  if (rs.used_cursor) next_stream_ = s + n;
  fold(rs);
}

void ListlessNav::for_each_segment(
    Off s, Off n, const std::function<void(Off, Off, Off)>& fn) {
  for_each_run(s, n, fn);
}

void ListlessNav::gather(Byte* dst, const Byte* win, Off bias, Off s, Off n) {
  if (n <= 0) return;
  const fotf::PackPlan* pl = plan();
  fotf::SegmentCursor* reuse = nullptr;
  if (pl == nullptr && !fotf::will_parallelize(cfg_, n))
    reuse = &at(s, s + n);
  const Off count =
      reuse != nullptr ? cur_instances_ : instances_below(s + n);
  fotf::RangeStats rs;
  const Off copied =
      fotf::pack_range(ft_, count, win, bias, s, dst, n, cfg_, pl, &rs,
                       reuse);
  LLIO_ASSERT(copied == n, "ListlessNav::gather: short transfer");
  if (rs.used_cursor) next_stream_ = s + n;
  fold(rs);
}

}  // namespace llio::core
