#include "mpiio/view.hpp"

#include "common/error.hpp"
#include "fotf/navigate.hpp"
#include "mpiio/options.hpp"

namespace llio::mpiio {

const char* method_name(Method m) noexcept {
  return m == Method::ListBased ? "list-based" : "listless";
}

const char* merge_contig_name(MergeContig m) noexcept {
  switch (m) {
    case MergeContig::Off: return "off";
    case MergeContig::Auto: return "auto";
  }
  return "auto";
}

const char* zerocopy_name(Zerocopy z) noexcept {
  switch (z) {
    case Zerocopy::Off: return "off";
    case Zerocopy::Auto: return "auto";
  }
  return "auto";
}

View default_view() {
  return View{0, dt::byte(), dt::byte()};
}

void validate_view(const View& v) {
  LLIO_REQUIRE(v.disp >= 0, Errc::InvalidView, "view: negative displacement");
  LLIO_REQUIRE(v.etype != nullptr && v.filetype != nullptr, Errc::InvalidView,
               "view: null etype/filetype");
  LLIO_REQUIRE(v.etype->is_contiguous() && v.etype->size() > 0,
               Errc::InvalidView, "view: etype must be contiguous, size > 0");
  LLIO_REQUIRE(v.filetype->size() > 0, Errc::InvalidView,
               "view: filetype has zero size");
  LLIO_REQUIRE(v.filetype->size() % v.etype->size() == 0, Errc::InvalidView,
               "view: size(filetype) not a multiple of size(etype)");
  LLIO_REQUIRE(fotf::file_navigable(v.filetype), Errc::InvalidView,
               "view: filetype violates MPI-IO filetype rules (monotone, "
               "non-negative, non-interleaving tiling, no empty blocks)");
}

}  // namespace llio::mpiio
