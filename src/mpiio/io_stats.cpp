#include "mpiio/io_stats.hpp"

#include <concepts>

#include "common/format.hpp"

namespace llio::mpiio {

namespace {

using Phases = std::vector<std::pair<std::string, double>>;
using Counters = std::vector<std::pair<std::string, std::uint64_t>>;

// Seconds fields report as phases, integer fields as counters.
void add(Phases& out, const char* name, double v) {
  if (name != nullptr) out.emplace_back(name, v);
}
void add(Phases&, const char*, std::integral auto) {}
void add(Counters& out, const char* name, std::integral auto v) {
  if (name != nullptr) out.emplace_back(name, static_cast<std::uint64_t>(v));
}
void add(Counters&, const char*, double) {}

template <class Out>
Out reported(const IoOpStats& s) {
  Out out;
#define LLIO_X(type, member, merge, report) add(out, report, s.member);
  LLIO_IO_OP_STATS_FIELDS(LLIO_X)
#undef LLIO_X
  return out;
}

void append(std::string& out, const char* name, double v) {
  out += strprintf("%-24s %12.6f s\n", name, v);
}
void append(std::string& out, const char* name, std::integral auto v) {
  out += strprintf("%-24s %12lld\n", name, static_cast<long long>(v));
}

}  // namespace

Phases report_phases(const IoOpStats& s) { return reported<Phases>(s); }

Counters report_counters(const IoOpStats& s) { return reported<Counters>(s); }

std::string format_stats(const IoOpStats& s) {
  std::string out;
#define LLIO_X(type, member, merge, report) append(out, #member, s.member);
  LLIO_IO_OP_STATS_FIELDS(LLIO_X)
#undef LLIO_X
  return out;
}

}  // namespace llio::mpiio
