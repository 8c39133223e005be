#include "pfs/backend_spec.hpp"

#include <charconv>
#include <vector>

#include "common/error.hpp"

namespace llio::pfs {

namespace {

[[noreturn]] void bad_spec(std::string_view spec, std::string_view why) {
  throw_error(Errc::InvalidArgument, "backend spec '" + std::string(spec) +
                                         "': " + std::string(why));
}

int parse_count(std::string_view spec, std::string_view key,
                std::string_view v) {
  int n = 0;
  const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), n);
  if (ec != std::errc{} || end != v.data() + v.size() || n < 1)
    bad_spec(spec, std::string(key) + " wants a count >= 1");
  return n;
}

bool parse_flag(std::string_view spec, std::string_view key,
                std::string_view v) {
  if (v != "0" && v != "1") bad_spec(spec, std::string(key) + " wants 0 or 1");
  return v == "1";
}

}  // namespace

BackendSpec parse_backend_spec(std::string_view spec) {
  using Kind = BackendSpec::Kind;
  BackendSpec out;
  const std::size_t comma = spec.find(',');
  const std::string_view head = spec.substr(0, comma);
  const std::size_t colon = head.find(':');
  const std::string_view kind = head.substr(0, colon);
  if (kind == "mem")
    out.kind = Kind::Mem;
  else if (kind == "posix")
    out.kind = Kind::Posix;
  else if (kind == "psrv")
    out.kind = Kind::Psrv;
  else
    bad_spec(spec, "unknown kind (expected mem, posix or psrv)");

  // The field after the colon is the directory for posix and the first
  // key=value item for psrv; mem takes none.
  std::vector<std::string_view> items;
  if (colon != std::string_view::npos) {
    const std::string_view field = head.substr(colon + 1);
    if (out.kind == Kind::Posix)
      out.dir = field;
    else if (out.kind == Kind::Psrv)
      items.push_back(field);
    else
      bad_spec(spec, "mem takes no field");
  }
  if (out.kind == Kind::Posix && out.dir.empty())
    bad_spec(spec, "posix needs a directory (posix:<dir>)");
  for (std::size_t at = comma; at != std::string_view::npos;) {
    const std::size_t next = spec.find(',', at + 1);
    items.push_back(spec.substr(at + 1, next - at - 1));
    at = next;
  }

  const bool posix = out.kind == Kind::Posix;
  const bool psrv = out.kind == Kind::Psrv;
  std::vector<std::string_view> seen;
  for (const std::string_view item : items) {
    const std::size_t eq = item.find('=');
    if (eq == std::string_view::npos)
      bad_spec(spec, "'" + std::string(item) + "' is not key=value");
    const std::string_view key = item.substr(0, eq);
    const std::string_view value = item.substr(eq + 1);
    for (const std::string_view k : seen)
      if (k == key) bad_spec(spec, "repeated key " + std::string(key));
    seen.push_back(key);
    if (key == "net") {
      if (value.empty()) bad_spec(spec, "net wants a model name");
      out.net = value;
    } else if (key == "qd" && (posix || psrv)) {
      out.qd = parse_count(spec, key, value);
    } else if (key == "direct" && posix) {
      out.direct = parse_flag(spec, key, value);
    } else if (key == "servers" && psrv) {
      out.servers = parse_count(spec, key, value);
    } else if (key == "request" && psrv) {
      if (value != "contig" && value != "list" && value != "view")
        bad_spec(spec, "request wants contig, list or view");
      out.request = value;
    } else {
      bad_spec(spec, "unknown key " + std::string(key));
    }
  }
  return out;
}

}  // namespace llio::pfs
