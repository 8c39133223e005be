// Backend spec strings: one textual name for a storage stack, so a
// harness picks its backend from a single hint (llio_backend) the way
// ROMIO picks a file system from a file-name prefix (`pvfs2:`, `ufs:`).
//
// Grammar, `kind[:field][,key=value]...`:
//   mem
//   posix:<dir>[,qd=N][,direct=1]
//   psrv[:servers=N][,qd=N][,request=contig|list|view]
// and `,net=<name>` (an interconnect model, see sim::named_cost_model) on
// every kind.  This header only parses; psrv::make_backend builds the
// stack a spec names.
#pragma once

#include <string>
#include <string_view>

namespace llio::pfs {

struct BackendSpec {
  enum class Kind { Mem, Posix, Psrv };
  Kind kind = Kind::Mem;

  /// posix: directory of the anonymous scratch file.
  std::string dir;

  /// posix: AsyncQdFile queue depth over the file (1 = synchronous);
  /// psrv: per-server request credits.  0 = not given.
  int qd = 0;

  /// posix: O_DIRECT with aligned read-modify-write at block edges.
  bool direct = false;

  /// psrv: server count.  0 = the pool's default.
  int servers = 0;

  /// psrv: wire translation (contig|list|view).
  std::string request = "contig";

  /// Interconnect model name; empty = whatever the harness configured.
  std::string net;
};

/// Parse `spec`.  Throws Errc::InvalidArgument on an unknown kind, an
/// unknown or repeated key, a malformed value, qd=0 or an empty <dir>.
BackendSpec parse_backend_spec(std::string_view spec);

}  // namespace llio::pfs
