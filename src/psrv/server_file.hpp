// Client-side handle onto a ServerPool: a pfs::FileBackend, so the whole
// existing stack (both engines, the pipelined collective path, mergeview,
// shared file pointers, the C API) runs unchanged on top of networked
// file servers.
//
// The request class decides how backend calls translate to the wire:
//   Contig — every contiguous extent is its own round trip (the
//            PVFS-without-list-IO baseline: chatty on sparse patterns),
//   List   — vectored accesses group into one ol-list message per server
//            with adjacent extents coalesced client-side,
//   View   — additionally exposes the pfs::ViewIo capability, so the
//            engines ship the serialized filetype tree (fileview caching,
//            §3.2.3) and a dense stream range instead of any list.
//            Accesses that arrive without a datatype (plain
//            pread/pwrite/preadv/pwritev) use the List translation.
//
// Monotone navigable filetypes make the stream<->file mapping monotone,
// so a view access splits at shard boundaries by pure navigation and each
// server receives exactly its slice of the data — no wire duplication.
#pragma once

#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "pfs/backend_spec.hpp"
#include "pfs/file_backend.hpp"
#include "pfs/view_io.hpp"
#include "psrv/server_pool.hpp"
#include "psrv/session.hpp"

namespace llio::psrv {

enum class RequestClass { Contig, List, View };

/// Parse "contig" | "list" | "view" (throws Errc::InvalidArgument).
RequestClass request_class_from_name(const std::string& name);
const char* request_class_name(RequestClass cls) noexcept;

class ServerFile final : public pfs::FileBackend, public pfs::ViewIo {
 public:
  /// Every handle opens a client session on the pool (its scheduling and
  /// lease identity); `scfg` picks the fair-share weight and, optionally,
  /// the lease-coherent client cache.
  static std::shared_ptr<ServerFile> create(
      std::shared_ptr<ServerPool> pool,
      RequestClass cls = RequestClass::Contig, SessionConfig scfg = {});

  const std::shared_ptr<ServerPool>& pool() const noexcept { return pool_; }
  RequestClass request_class() const noexcept { return cls_; }
  Session& session() noexcept { return *session_; }

  struct ClientView;
  struct SubReq;

  Off size() const override { return pool_->logical_size(); }
  void resize(Off new_size) override;
  void sync() override;

  pfs::ViewIo* view_io() override {
    return cls_ == RequestClass::View ? this : nullptr;
  }
  Off view_write(const dt::Type& filetype, Off disp, Off stream_lo,
                 ConstByteSpan data) override;
  Off view_read(const dt::Type& filetype, Off disp, Off stream_lo,
                ByteSpan out) override;

 protected:
  Off do_pread(Off offset, ByteSpan out) override;
  void do_pwrite(Off offset, ConstByteSpan data) override;
  Off do_preadv(std::span<const pfs::IoVec> iov) override;
  void do_pwritev(std::span<const pfs::ConstIoVec> iov) override;

 private:
  ServerFile(std::shared_ptr<ServerPool> pool, RequestClass cls,
             SessionConfig scfg);

  /// Send every sub-request (credit-gated) and drain the responses in
  /// order on one endpoint; throws the first server-reported error after
  /// draining.  Handles the UnknownView retry for view requests.
  void transact(std::vector<SubReq>& reqs);

  /// Look up / install the client-side cache entry for a filetype.
  std::shared_ptr<ClientView> intern_view(const dt::Type& filetype);

  Off view_access(const dt::Type& filetype, Off disp, Off stream_lo,
                  ConstByteSpan wdata, ByteSpan rdata);

  std::shared_ptr<ServerPool> pool_;
  RequestClass cls_;
  std::unique_ptr<Session> session_;  ///< after pool_: closed before release

  /// Orders serialized trees by length, then bytes: one memcmp, where
  /// std::less<ByteVec>'s lexicographic compare trips gcc 12's
  /// -Wstringop-overread.
  struct TreeLess {
    bool operator()(const ByteVec& a, const ByteVec& b) const noexcept {
      if (a.size() != b.size()) return a.size() < b.size();
      return !a.empty() && std::memcmp(a.data(), b.data(), a.size()) < 0;
    }
  };

  std::mutex views_mu_;
  std::map<ByteVec, std::shared_ptr<ClientView>, TreeLess> views_;
};

/// The one place that builds a storage stack from a backend spec
/// (pfs/backend_spec.hpp):
///   mem    a fresh pfs::MemFile
///   posix  an anonymous PosixFile scratch file in `dir` (unlinked at
///          open, so aborted runs leave no litter), wrapped in
///          pfs::AsyncQdFile when qd > 1
///   psrv   a fresh ServerPool and a ServerFile handle on it; `base`
///          supplies every pool setting the spec does not cover (stripe,
///          capacity, shard factory, ...)
/// A `net` model replaces base.net; an unknown name throws
/// Errc::InvalidArgument on every kind.
pfs::FilePtr make_backend(const pfs::BackendSpec& spec, PoolConfig base = {});

}  // namespace llio::psrv
