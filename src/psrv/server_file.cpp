#include "psrv/server_file.hpp"

#include <algorithm>
#include <cstring>
#include <functional>
#include <limits>
#include <optional>
#include <vector>

#include "common/error.hpp"
#include "core/listless_nav.hpp"
#include "dtype/normalize.hpp"
#include "dtype/serialize.hpp"
#include "pfs/async_io.hpp"
#include "pfs/mem_file.hpp"
#include "pfs/posix_file.hpp"
#include "psrv/wire.hpp"
#include "simmpi/net_model.hpp"

namespace llio::psrv {

RequestClass request_class_from_name(const std::string& name) {
  if (name == "contig") return RequestClass::Contig;
  if (name == "list") return RequestClass::List;
  if (name == "view") return RequestClass::View;
  throw_error(Errc::InvalidArgument,
              "psrv request class (want contig|list|view): " + name);
}

const char* request_class_name(RequestClass cls) noexcept {
  switch (cls) {
    case RequestClass::Contig:
      return "contig";
    case RequestClass::List:
      return "list";
    case RequestClass::View:
      return "view";
  }
  return "?";
}

/// Client-side cached fileview: the serialized normalized tree, a
/// navigator for shard splitting, and which servers have it installed.
struct ServerFile::ClientView {
  std::int64_t id = 0;
  dt::Type ft;   ///< normalized filetype (owned, pins the tree)
  ByteVec tree;  ///< dt::serialize(ft) — what travels on first use
  std::mutex nav_mu;
  std::unique_ptr<core::ListlessNav> nav;
  std::unique_ptr<std::atomic<bool>[]> installed;  ///< per server
};

/// One wire round trip: request message plus where its response goes.
struct ServerFile::SubReq {
  int server = 0;
  sim::MsgClass cls = sim::MsgClass::Meta;
  ByteVec msg;

  /// Write payloads, gathered onto the wire straight from user memory
  /// (send_gather) instead of being staged into `msg`.  The spans must
  /// stay valid until transact() returns — they are re-sent verbatim on
  /// an UnknownView retry.
  std::vector<ConstByteSpan> payload_runs;

  /// Ok-response payload destinations, filled sequentially (reads).
  std::vector<ByteSpan> dests;

  /// UnknownView retry support (view requests only).
  std::shared_ptr<ClientView> view;
  std::function<ByteVec()> rebuild_with_tree;
};

ServerFile::ServerFile(std::shared_ptr<ServerPool> pool, RequestClass cls)
    : pool_(std::move(pool)), cls_(cls) {
  LLIO_REQUIRE(pool_ != nullptr, Errc::InvalidArgument, "psrv: null pool");
}

std::shared_ptr<ServerFile> ServerFile::create(std::shared_ptr<ServerPool> pool,
                                               RequestClass cls) {
  return std::shared_ptr<ServerFile>(new ServerFile(std::move(pool), cls));
}

void ServerFile::transact(std::vector<SubReq>& reqs) {
  if (reqs.empty()) return;
  ServerPool::Endpoint ep = pool_->checkout();
  std::vector<std::optional<ServerPool::Credit>> credits(reqs.size());
  std::optional<Errc> err;
  std::string err_what;

  const auto process_response = [&](SubReq& r) {
    ByteVec resp = ep.comm().recv(r.server, wire::kTagResponse);
    wire::Reader rd(resp);
    auto status = static_cast<wire::Status>(rd.u8());
    if (status == wire::Status::UnknownView && r.view != nullptr) {
      // Server-side cache eviction: retry once with the tree attached,
      // reusing the credit this request already holds.
      r.view->installed[to_size(r.server)].store(false, std::memory_order_relaxed);
      ep.comm().send_gather(r.server, wire::kTagRequest,
                            r.rebuild_with_tree(), r.payload_runs, r.cls);
      resp = ep.comm().recv(r.server, wire::kTagResponse);
      rd = wire::Reader(resp);
      status = static_cast<wire::Status>(rd.u8());
    }
    switch (status) {
      case wire::Status::Ok: {
        rd.i64();  // op result count (informational)
        for (const ByteSpan& dst : r.dests) {
          const ConstByteSpan chunk = rd.bytes(to_off(dst.size()));
          std::memcpy(dst.data(), chunk.data(), chunk.size());
        }
        if (r.view != nullptr)
          r.view->installed[to_size(r.server)].store(true, std::memory_order_relaxed);
        break;
      }
      case wire::Status::Fail: {
        if (!err) {
          err = static_cast<Errc>(rd.u8());
          const ConstByteSpan what = rd.rest();
          err_what.assign(reinterpret_cast<const char*>(what.data()),
                          what.size());
        }
        break;
      }
      default:
        if (!err) {
          err = Errc::Protocol;
          err_what = "psrv: unexpected response status";
        }
        break;
    }
  };

  // Sliding window: send when a credit is free, otherwise drain an
  // outstanding response (which frees one).  Blocking on a credit is only
  // safe with nothing of ours outstanding — with fewer credits than
  // sub-requests on one server, send-all-then-drain would deadlock.  The
  // credits are shared by every handle on the pool, but a blocked call
  // holds none, so every credit it waits for is held by a call that is
  // making progress.
  std::size_t sent = 0, done = 0;
  while (done < reqs.size()) {
    if (sent < reqs.size()) {
      SubReq& r = reqs[sent];
      std::optional<ServerPool::Credit> credit =
          pool_->acquire_credit(r.server, /*wait=*/done == sent);
      if (credit) {
        credits[sent] = std::move(credit);
        ep.comm().send_gather(r.server, wire::kTagRequest,
                              ConstByteSpan(r.msg), r.payload_runs, r.cls);
        ++sent;
        continue;
      }
    }
    process_response(reqs[done]);
    credits[done].reset();  // response consumed: free the queue slot
    ++done;
  }
  if (err) throw_error(*err, err_what);
}

// ---- contig / list translation -------------------------------------------

namespace {

/// A shard-local slice of one access.
template <typename SpanT>
struct Piece {
  int server = 0;
  Off local_off = 0;
  SpanT buf;
};

using WPiece = Piece<ConstByteSpan>;
using RPiece = Piece<ByteSpan>;

/// Split a contiguous file extent into per-shard pieces, in file order.
template <typename SpanT>
void split_extent(const ServerPool& pool, Off off, SpanT buf,
                  std::vector<Piece<SpanT>>& out) {
  Off len = to_off(buf.size());
  if (len <= 0) return;
  int s = pool.owner(off);
  const auto& domains = pool.domains();
  Off done = 0;
  while (len > 0) {
    const mpiio::Domain& d = domains[to_size(Off{s})];
    if (d.empty() || off >= d.hi) {
      ++s;
      LLIO_ASSERT(s < static_cast<int>(domains.size()),
                  "psrv: extent ran past the last shard");
      continue;
    }
    const Off take = std::min(len, d.hi - off);
    out.push_back({s, off - d.lo, buf.subspan(to_size(done), to_size(take))});
    off += take;
    done += take;
    len -= take;
  }
}

/// One Read/Write round trip per piece (the chatty contig baseline).
template <typename SpanT>
void encode_contig(std::vector<Piece<SpanT>>& pieces, bool writing,
                   std::vector<ServerFile::SubReq>& reqs) {
  for (Piece<SpanT>& p : pieces) {
    ServerFile::SubReq r;
    r.server = p.server;
    if (writing) {
      r.cls = sim::MsgClass::Data;
      r.msg = wire::request_header(wire::Op::Write);
      wire::put_i64(r.msg, p.local_off);
      r.payload_runs.push_back(ConstByteSpan(p.buf.data(), p.buf.size()));
    } else {
      r.cls = sim::MsgClass::Meta;
      r.msg = wire::request_header(wire::Op::Read);
      wire::put_i64(r.msg, p.local_off);
      wire::put_i64(r.msg, to_off(p.buf.size()));
      if constexpr (std::is_same_v<SpanT, ByteSpan>) r.dests.push_back(p.buf);
    }
    reqs.push_back(std::move(r));
  }
}

/// Group pieces per server into ol-list messages, coalescing adjacent
/// extents client-side (the "batching of adjacent extents").  When
/// `batch_max` > 0 a server's list is split into multiple messages of at
/// most that many coalesced extents each, mirroring how the local
/// backends honor Options::iov_batch_max.
template <typename SpanT>
void encode_list(std::vector<Piece<SpanT>>& pieces, bool writing, int nservers,
                 Off batch_max, std::vector<ServerFile::SubReq>& reqs) {
  const std::size_t max_extents = batch_max > 0
                                      ? to_size(batch_max)
                                      : std::numeric_limits<std::size_t>::max();
  for (int s = 0; s < nservers; ++s) {
    std::vector<std::pair<Off, Off>> extents;  // (local_off, len)
    std::vector<Piece<SpanT>*> chunk;
    const auto flush = [&] {
      if (extents.empty()) return;
      ServerFile::SubReq r;
      r.server = s;
      r.cls = writing ? sim::MsgClass::Data : sim::MsgClass::Meta;
      r.msg = wire::request_header(writing ? wire::Op::WriteList
                                           : wire::Op::ReadList);
      wire::put_i64(r.msg, to_off(extents.size()));
      for (const auto& [off, len] : extents) {
        wire::put_i64(r.msg, off);
        wire::put_i64(r.msg, len);
      }
      for (Piece<SpanT>* p : chunk) {
        if (writing)
          r.payload_runs.push_back(ConstByteSpan(p->buf.data(), p->buf.size()));
        else if constexpr (std::is_same_v<SpanT, ByteSpan>)
          r.dests.push_back(p->buf);
      }
      reqs.push_back(std::move(r));
      extents.clear();
      chunk.clear();
    };
    for (Piece<SpanT>& p : pieces) {
      if (p.server != s) continue;
      const Off len = to_off(p.buf.size());
      if (!extents.empty() &&
          extents.back().first + extents.back().second == p.local_off) {
        extents.back().second += len;
      } else {
        if (extents.size() >= max_extents) flush();
        extents.emplace_back(p.local_off, len);
      }
      chunk.push_back(&p);
    }
    flush();
  }
}

}  // namespace

void ServerFile::do_pwrite(Off offset, ConstByteSpan data) {
  std::vector<WPiece> pieces;
  split_extent(*pool_, offset, data, pieces);
  std::vector<SubReq> reqs;
  encode_contig(pieces, /*writing=*/true, reqs);
  transact(reqs);
  pool_->grow_size(offset + to_off(data.size()));
}

Off ServerFile::do_pread(Off offset, ByteSpan out) {
  const Off len = to_off(out.size());
  const Off fsize = pool_->logical_size();
  std::vector<RPiece> pieces;
  split_extent(*pool_, offset, out, pieces);
  std::vector<SubReq> reqs;
  encode_contig(pieces, /*writing=*/false, reqs);
  transact(reqs);
  // Servers zero-fill past their shard EOF; the read count follows the
  // logical file size (short reads only at end of file).
  return std::clamp<Off>(fsize - offset, 0, len);
}

void ServerFile::do_pwritev(std::span<const pfs::ConstIoVec> iov) {
  std::vector<WPiece> pieces;
  Off hi = 0;
  for (const pfs::ConstIoVec& v : iov) {
    split_extent(*pool_, v.offset, v.buf, pieces);
    hi = std::max(hi, v.offset + to_off(v.buf.size()));
  }
  std::vector<SubReq> reqs;
  if (cls_ == RequestClass::Contig)
    encode_contig(pieces, /*writing=*/true, reqs);
  else
    encode_list(pieces, /*writing=*/true, pool_->nservers(), iov_batch_max(),
                reqs);
  transact(reqs);
  pool_->grow_size(hi);
}

Off ServerFile::do_preadv(std::span<const pfs::IoVec> iov) {
  const Off fsize = pool_->logical_size();
  std::vector<RPiece> pieces;
  for (const pfs::IoVec& v : iov) split_extent(*pool_, v.offset, v.buf, pieces);
  std::vector<SubReq> reqs;
  if (cls_ == RequestClass::Contig)
    encode_contig(pieces, /*writing=*/false, reqs);
  else
    encode_list(pieces, /*writing=*/false, pool_->nservers(), iov_batch_max(),
                reqs);
  transact(reqs);
  Off got = 0;
  for (const pfs::IoVec& v : iov)
    got += std::clamp<Off>(fsize - v.offset, 0, to_off(v.buf.size()));
  return got;
}

// ---- view translation ----------------------------------------------------

std::shared_ptr<ServerFile::ClientView> ServerFile::intern_view(
    const dt::Type& filetype) {
  ByteVec key = dt::serialize(dt::normalize(filetype));
  std::lock_guard<std::mutex> lock(views_mu_);
  auto it = views_.find(key);
  if (it != views_.end()) return it->second;
  auto cv = std::make_shared<ClientView>();
  cv->id = pool_->alloc_view_id();
  cv->ft = dt::deserialize(key);  // private normalized copy
  cv->tree = key;
  cv->nav = std::make_unique<core::ListlessNav>(cv->ft);
  cv->installed = std::make_unique<std::atomic<bool>[]>(
      to_size(Off{pool_->nservers()}));
  views_.emplace(std::move(key), cv);
  return cv;
}

Off ServerFile::view_access(const dt::Type& filetype, Off disp, Off stream_lo,
                            ConstByteSpan wdata, ByteSpan rdata) {
  const bool writing = rdata.empty();
  const Off n = writing ? to_off(wdata.size()) : to_off(rdata.size());
  if (n <= 0) return 0;
  LLIO_REQUIRE(stream_lo >= 0 && disp >= 0, Errc::InvalidArgument,
               "psrv view access: negative position");
  std::shared_ptr<ClientView> cv = intern_view(filetype);

  // Split the stream range at shard boundaries: navigable monotone
  // filetypes map stream order to file order, so the stream bytes below a
  // domain's upper file offset are exactly the bytes this and earlier
  // servers own.
  struct VSeg {
    int server;
    Off slo, shi;
  };
  std::vector<VSeg> segs;
  Off abs_hi = 0;
  {
    std::lock_guard<std::mutex> lock(cv->nav_mu);
    core::ListlessNav& nav = *cv->nav;
    const Off s_hi = stream_lo + n;
    Off cursor = stream_lo;
    const auto& domains = pool_->domains();
    for (std::size_t s = 0; s < domains.size() && cursor < s_hi; ++s) {
      const mpiio::Domain& d = domains[s];
      if (d.empty()) continue;
      Off shi;
      if (d.hi >= ServerPool::kOpenEnd) {
        shi = s_hi;  // open-ended last domain takes the rest
      } else {
        const Off mem_hi = d.hi - disp;
        shi = mem_hi <= 0 ? cursor : nav.file_to_stream(mem_hi);
        shi = std::clamp(shi, cursor, s_hi);
      }
      if (shi > cursor) segs.push_back({static_cast<int>(s), cursor, shi});
      cursor = shi;
    }
    LLIO_ASSERT(cursor == s_hi, "psrv: view split lost stream bytes");
    if (writing) abs_hi = disp + nav.stream_to_file_end(s_hi);
  }

  std::vector<SubReq> reqs;
  reqs.reserve(segs.size());
  for (const VSeg& seg : segs) {
    const Off slen = seg.shi - seg.slo;
    const ConstByteSpan payload =
        writing ? wdata.subspan(to_size(seg.slo - stream_lo), to_size(slen))
                : ConstByteSpan{};
    // The write payload is NOT staged into the message: it travels as a
    // gather run straight out of the caller's buffer (transact uses
    // send_gather), so a view write costs one header allocation, not a
    // header-plus-payload copy.
    const auto build = [cv, disp, writing, seg, slen](bool with_tree) {
      ByteVec m = wire::request_header(writing ? wire::Op::WriteView
                                               : wire::Op::ReadView);
      wire::put_i64(m, cv->id);
      wire::put_i64(m, disp);
      wire::put_i64(m, seg.slo);
      if (!writing) wire::put_i64(m, slen);
      if (with_tree) {
        wire::put_i64(m, to_off(cv->tree.size()));
        wire::put_bytes(m, cv->tree);
      } else {
        wire::put_i64(m, 0);
      }
      return m;
    };
    SubReq r;
    r.server = seg.server;
    r.cls = writing ? sim::MsgClass::Data : sim::MsgClass::Meta;
    r.msg = build(
        !cv->installed[to_size(seg.server)].load(std::memory_order_relaxed));
    if (writing)
      r.payload_runs.push_back(payload);
    else
      r.dests.push_back(
          rdata.subspan(to_size(seg.slo - stream_lo), to_size(slen)));
    r.view = cv;
    r.rebuild_with_tree = [build] { return build(true); };
    reqs.push_back(std::move(r));
  }
  transact(reqs);
  if (writing) pool_->grow_size(abs_hi);
  return n;
}

Off ServerFile::view_write(const dt::Type& filetype, Off disp, Off stream_lo,
                           ConstByteSpan data) {
  const Off n = view_access(filetype, disp, stream_lo, data, {});
  note_write(n);
  return n;
}

Off ServerFile::view_read(const dt::Type& filetype, Off disp, Off stream_lo,
                          ByteSpan out) {
  const Off n =
      view_access(filetype, disp, stream_lo, {}, out);
  note_read(n);
  return n;
}

// ---- admin ---------------------------------------------------------------

void ServerFile::resize(Off new_size) {
  LLIO_REQUIRE(new_size >= 0, Errc::InvalidArgument,
               "psrv resize: negative size");
  std::vector<SubReq> reqs;
  for (int s = 0; s < pool_->nservers(); ++s) {
    SubReq r;
    r.server = s;
    r.msg = wire::request_header(wire::Op::Resize);
    wire::put_i64(r.msg, new_size);
    reqs.push_back(std::move(r));
  }
  transact(reqs);
  pool_->set_size(new_size);
}

void ServerFile::sync() {
  std::vector<SubReq> reqs;
  for (int s = 0; s < pool_->nservers(); ++s) {
    SubReq r;
    r.server = s;
    r.msg = wire::request_header(wire::Op::Sync);
    reqs.push_back(std::move(r));
  }
  transact(reqs);
}

// ---- backend factory -----------------------------------------------------

pfs::FilePtr make_backend(const pfs::BackendSpec& spec, PoolConfig base) {
  using Kind = pfs::BackendSpec::Kind;
  if (!spec.net.empty()) {  // resolved on every kind, so a bad name throws
    base.net = sim::named_cost_model(spec.net);
  }
  if (spec.kind == Kind::Mem) return pfs::MemFile::create();
  if (spec.kind == Kind::Posix) {
    pfs::PosixConfig pc;
    pc.direct = spec.direct;
    pfs::FilePtr f = pfs::PosixFile::open_temp(spec.dir, pc);
    return spec.qd > 1 ? pfs::AsyncQdFile::wrap(std::move(f), spec.qd) : f;
  }
  if (spec.servers > 0) base.nservers = spec.servers;
  if (spec.qd > 0) base.queue_depth = spec.qd;
  return ServerFile::create(ServerPool::create(std::move(base)),
                            request_class_from_name(spec.request));
}

}  // namespace llio::psrv
