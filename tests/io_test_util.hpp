// Helpers for the MPI-IO layer tests: the paper's noncontig fileview, and
// reference file images computed independently of the engines under test.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "dtype/flatten.hpp"
#include "fotf/navigate.hpp"
#include "mpiio/file.hpp"
#include "pfs/backend_spec.hpp"
#include "pfs/mem_file.hpp"
#include "psrv/server_file.hpp"
#include "simmpi/comm.hpp"
#include "test_util.hpp"

namespace llio::iotest {

/// A deliberately tiny pool (3 servers, 64-byte stripe) so the modest
/// accesses the tests make still cross shard boundaries.
inline psrv::PoolConfig small_pool_config() {
  psrv::PoolConfig cfg;
  cfg.nservers = 3;
  cfg.stripe = 64;
  cfg.capacity = 3 * 64;
  cfg.queue_depth = 4;
  cfg.client_slots = 8;
  return cfg;
}

/// The storage matrix the randomized engine suites run over, as backend
/// specs (pfs/backend_spec.hpp): the in-memory reference first, then a
/// POSIX scratch file plain, behind the queue-depth engine and with
/// O_DIRECT, then the file-server pool in all three request classes.
inline const std::vector<std::string>& backend_specs() {
  static const std::vector<std::string> specs = [] {
    const std::string posix = "posix:" + ::testing::TempDir();
    return std::vector<std::string>{
        "mem",
        posix,
        posix + ",qd=4",
        posix + ",direct=1",
        "psrv:servers=3,request=contig",
        "psrv:servers=3,request=list",
        "psrv:servers=3,request=view"};
  }();
  return specs;
}

/// Fresh storage for `spec`; a psrv pool gets small_pool_config().
inline pfs::FilePtr make_backend(const std::string& spec) {
  return psrv::make_backend(pfs::parse_backend_spec(spec),
                            small_pool_config());
}

/// `spec` without its posix directory and with every run of other
/// characters than letters and digits turned into one '_': a name that
/// is stable across hosts, usable as a gtest parameter name.
inline std::string spec_label(std::string_view spec) {
  std::string out;
  if (spec.starts_with("posix:")) {
    out = "posix";
    spec.remove_prefix(std::min(spec.find(','), spec.size()));
  }
  for (const char c : spec) {
    if (std::isalnum(static_cast<unsigned char>(c)) != 0)
      out += c;
    else if (out.empty() || out.back() != '_')
      out += '_';
  }
  return out;
}

/// Full file image through the public read path (works on any backend).
inline ByteVec backend_image(const pfs::FilePtr& f) {
  ByteVec img(to_size(f->size()), Byte{0});
  if (!img.empty()) f->pread(0, img);
  return img;
}

/// Images from different strategies may legitimately differ in length
/// (e.g. a sieving write-back extends the file further than a view write);
/// equality is up to trailing zeros.
inline void pad_to_common(ByteVec& a, ByteVec& b) {
  const std::size_t len = std::max(a.size(), b.size());
  a.resize(len, Byte{0});
  b.resize(len, Byte{0});
}

/// The noncontig benchmark fileview (paper Fig. 4): rank p sees blocks of
/// `sblock` bytes at stride nprocs*sblock, displaced by p*sblock; the
/// filetype extent covers one full round of all ranks' blocks, so the
/// ranks partition the file without overlap.
inline dt::Type noncontig_filetype(Off nblock, Off sblock, int nprocs,
                                   int rank) {
  const dt::Type v =
      dt::hvector(nblock, sblock, Off{nprocs} * sblock, dt::byte());
  const Off bls[] = {1};
  const Off ds[] = {Off{rank} * sblock};
  return dt::resized(dt::hindexed(bls, ds, v), 0,
                     nblock * Off{nprocs} * sblock);
}

/// Deterministic payload byte for (rank, stream position).
inline Byte payload_byte(int rank, Off s) {
  return Byte{static_cast<unsigned char>(
      (static_cast<unsigned>(rank) * 131u +
       static_cast<unsigned>(s) * 2654435761u) >>
      24)};
}

/// Expected file image after every rank wrote `nbytes` stream bytes
/// starting at stream offset `stream_lo` through `filetype(rank)` at
/// `disp`:  bytes never covered stay zero.
inline ByteVec expected_image(int nprocs,
                              const std::function<dt::Type(int)>& filetype,
                              Off disp, Off stream_lo, Off nbytes) {
  // Find the image size: max absolute offset touched.
  Off hi = 0;
  for (int r = 0; r < nprocs; ++r) {
    const dt::Type ft = filetype(r);
    hi = std::max(hi, disp + fotf::mem_end(ft, stream_lo + nbytes));
  }
  ByteVec img(to_size(hi), Byte{0});
  for (int r = 0; r < nprocs; ++r) {
    const dt::Type ft = filetype(r);
    const auto list = dt::flatten(ft, false);
    Off s = 0;  // stream position from view start
    for (Off inst = 0; s < stream_lo + nbytes; ++inst) {
      const Off base = disp + inst * ft->extent();
      for (const auto& tp : list.tuples()) {
        for (Off j = 0; j < tp.len && s < stream_lo + nbytes; ++j, ++s) {
          if (s >= stream_lo) img[to_size(base + tp.off + j)] =
              payload_byte(r, s - stream_lo);
        }
      }
    }
  }
  return img;
}

/// A rank's write payload: stream bytes [0, nbytes) of payload_byte.
inline ByteVec payload_stream(int rank, Off nbytes) {
  ByteVec v(to_size(nbytes));
  for (Off i = 0; i < nbytes; ++i) v[to_size(i)] = payload_byte(rank, i);
  return v;
}

/// A non-contiguous memtype holding a given dense stream: strided vector
/// of 8-byte blocks; returns (memtype, count, backing buffer) such that
/// packing the buffer yields exactly `stream`.
struct NcBuffer {
  dt::Type memtype;
  Off count;
  ByteVec storage;
};

inline NcBuffer make_nc_buffer(ConstByteSpan stream,
                               Off blocks_per_instance = 1) {
  const Off nbytes = to_off(stream.size());
  // 8-byte blocks, 24-byte stride; count instances of a vector of
  // blocks_per_instance 8-byte blocks.  The storage layout is the same
  // for any blocks_per_instance.
  LLIO_REQUIRE(nbytes % (8 * blocks_per_instance) == 0,
               Errc::InvalidArgument,
               "nc buffer needs a multiple of 8 * blocks_per_instance bytes");
  const Off blocks = nbytes / 8;
  const Off per = blocks_per_instance;
  NcBuffer b;
  b.memtype = dt::resized(dt::hvector(per, 8, 24, dt::byte()), 0, 24 * per);
  b.count = blocks / per;
  b.storage.assign(to_size(blocks * 24), Byte{0xCC});
  for (Off i = 0; i < blocks; ++i)
    std::memcpy(b.storage.data() + i * 24, stream.data() + i * 8, 8);
  return b;
}

/// Extract the dense stream from an NcBuffer (for read verification).
inline ByteVec nc_buffer_stream(const NcBuffer& b) {
  const Off blocks = to_off(b.storage.size()) / 24;
  ByteVec out(to_size(blocks * 8));
  for (Off i = 0; i < blocks; ++i)
    std::memcpy(out.data() + i * 8, b.storage.data() + i * 24, 8);
  return out;
}

}  // namespace llio::iotest
