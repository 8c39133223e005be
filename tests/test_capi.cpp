// The C API shim: happy paths, error-code mapping, and handle lifecycles.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "capi/llio_mpi.h"

namespace {

struct BodyCtx {
  LLIO_Storage storage;
  int failures = 0;
};

#define C_OK(call) EXPECT_EQ((call), LLIO_SUCCESS) << llio_last_error()

TEST(CApi, TypesSizeExtentLifecycle) {
  LLIO_Datatype dbl = nullptr, vec = nullptr;
  C_OK(llio_type_double(&dbl));
  llio_offset size = 0, lb = -1, extent = 0;
  C_OK(llio_type_size(dbl, &size));
  EXPECT_EQ(size, 8);
  C_OK(llio_type_vector(4, 2, 5, dbl, &vec));
  C_OK(llio_type_size(vec, &size));
  EXPECT_EQ(size, 64);
  C_OK(llio_type_extent(vec, &lb, &extent));
  EXPECT_EQ(lb, 0);
  EXPECT_EQ(extent, (3 * 5 + 2) * 8);
  C_OK(llio_type_free(&vec));
  EXPECT_EQ(vec, nullptr);
  C_OK(llio_type_free(&dbl));
}

TEST(CApi, ErrorCodesAndMessages) {
  LLIO_Datatype byte = nullptr, bad = nullptr;
  C_OK(llio_type_byte(&byte));
  // Negative count -> type error with a message.
  EXPECT_EQ(llio_type_contiguous(-3, byte, &bad), LLIO_ERR_TYPE);
  EXPECT_NE(std::strlen(llio_last_error()), 0u);
  // Null arguments -> ARG.
  EXPECT_EQ(llio_type_size(nullptr, nullptr), LLIO_ERR_ARG);
  EXPECT_EQ(llio_run(2, nullptr, nullptr), LLIO_ERR_ARG);
  C_OK(llio_type_free(&byte));
}

TEST(CApi, PackUnpackRoundTrip) {
  LLIO_Datatype intt = nullptr, vec = nullptr;
  C_OK(llio_type_int(&intt));
  C_OK(llio_type_vector(3, 1, 2, intt, &vec));
  int src[6] = {1, 0, 2, 0, 3, 0};
  llio_offset need = 0;
  C_OK(llio_pack_size(1, vec, &need));
  EXPECT_EQ(need, 12);
  std::vector<char> buf(static_cast<std::size_t>(need));
  llio_offset pos = 0;
  C_OK(llio_pack(src, 1, vec, buf.data(), need, &pos));
  EXPECT_EQ(pos, 12);
  int dst[6] = {0, 9, 0, 9, 0, 9};
  pos = 0;
  C_OK(llio_unpack(buf.data(), need, &pos, dst, 1, vec));
  EXPECT_EQ(dst[0], 1);
  EXPECT_EQ(dst[2], 2);
  EXPECT_EQ(dst[4], 3);
  EXPECT_EQ(dst[1], 9);  // gaps untouched
  // Overflow is rejected and position unchanged.
  pos = 8;
  EXPECT_EQ(llio_pack(src, 1, vec, buf.data(), need, &pos), LLIO_ERR_ARG);
  EXPECT_EQ(pos, 8);
  C_OK(llio_type_free(&vec));
  C_OK(llio_type_free(&intt));
}

namespace fileio {
void body(LLIO_Comm comm, void* user) {
  auto* ctx = static_cast<BodyCtx*>(user);
  int rank = -1, size = 0;
  if (llio_comm_rank(comm, &rank) != LLIO_SUCCESS ||
      llio_comm_size(comm, &size) != LLIO_SUCCESS) {
    ctx->failures++;
    return;
  }
  LLIO_File f = nullptr;
  LLIO_Datatype byte = nullptr, vec = nullptr, placed = nullptr,
                ft = nullptr;
  if (llio_file_open(comm, ctx->storage, LLIO_METHOD_LIST_BASED, &f) !=
      LLIO_SUCCESS) {
    ctx->failures++;
    return;
  }
  llio_type_byte(&byte);
  llio_type_create_hvector(4, 8, size * 8, byte, &vec);
  const llio_offset bl = 1;
  const llio_offset disp = rank * 8;
  llio_type_create_hindexed(1, &bl, &disp, vec, &placed);
  llio_type_create_resized(placed, 0, 4 * static_cast<llio_offset>(size) * 8,
                           &ft);
  if (llio_file_set_view(f, 0, byte, ft) != LLIO_SUCCESS) ctx->failures++;

  char data[32];
  for (int i = 0; i < 32; ++i)
    data[i] = static_cast<char>(rank * 40 + i);
  llio_offset moved = 0;
  if (llio_file_write_at_all(f, 0, data, 32, byte, &moved) != LLIO_SUCCESS ||
      moved != 32)
    ctx->failures++;
  char back[32] = {};
  if (llio_file_read_at_all(f, 0, back, 32, byte, &moved) != LLIO_SUCCESS ||
      std::memcmp(back, data, 32) != 0)
    ctx->failures++;
  llio_barrier(comm);

  llio_type_free(&byte);
  llio_type_free(&vec);
  llio_type_free(&placed);
  llio_type_free(&ft);
  llio_file_close(&f);
}
}  // namespace fileio

TEST(CApi, CollectiveFileRoundTrip) {
  BodyCtx ctx;
  C_OK(llio_storage_open("mem", &ctx.storage));
  C_OK(llio_run(3, fileio::body, &ctx));
  EXPECT_EQ(ctx.failures, 0);
  llio_offset size = 0;
  C_OK(llio_storage_size(ctx.storage, &size));
  EXPECT_EQ(size, 3 * 32);
  C_OK(llio_storage_free(&ctx.storage));
}

TEST(CApi, PsrvStorageRoundTripAllRequestClasses) {
  // The same collective round trip, but over the parallel file-server
  // pool in each request class: the C shim needs no psrv-specific code,
  // only a different spec string.
  for (const char* spec : {"psrv:servers=3,request=contig",
                           "psrv:servers=3,request=list",
                           "psrv:servers=3,request=view"}) {
    BodyCtx ctx;
    C_OK(llio_storage_open(spec, &ctx.storage));
    C_OK(llio_run(3, fileio::body, &ctx));
    EXPECT_EQ(ctx.failures, 0) << spec;
    llio_offset size = 0;
    C_OK(llio_storage_size(ctx.storage, &size));
    EXPECT_EQ(size, 3 * 32) << spec;
    C_OK(llio_storage_free(&ctx.storage));
  }
  LLIO_Storage bad = nullptr;
  EXPECT_EQ(llio_storage_open("psrv:servers=2,request=bulk", &bad),
            LLIO_ERR_ARG);
  EXPECT_EQ(llio_storage_open(nullptr, &bad), LLIO_ERR_ARG);
  EXPECT_EQ(llio_storage_open("tape:/dev/st0", &bad), LLIO_ERR_ARG);
  EXPECT_EQ(bad, nullptr);
}

namespace darray_check {
void body(LLIO_Comm comm, void* user) {
  auto* ctx = static_cast<BodyCtx*>(user);
  int rank = -1;
  llio_comm_rank(comm, &rank);
  LLIO_Datatype dbl = nullptr, ft = nullptr;
  llio_type_double(&dbl);
  const llio_offset gsizes[] = {8, 6};
  const int distribs[] = {LLIO_DISTRIBUTE_NONE, LLIO_DISTRIBUTE_CYCLIC};
  const llio_offset dargs[] = {LLIO_DISTRIBUTE_DFLT_DARG, 2};
  const llio_offset psizes[] = {1, 3};
  if (llio_type_create_darray(3, rank, 2, gsizes, distribs, dargs, psizes,
                              LLIO_ORDER_FORTRAN, dbl, &ft) != LLIO_SUCCESS)
    ctx->failures++;
  llio_offset sz = 0;
  llio_type_size(ft, &sz);
  if (sz != 8 * 2 * 8) ctx->failures++;  // 2 of 6 columns, 8 rows, doubles
  llio_type_free(&ft);
  llio_type_free(&dbl);
}
}  // namespace darray_check

TEST(CApi, DarrayConstruction) {
  BodyCtx ctx;
  ctx.storage = nullptr;
  C_OK(llio_run(3, darray_check::body, &ctx));
  EXPECT_EQ(ctx.failures, 0);
}

namespace fault_body {
void body(LLIO_Comm, void*) {
  throw std::runtime_error("rank body exploded");
}
}  // namespace fault_body

TEST(CApi, RankExceptionsSurfaceThroughRun) {
  EXPECT_NE(llio_run(2, fault_body::body, nullptr), LLIO_SUCCESS);
  EXPECT_NE(std::strlen(llio_last_error()), 0u);
}

TEST(CApi, PosixStorage) {
  const std::string path = ::testing::TempDir() + "/llio_capi.bin";
  LLIO_Storage st = nullptr;
  C_OK(llio_storage_posix_open(path.c_str(), /*truncate=*/1, &st));
  llio_offset size = -1;
  C_OK(llio_storage_size(st, &size));
  EXPECT_EQ(size, 0);
  C_OK(llio_storage_free(&st));
  std::remove(path.c_str());
}

}  // namespace
