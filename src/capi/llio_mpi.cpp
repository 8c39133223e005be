#include "capi/llio_mpi.h"

#include <cstring>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "dtype/datatype.hpp"
#include "fotf/mpi_pack.hpp"
#include "mpiio/file.hpp"
#include "pfs/backend_spec.hpp"
#include "pfs/posix_file.hpp"
#include "psrv/server_file.hpp"
#include "simmpi/comm.hpp"

// Handle definitions: each opaque struct owns the corresponding C++
// object.  LLIO_Comm aliases the runtime-owned Comm (not owned by the
// caller); everything else is heap-allocated by the constructors here.
struct llio_comm_s {
  llio::sim::Comm* comm;
};
struct llio_storage_s {
  llio::pfs::FilePtr backend;
};
struct llio_file_s {
  llio::mpiio::File file;
};
struct llio_datatype_s {
  llio::dt::Type type;
};

namespace {

thread_local std::string g_last_error;

int code_of(const llio::Error& e) {
  switch (e.code()) {
    case llio::Errc::InvalidArgument: return LLIO_ERR_ARG;
    case llio::Errc::InvalidDatatype: return LLIO_ERR_TYPE;
    case llio::Errc::InvalidView: return LLIO_ERR_VIEW;
    case llio::Errc::Io: return LLIO_ERR_IO;
    case llio::Errc::Protocol: return LLIO_ERR_PROTOCOL;
    case llio::Errc::Unsupported: return LLIO_ERR_UNSUPPORTED;
    case llio::Errc::Internal: return LLIO_ERR_INTERNAL;
  }
  return LLIO_ERR_OTHER;
}

/// Run `fn`, translating exceptions into error codes + last-error text.
template <typename Fn>
int guarded(Fn&& fn) {
  try {
    fn();
    return LLIO_SUCCESS;
  } catch (const llio::Error& e) {
    g_last_error = e.what();
    return code_of(e);
  } catch (const std::exception& e) {
    g_last_error = e.what();
    return LLIO_ERR_OTHER;
  } catch (...) {
    g_last_error = "unknown error";
    return LLIO_ERR_OTHER;
  }
}

#define LLIO_C_REQUIRE(cond)                                       \
  do {                                                             \
    if (!(cond)) {                                                 \
      g_last_error = std::string("invalid argument: ") + #cond;    \
      return LLIO_ERR_ARG;                                         \
    }                                                              \
  } while (0)

int wrap_type(llio::dt::Type t, LLIO_Datatype* out) {
  *out = new llio_datatype_s{std::move(t)};
  return LLIO_SUCCESS;
}

std::vector<llio::Off> offs(const llio_offset* p, llio_offset n) {
  return std::vector<llio::Off>(p, p + n);
}

}  // namespace

extern "C" {

const char* llio_last_error(void) { return g_last_error.c_str(); }

/* ---- runtime ---------------------------------------------------------- */

int llio_run(int nprocs, llio_main_fn body, void* user) {
  LLIO_C_REQUIRE(body != nullptr);
  return guarded([&] {
    llio::sim::Runtime::run(nprocs, [&](llio::sim::Comm& comm) {
      llio_comm_s handle{&comm};
      body(&handle, user);
    });
  });
}

int llio_comm_rank(LLIO_Comm comm, int* rank) {
  LLIO_C_REQUIRE(comm != nullptr && rank != nullptr);
  *rank = comm->comm->rank();
  return LLIO_SUCCESS;
}

int llio_comm_size(LLIO_Comm comm, int* size) {
  LLIO_C_REQUIRE(comm != nullptr && size != nullptr);
  *size = comm->comm->size();
  return LLIO_SUCCESS;
}

int llio_barrier(LLIO_Comm comm) {
  LLIO_C_REQUIRE(comm != nullptr);
  return guarded([&] { comm->comm->barrier(); });
}

/* ---- storage ---------------------------------------------------------- */

int llio_storage_open(const char* spec, LLIO_Storage* out) {
  LLIO_C_REQUIRE(spec != nullptr && out != nullptr);
  return guarded([&] {
    *out = new llio_storage_s{
        llio::psrv::make_backend(llio::pfs::parse_backend_spec(spec))};
  });
}

int llio_storage_posix_open(const char* path, int truncate,
                            LLIO_Storage* out) {
  LLIO_C_REQUIRE(path != nullptr && out != nullptr);
  return guarded([&] {
    *out = new llio_storage_s{llio::pfs::PosixFile::open(path, truncate != 0)};
  });
}

int llio_storage_size(LLIO_Storage st, llio_offset* size) {
  LLIO_C_REQUIRE(st != nullptr && size != nullptr);
  return guarded([&] { *size = st->backend->size(); });
}

int llio_storage_free(LLIO_Storage* st) {
  LLIO_C_REQUIRE(st != nullptr);
  delete *st;
  *st = nullptr;
  return LLIO_SUCCESS;
}

/* ---- datatypes --------------------------------------------------------- */

int llio_type_byte(LLIO_Datatype* out) {
  LLIO_C_REQUIRE(out != nullptr);
  return wrap_type(llio::dt::byte(), out);
}

int llio_type_int(LLIO_Datatype* out) {
  LLIO_C_REQUIRE(out != nullptr);
  return wrap_type(llio::dt::int_(), out);
}

int llio_type_double(LLIO_Datatype* out) {
  LLIO_C_REQUIRE(out != nullptr);
  return wrap_type(llio::dt::double_(), out);
}

int llio_type_contiguous(llio_offset count, LLIO_Datatype oldtype,
                         LLIO_Datatype* out) {
  LLIO_C_REQUIRE(oldtype != nullptr && out != nullptr);
  return guarded([&] {
    wrap_type(llio::dt::contiguous(count, oldtype->type), out);
  });
}

int llio_type_vector(llio_offset count, llio_offset blocklength,
                     llio_offset stride, LLIO_Datatype oldtype,
                     LLIO_Datatype* out) {
  LLIO_C_REQUIRE(oldtype != nullptr && out != nullptr);
  return guarded([&] {
    wrap_type(llio::dt::vector(count, blocklength, stride, oldtype->type),
              out);
  });
}

int llio_type_create_hvector(llio_offset count, llio_offset blocklength,
                             llio_offset stride_bytes, LLIO_Datatype oldtype,
                             LLIO_Datatype* out) {
  LLIO_C_REQUIRE(oldtype != nullptr && out != nullptr);
  return guarded([&] {
    wrap_type(
        llio::dt::hvector(count, blocklength, stride_bytes, oldtype->type),
        out);
  });
}

int llio_type_indexed(llio_offset count, const llio_offset* blocklengths,
                      const llio_offset* displacements, LLIO_Datatype oldtype,
                      LLIO_Datatype* out) {
  LLIO_C_REQUIRE(count >= 0 && blocklengths != nullptr &&
                 displacements != nullptr && oldtype != nullptr &&
                 out != nullptr);
  return guarded([&] {
    wrap_type(llio::dt::indexed(offs(blocklengths, count),
                                offs(displacements, count), oldtype->type),
              out);
  });
}

int llio_type_create_hindexed(llio_offset count,
                              const llio_offset* blocklengths,
                              const llio_offset* byte_displacements,
                              LLIO_Datatype oldtype, LLIO_Datatype* out) {
  LLIO_C_REQUIRE(count >= 0 && blocklengths != nullptr &&
                 byte_displacements != nullptr && oldtype != nullptr &&
                 out != nullptr);
  return guarded([&] {
    wrap_type(
        llio::dt::hindexed(offs(blocklengths, count),
                           offs(byte_displacements, count), oldtype->type),
        out);
  });
}

int llio_type_create_struct(llio_offset count,
                            const llio_offset* blocklengths,
                            const llio_offset* byte_displacements,
                            const LLIO_Datatype* types, LLIO_Datatype* out) {
  LLIO_C_REQUIRE(count >= 0 && blocklengths != nullptr &&
                 byte_displacements != nullptr && types != nullptr &&
                 out != nullptr);
  return guarded([&] {
    std::vector<llio::dt::Type> kids;
    kids.reserve(llio::to_size(count));
    for (llio_offset i = 0; i < count; ++i) {
      LLIO_REQUIRE(types[i] != nullptr, llio::Errc::InvalidDatatype,
                   "llio_type_create_struct: null member type");
      kids.push_back(types[i]->type);
    }
    wrap_type(llio::dt::struct_(offs(blocklengths, count),
                                offs(byte_displacements, count), kids),
              out);
  });
}

int llio_type_create_resized(LLIO_Datatype oldtype, llio_offset lb,
                             llio_offset extent, LLIO_Datatype* out) {
  LLIO_C_REQUIRE(oldtype != nullptr && out != nullptr);
  return guarded(
      [&] { wrap_type(llio::dt::resized(oldtype->type, lb, extent), out); });
}

int llio_type_create_subarray(int ndims, const llio_offset* sizes,
                              const llio_offset* subsizes,
                              const llio_offset* starts, int order,
                              LLIO_Datatype oldtype, LLIO_Datatype* out) {
  LLIO_C_REQUIRE(ndims >= 1 && sizes != nullptr && subsizes != nullptr &&
                 starts != nullptr && oldtype != nullptr && out != nullptr);
  LLIO_C_REQUIRE(order == LLIO_ORDER_C || order == LLIO_ORDER_FORTRAN);
  return guarded([&] {
    wrap_type(llio::dt::subarray(
                  offs(sizes, ndims), offs(subsizes, ndims),
                  offs(starts, ndims),
                  order == LLIO_ORDER_C ? llio::dt::Order::C
                                        : llio::dt::Order::Fortran,
                  oldtype->type),
              out);
  });
}

int llio_type_create_darray(int size, int rank, int ndims,
                            const llio_offset* gsizes, const int* distribs,
                            const llio_offset* dargs,
                            const llio_offset* psizes, int order,
                            LLIO_Datatype oldtype, LLIO_Datatype* out) {
  LLIO_C_REQUIRE(ndims >= 1 && gsizes != nullptr && distribs != nullptr &&
                 dargs != nullptr && psizes != nullptr && oldtype != nullptr &&
                 out != nullptr);
  LLIO_C_REQUIRE(order == LLIO_ORDER_C || order == LLIO_ORDER_FORTRAN);
  return guarded([&] {
    std::vector<llio::dt::Distrib> dist(llio::to_size(llio::Off{ndims}));
    for (int i = 0; i < ndims; ++i) {
      LLIO_REQUIRE(distribs[i] >= LLIO_DISTRIBUTE_NONE &&
                       distribs[i] <= LLIO_DISTRIBUTE_CYCLIC,
                   llio::Errc::InvalidDatatype, "darray: bad distribution");
      dist[llio::to_size(llio::Off{i})] =
          static_cast<llio::dt::Distrib>(distribs[i]);
    }
    wrap_type(llio::dt::darray(size, rank, offs(gsizes, ndims), dist,
                               offs(dargs, ndims), offs(psizes, ndims),
                               order == LLIO_ORDER_C ? llio::dt::Order::C
                                                     : llio::dt::Order::Fortran,
                               oldtype->type),
              out);
  });
}

int llio_type_size(LLIO_Datatype type, llio_offset* size) {
  LLIO_C_REQUIRE(type != nullptr && size != nullptr);
  *size = type->type->size();
  return LLIO_SUCCESS;
}

int llio_type_extent(LLIO_Datatype type, llio_offset* lb,
                     llio_offset* extent) {
  LLIO_C_REQUIRE(type != nullptr && lb != nullptr && extent != nullptr);
  *lb = type->type->lb();
  *extent = type->type->extent();
  return LLIO_SUCCESS;
}

int llio_type_free(LLIO_Datatype* type) {
  LLIO_C_REQUIRE(type != nullptr);
  delete *type;
  *type = nullptr;
  return LLIO_SUCCESS;
}

/* ---- pack/unpack ------------------------------------------------------- */

int llio_pack_size(llio_offset incount, LLIO_Datatype type,
                   llio_offset* size) {
  LLIO_C_REQUIRE(type != nullptr && size != nullptr);
  return guarded([&] { *size = llio::fotf::pack_size(incount, type->type); });
}

int llio_pack(const void* inbuf, llio_offset incount, LLIO_Datatype type,
              void* outbuf, llio_offset outsize, llio_offset* position) {
  LLIO_C_REQUIRE(type != nullptr && position != nullptr);
  return guarded([&] {
    llio::Off pos = *position;
    llio::fotf::pack(inbuf, incount, type->type, outbuf, outsize, &pos);
    *position = pos;
  });
}

int llio_unpack(const void* inbuf, llio_offset insize, llio_offset* position,
                void* outbuf, llio_offset outcount, LLIO_Datatype type) {
  LLIO_C_REQUIRE(type != nullptr && position != nullptr);
  return guarded([&] {
    llio::Off pos = *position;
    llio::fotf::unpack(inbuf, insize, &pos, outbuf, outcount, type->type);
    *position = pos;
  });
}

/* ---- files --------------------------------------------------------------*/

int llio_file_open(LLIO_Comm comm, LLIO_Storage storage, int method,
                   LLIO_File* out) {
  LLIO_C_REQUIRE(comm != nullptr && storage != nullptr && out != nullptr);
  LLIO_C_REQUIRE(method == LLIO_METHOD_LISTLESS ||
                 method == LLIO_METHOD_LIST_BASED);
  return guarded([&] {
    llio::mpiio::Options o;
    o.method = method == LLIO_METHOD_LISTLESS
                   ? llio::mpiio::Method::Listless
                   : llio::mpiio::Method::ListBased;
    *out = new llio_file_s{
        llio::mpiio::File::open(*comm->comm, storage->backend, o)};
  });
}

int llio_file_close(LLIO_File* f) {
  LLIO_C_REQUIRE(f != nullptr);
  delete *f;
  *f = nullptr;
  return LLIO_SUCCESS;
}

int llio_file_set_view(LLIO_File f, llio_offset disp, LLIO_Datatype etype,
                       LLIO_Datatype filetype) {
  LLIO_C_REQUIRE(f != nullptr && etype != nullptr && filetype != nullptr);
  return guarded(
      [&] { f->file.set_view(disp, etype->type, filetype->type); });
}

int llio_file_write_at(LLIO_File f, llio_offset offset, const void* buf,
                       llio_offset count, LLIO_Datatype type,
                       llio_offset* moved) {
  LLIO_C_REQUIRE(f != nullptr && type != nullptr);
  return guarded([&] {
    const llio::Off n = f->file.write_at(offset, buf, count, type->type);
    if (moved != nullptr) *moved = n;
  });
}

int llio_file_read_at(LLIO_File f, llio_offset offset, void* buf,
                      llio_offset count, LLIO_Datatype type,
                      llio_offset* moved) {
  LLIO_C_REQUIRE(f != nullptr && type != nullptr);
  return guarded([&] {
    const llio::Off n = f->file.read_at(offset, buf, count, type->type);
    if (moved != nullptr) *moved = n;
  });
}

int llio_file_write_at_all(LLIO_File f, llio_offset offset, const void* buf,
                           llio_offset count, LLIO_Datatype type,
                           llio_offset* moved) {
  LLIO_C_REQUIRE(f != nullptr && type != nullptr);
  return guarded([&] {
    const llio::Off n = f->file.write_at_all(offset, buf, count, type->type);
    if (moved != nullptr) *moved = n;
  });
}

int llio_file_read_at_all(LLIO_File f, llio_offset offset, void* buf,
                          llio_offset count, LLIO_Datatype type,
                          llio_offset* moved) {
  LLIO_C_REQUIRE(f != nullptr && type != nullptr);
  return guarded([&] {
    const llio::Off n = f->file.read_at_all(offset, buf, count, type->type);
    if (moved != nullptr) *moved = n;
  });
}

int llio_file_get_size(LLIO_File f, llio_offset* size) {
  LLIO_C_REQUIRE(f != nullptr && size != nullptr);
  return guarded([&] { *size = f->file.size(); });
}

int llio_file_set_size(LLIO_File f, llio_offset size) {
  LLIO_C_REQUIRE(f != nullptr);
  return guarded([&] { f->file.set_size(size); });
}

int llio_file_sync(LLIO_File f) {
  LLIO_C_REQUIRE(f != nullptr);
  return guarded([&] { f->file.sync(); });
}

int llio_file_set_atomicity(LLIO_File f, int atomic) {
  LLIO_C_REQUIRE(f != nullptr);
  return guarded([&] { f->file.set_atomicity(atomic != 0); });
}

} /* extern "C" */
