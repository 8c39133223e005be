/* llio C API: an MPI-flavoured C89-callable surface over the C++ core.
 *
 * Mirrors the subset of the MPI / MPI-IO C API the paper exercises:
 * datatype constructors, file open/set_view, independent and collective
 * read/write at explicit offsets, and pack/unpack.  All functions return
 * LLIO_SUCCESS (0) or a negative error code; llio_last_error() returns a
 * thread-local message for the most recent failure on this thread.
 *
 * Handles are opaque pointers owned by the caller: every *_create /
 * *_open / llio_type_* constructor has a matching *_free / *_close.
 * Datatype handles are reference-counted internally and may be freed as
 * soon as they have been passed to set_view or an access routine.
 *
 * Example (see examples/capi_demo.c):
 *   LLIO_Storage st; llio_storage_open("mem", &st);
 *   llio_run(4, body, st);      // body(comm, user) runs on 4 ranks
 *   ...
 *   void body(LLIO_Comm comm, void* user) {
 *     LLIO_File f; llio_file_open(comm, (LLIO_Storage)user,
 *                                 LLIO_METHOD_LISTLESS, &f);
 *     ...
 *   }
 */
#ifndef LLIO_MPI_H
#define LLIO_MPI_H

#ifdef __cplusplus
extern "C" {
#endif

/* ---- error codes ----------------------------------------------------- */

#define LLIO_SUCCESS 0
#define LLIO_ERR_ARG (-1)       /* invalid argument        */
#define LLIO_ERR_TYPE (-2)      /* invalid datatype        */
#define LLIO_ERR_VIEW (-3)      /* invalid fileview        */
#define LLIO_ERR_IO (-4)        /* storage failure         */
#define LLIO_ERR_PROTOCOL (-5)  /* runtime/peer failure    */
#define LLIO_ERR_UNSUPPORTED (-6)
#define LLIO_ERR_INTERNAL (-7)
#define LLIO_ERR_OTHER (-8)

/* Thread-local message for the most recent error on this thread. */
const char* llio_last_error(void);

/* ---- opaque handles --------------------------------------------------- */

typedef struct llio_comm_s* LLIO_Comm;        /* valid inside llio_run body */
typedef struct llio_storage_s* LLIO_Storage;  /* shared backing store       */
typedef struct llio_file_s* LLIO_File;
typedef struct llio_datatype_s* LLIO_Datatype;

typedef long long llio_offset; /* MPI_Offset analogue */

/* ---- runtime ----------------------------------------------------------- */

typedef void (*llio_main_fn)(LLIO_Comm comm, void* user);

/* Run `body` on nprocs simulated ranks; returns when all complete.
 * Any rank failure aborts the run and is reported here. */
int llio_run(int nprocs, llio_main_fn body, void* user);

int llio_comm_rank(LLIO_Comm comm, int* rank);
int llio_comm_size(LLIO_Comm comm, int* size);
int llio_barrier(LLIO_Comm comm);

/* ---- storage ----------------------------------------------------------- */

/* Fresh storage named by a backend spec, the string the llio_backend
 * hint takes: "mem", "posix:<dir>[,qd=N][,direct=1]" (an unlinked
 * scratch file in <dir>) or
 * "psrv[:servers=N][,qd=N][,request=contig|list|view]" (a pool of file
 * servers, each owning a stripe-aligned shard, reached over a simulated
 * interconnect), plus ",net=<model>" on any kind.  A malformed spec
 * returns LLIO_ERR_ARG. */
int llio_storage_open(const char* spec, LLIO_Storage* out);
/* A named, persistent POSIX file (truncated to zero if truncate != 0). */
int llio_storage_posix_open(const char* path, int truncate,
                            LLIO_Storage* out);
int llio_storage_size(LLIO_Storage st, llio_offset* size);
int llio_storage_free(LLIO_Storage* st);

/* ---- datatypes --------------------------------------------------------- */

int llio_type_byte(LLIO_Datatype* out);
int llio_type_int(LLIO_Datatype* out);
int llio_type_double(LLIO_Datatype* out);

int llio_type_contiguous(llio_offset count, LLIO_Datatype oldtype,
                         LLIO_Datatype* out);
int llio_type_vector(llio_offset count, llio_offset blocklength,
                     llio_offset stride, LLIO_Datatype oldtype,
                     LLIO_Datatype* out);
int llio_type_create_hvector(llio_offset count, llio_offset blocklength,
                             llio_offset stride_bytes, LLIO_Datatype oldtype,
                             LLIO_Datatype* out);
int llio_type_indexed(llio_offset count, const llio_offset* blocklengths,
                      const llio_offset* displacements, LLIO_Datatype oldtype,
                      LLIO_Datatype* out);
int llio_type_create_hindexed(llio_offset count,
                              const llio_offset* blocklengths,
                              const llio_offset* byte_displacements,
                              LLIO_Datatype oldtype, LLIO_Datatype* out);
int llio_type_create_struct(llio_offset count,
                            const llio_offset* blocklengths,
                            const llio_offset* byte_displacements,
                            const LLIO_Datatype* types, LLIO_Datatype* out);
int llio_type_create_resized(LLIO_Datatype oldtype, llio_offset lb,
                             llio_offset extent, LLIO_Datatype* out);

#define LLIO_ORDER_C 0
#define LLIO_ORDER_FORTRAN 1

int llio_type_create_subarray(int ndims, const llio_offset* sizes,
                              const llio_offset* subsizes,
                              const llio_offset* starts, int order,
                              LLIO_Datatype oldtype, LLIO_Datatype* out);

#define LLIO_DISTRIBUTE_NONE 0
#define LLIO_DISTRIBUTE_BLOCK 1
#define LLIO_DISTRIBUTE_CYCLIC 2
#define LLIO_DISTRIBUTE_DFLT_DARG (-1)

int llio_type_create_darray(int size, int rank, int ndims,
                            const llio_offset* gsizes, const int* distribs,
                            const llio_offset* dargs,
                            const llio_offset* psizes, int order,
                            LLIO_Datatype oldtype, LLIO_Datatype* out);

int llio_type_size(LLIO_Datatype type, llio_offset* size);
int llio_type_extent(LLIO_Datatype type, llio_offset* lb,
                     llio_offset* extent);
int llio_type_free(LLIO_Datatype* type);

/* ---- pack/unpack (MPI_Pack-style) -------------------------------------- */

int llio_pack_size(llio_offset incount, LLIO_Datatype type,
                   llio_offset* size);
int llio_pack(const void* inbuf, llio_offset incount, LLIO_Datatype type,
              void* outbuf, llio_offset outsize, llio_offset* position);
int llio_unpack(const void* inbuf, llio_offset insize, llio_offset* position,
                void* outbuf, llio_offset outcount, LLIO_Datatype type);

/* ---- files -------------------------------------------------------------- */

#define LLIO_METHOD_LISTLESS 0
#define LLIO_METHOD_LIST_BASED 1

/* Collective over comm. */
int llio_file_open(LLIO_Comm comm, LLIO_Storage storage, int method,
                   LLIO_File* out);
int llio_file_close(LLIO_File* f);

/* Collective; displacement in bytes. */
int llio_file_set_view(LLIO_File f, llio_offset disp, LLIO_Datatype etype,
                       LLIO_Datatype filetype);

/* Offsets in etype units; *moved receives the bytes transferred. */
int llio_file_write_at(LLIO_File f, llio_offset offset, const void* buf,
                       llio_offset count, LLIO_Datatype type,
                       llio_offset* moved);
int llio_file_read_at(LLIO_File f, llio_offset offset, void* buf,
                      llio_offset count, LLIO_Datatype type,
                      llio_offset* moved);
int llio_file_write_at_all(LLIO_File f, llio_offset offset, const void* buf,
                           llio_offset count, LLIO_Datatype type,
                           llio_offset* moved);
int llio_file_read_at_all(LLIO_File f, llio_offset offset, void* buf,
                          llio_offset count, LLIO_Datatype type,
                          llio_offset* moved);

int llio_file_get_size(LLIO_File f, llio_offset* size);
int llio_file_set_size(LLIO_File f, llio_offset size);    /* collective */
int llio_file_sync(LLIO_File f);                          /* collective */
int llio_file_set_atomicity(LLIO_File f, int atomic);     /* collective */

#ifdef __cplusplus
} /* extern "C" */
#endif

#endif /* LLIO_MPI_H */
