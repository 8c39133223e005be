/* Pure C client of the llio C API: four ranks partition a file with
 * strided fileviews (the paper's Fig. 4 pattern) and move their data with
 * one collective call each — the MPI-IO workflow, without C++.
 *
 *   build/examples/capi_demo [spec]
 *
 * The optional argument is a backend spec (default "mem"), e.g.
 * "psrv:servers=3,request=view"; a malformed spec exits nonzero.
 */
#include <stdio.h>
#include <stdlib.h>

#include "capi/llio_mpi.h"

#define CHECK(call)                                                  \
  do {                                                               \
    int rc_ = (call);                                                \
    if (rc_ != LLIO_SUCCESS) {                                       \
      fprintf(stderr, "%s failed (%d): %s\n", #call, rc_,            \
              llio_last_error());                                    \
      exit(1);                                                       \
    }                                                                \
  } while (0)

#define NBLOCK 8
#define BLOCK_DOUBLES 8
#define NPROCS 4

static void body(LLIO_Comm comm, void* user) {
  LLIO_Storage storage = (LLIO_Storage)user;
  int rank, size;
  CHECK(llio_comm_rank(comm, &rank));
  CHECK(llio_comm_size(comm, &size));

  LLIO_File file;
  CHECK(llio_file_open(comm, storage, LLIO_METHOD_LISTLESS, &file));

  /* Fileview: every size-th block of BLOCK_DOUBLES doubles, shifted by
   * rank (vector + resized, as MPI code would build it). */
  LLIO_Datatype dbl, vec, placed, filetype;
  CHECK(llio_type_double(&dbl));
  CHECK(llio_type_vector(NBLOCK, BLOCK_DOUBLES, size * BLOCK_DOUBLES, dbl,
                         &vec));
  {
    llio_offset bl = 1;
    llio_offset disp = (llio_offset)rank * BLOCK_DOUBLES * 8;
    CHECK(llio_type_create_hindexed(1, &bl, &disp, vec, &placed));
  }
  CHECK(llio_type_create_resized(
      placed, 0, (llio_offset)NBLOCK * size * BLOCK_DOUBLES * 8, &filetype));
  CHECK(llio_file_set_view(file, 0, dbl, filetype));

  /* Write my values collectively, read them back, verify. */
  {
    enum { N = NBLOCK * BLOCK_DOUBLES };
    double mine[N], back[N];
    llio_offset moved;
    int i, ok = 1;
    for (i = 0; i < N; ++i) mine[i] = 1000.0 * rank + i;
    CHECK(llio_file_write_at_all(file, 0, mine, N, dbl, &moved));
    if (moved != (llio_offset)N * 8) ok = 0;
    CHECK(llio_file_read_at_all(file, 0, back, N, dbl, &moved));
    for (i = 0; i < N; ++i)
      if (back[i] != mine[i]) ok = 0;
    if (rank == 0)
      printf("rank 0: wrote+read %d doubles collectively (%s)\n", N,
             ok ? "verified" : "MISMATCH");
    if (!ok) exit(1);
  }

  CHECK(llio_type_free(&dbl));
  CHECK(llio_type_free(&vec));
  CHECK(llio_type_free(&placed));
  CHECK(llio_type_free(&filetype));
  CHECK(llio_file_close(&file));
}

int main(int argc, char** argv) {
  LLIO_Storage storage;
  llio_offset size;
  CHECK(llio_storage_open(argc > 1 ? argv[1] : "mem", &storage));
  CHECK(llio_run(NPROCS, body, storage));
  CHECK(llio_storage_size(storage, &size));
  printf("file holds %lld bytes across %d interleaved rank partitions\n",
         (long long)size, NPROCS);
  CHECK(llio_storage_free(&storage));
  return 0;
}
