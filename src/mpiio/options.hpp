// Open-time options for an llio file handle.
#pragma once

#include <optional>
#include <string>

#include "common/bytes.hpp"
#include "obs/trace.hpp"

namespace llio::mpiio {

/// Which non-contiguous-access implementation a file handle uses.
enum class Method {
  ListBased,  ///< ROMIO-style ol-lists (paper §2, the baseline)
  Listless,   ///< flattening-on-the-fly (paper §3, the contribution)
};

/// Independent non-contiguous access strategy (paper §5 discusses the
/// trade-off between data sieving and multiple direct file accesses).
enum class Sieving {
  Automatic,  ///< sieve when the access fills >= sieve_min_fill of its span
  Always,     ///< always sieve (the ROMIO default the paper measures)
  Never,      ///< one file access per contiguous block
};

/// Mergeview contiguity analysis for collective writes (paper §3.2.4):
/// decide per file-buffer window whether the combined accesses tile it
/// hole-free, so the read-modify-write pre-read can be skipped.
enum class MergeContig {
  Off,    ///< never elide the pre-read (every dirty window does RMW)
  Auto,   ///< exact per-window analysis; skip the pre-read when provably
          ///< hole-free, bypass pack+alltoall for dense disjoint accesses
  Force,  ///< assert density: never pre-read (unsafe on holey patterns —
          ///< gap bytes are clobbered with stale buffer contents)
};

/// Zero-copy descriptor I/O (paper-adjacent: Ching et al.'s list I/O
/// ships descriptors, not copied bytes): dense accesses whose memtype
/// materializes into few, long-enough memory runs hand user-memory
/// iovecs straight to preadv/pwritev and the wire, skipping the packed
/// staging buffer.
enum class Zerocopy {
  Off,   ///< always stage through packed buffers (the pre-zero-copy path)
  Auto,  ///< descriptor I/O when the run table fits the budget below
};

struct Options {
  Method method = Method::Listless;

  /// Data-sieving / two-phase file buffer size (ROMIO's ind_rd_buffer_size
  /// and cb_buffer_size analogue).
  Off file_buffer_size = 4 << 20;

  /// Pack buffer used when both memtype and filetype are non-contiguous.
  Off pack_buffer_size = 1 << 20;

  /// Number of I/O processes for collective access; 0 = every rank is an
  /// IOP (the common configuration in the paper's experiments).
  int io_procs = 0;

  /// Collective-write contiguity optimization: skip the pre-read of a file
  /// block when the combined accesses provably cover it, and bypass the
  /// two-phase exchange when every rank's access is one contiguous extent
  /// (paper §2.3 / §3.2.4).
  MergeContig merge_contig = MergeContig::Auto;

  /// Collective buffering (two-phase) on/off per direction; when off,
  /// collective calls degrade to independent accesses plus a barrier
  /// (ROMIO's romio_cb_write/read = disable).
  bool cb_write = true;
  bool cb_read = true;

  /// Independent access strategy per direction (romio_ds_write/read).
  Sieving ds_write = Sieving::Always;
  Sieving ds_read = Sieving::Always;

  /// Automatic mode: sieve when accessed bytes / spanned bytes >= this.
  double sieve_min_fill = 0.2;

  /// Collective two-phase pipelining: number of file-domain windows an IOP
  /// keeps in flight, with pread/pwrite running on a per-operation I/O
  /// worker thread while the compute thread gathers/scatters the previous
  /// window.  0 = fully serial (the pre-pipeline behavior, bit-identical);
  /// overlap needs >= 2.
  int pipeline_depth = 0;

  /// Max number of segments coalesced into one vectored file access
  /// (preadv/pwritev) by the direct (non-sieving) access paths.  Also
  /// seeded into the backend at open so every FileBackend (and the psrv
  /// list client) splits oversized batches identically.
  Off iov_batch_max = 64;

  /// Zero-copy descriptor I/O (hint llio_zerocopy = off|auto): dense
  /// windows skip the packed staging copy when the memtype's run table
  /// is cheap enough; holey or over-budget windows stage exactly as
  /// before.  Off reproduces the staged path byte-identically.
  Zerocopy zerocopy = Zerocopy::Auto;

  /// Decline descriptor I/O above this many memory runs per access
  /// (hint llio_zerocopy_max_runs) ...
  Off zerocopy_max_runs = 1 << 16;

  /// ... or below this average run length in bytes (hint
  /// llio_zerocopy_min_run): tiny runs move faster through the strided
  /// pack kernels than as per-segment iovec entries.
  Off zerocopy_min_run = 512;

  /// FOTF pack/unpack parallelism (hint llio_pack_threads): pack jobs of
  /// at least pack_parallel_min stream bytes are split into equal
  /// stream-byte slices on the process-wide worker pool (shared with the
  /// pipeline's I/O workers).  1 = serial, bit-identical to the
  /// pre-parallel path.
  int pack_threads = 1;

  /// Minimum job size (stream bytes) worth slicing (hint
  /// llio_pack_parallel_min).
  Off pack_parallel_min = 1 << 20;

  /// Compile each cached fileview's segment table into a PackPlan once
  /// and replay it on every window, instead of re-walking the type tree
  /// (hint llio_pack_plan = on/off).  Plans are recreated with the navs
  /// at every set_view, so they can never outlive their view epoch.
  bool pack_plan = true;

  /// Backend spec for harness-built storage (hint llio_backend, env
  /// LLIO_BENCH_BACKEND as a bench-wide default), e.g. "mem",
  /// "posix:/tmp,qd=4" or "psrv:servers=2,request=view,net=mid"; see
  /// pfs/backend_spec.hpp for the grammar and psrv::make_backend for the
  /// factory.  The engines see only the resulting pfs::FileBackend; this
  /// string (and its net value) only labels the sampling ring.  Empty =
  /// the harness's own default.
  std::string backend = {};

  /// Observability (hints llio_trace / llio_trace_file / llio_metrics).
  /// The tracer and metrics registry are process-global; File::open
  /// applies any value set here on top of the environment-seeded
  /// defaults (LLIO_TRACE / LLIO_TRACE_FILE / LLIO_METRICS).  Unset =
  /// leave the global setting alone.  When tracing sits at Full or
  /// metrics are on, the backend is wrapped in a pfs::TracedFile so
  /// individual file accesses are recorded.
  std::optional<obs::TraceLevel> trace = std::nullopt;
  std::optional<std::string> trace_file = std::nullopt;
  std::optional<bool> metrics = std::nullopt;

  /// Job-level observability report (hint llio_report): File::close()
  /// aggregates every rank's phase decomposition, counters, and
  /// histograms into an obs::JobReport, and rank 0 writes its JSON
  /// (schema llio_report/v1) to this path.  Empty = close() still
  /// aggregates and returns the report, but writes nothing.
  std::string report_path = {};

  /// Always-on sampling ring (hints llio_obs_sample / llio_obs_ring).
  /// Process-global like the tracer knobs; File::open applies any value
  /// set here on top of the environment-seeded defaults (LLIO_OBS_SAMPLE
  /// / LLIO_OBS_RING).  Unset / 0 = leave the global setting alone.
  std::optional<bool> obs_sample = std::nullopt;
  int obs_ring = 0;
};

const char* method_name(Method m) noexcept;
const char* merge_contig_name(MergeContig m) noexcept;
const char* zerocopy_name(Zerocopy z) noexcept;

}  // namespace llio::mpiio
