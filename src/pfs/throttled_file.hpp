// Storage cost model: wraps a backend with configurable per-operation
// latency and sustained bandwidth.
//
// The paper (§4.2, §5) discusses how the relative speed of the file system
// versus the memory system determines how visible the listless-I/O gain
// is: on a slow file system, storage time hides the datatype-handling
// overhead.  ThrottledFile lets the benches demonstrate exactly that
// ablation on commodity hardware by burning wall-clock time proportional
// to the simulated transfer.
#pragma once

#include <mutex>

#include "pfs/file_backend.hpp"

namespace llio::pfs {

struct ThrottleConfig {
  double read_bandwidth_bps = 8.0e9;   ///< paper's SX FS: ~8 GB/s read
  double write_bandwidth_bps = 6.5e9;  ///< ~6.5 GB/s write
  double op_latency_s = 0.0;           ///< fixed per-access latency

  /// Model a single device channel: concurrent accesses serialize, so the
  /// configured bandwidth caps the *total* throughput (needed for striping
  /// studies).  Off by default: the delay is charged per caller, modeling
  /// a storage system with ample internal parallelism.
  bool exclusive_device = false;
};

class ThrottledFile final : public FileBackend {
 public:
  static std::shared_ptr<ThrottledFile> wrap(FilePtr inner,
                                             const ThrottleConfig& cfg);

  Off size() const override { return inner_->size(); }
  void resize(Off new_size) override { inner_->resize(new_size); }
  void sync() override { inner_->sync(); }
  void set_iov_batch_max(Off n) override {
    FileBackend::set_iov_batch_max(n);
    inner_->set_iov_batch_max(n);
  }
  std::optional<AsyncInfo> async_info() const override {
    return inner_->async_info();
  }

  /// Total wall time injected by the throttle so far (seconds).
  double simulated_time() const;

 protected:
  Off do_pread(Off offset, ByteSpan out) override;
  void do_pwrite(Off offset, ConstByteSpan data) override;
  Off do_preadv(std::span<const IoVec> iov) override;
  void do_pwritev(std::span<const ConstIoVec> iov) override;

 private:
  ThrottledFile(FilePtr inner, const ThrottleConfig& cfg);

  void delay(double seconds);

  FilePtr inner_;
  const ThrottleConfig cfg_;
  mutable std::mutex mu_;  ///< guards simulated_time_
  std::mutex device_mu_;  ///< held across the delay in exclusive mode
  double simulated_time_ = 0.0;
};

}  // namespace llio::pfs
