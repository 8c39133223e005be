#include "pfs/throttled_file.hpp"

#include <thread>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "obs/trace.hpp"

namespace llio::pfs {

ThrottledFile::ThrottledFile(FilePtr inner, const ThrottleConfig& cfg)
    : inner_(std::move(inner)), cfg_(cfg) {}

std::shared_ptr<ThrottledFile> ThrottledFile::wrap(FilePtr inner,
                                                   const ThrottleConfig& cfg) {
  LLIO_REQUIRE(inner != nullptr, Errc::InvalidArgument,
               "ThrottledFile: null inner backend");
  LLIO_REQUIRE(cfg.read_bandwidth_bps > 0 && cfg.write_bandwidth_bps > 0,
               Errc::InvalidArgument, "ThrottledFile: non-positive bandwidth");
  return std::shared_ptr<ThrottledFile>(
      new ThrottledFile(std::move(inner), cfg));
}

void ThrottledFile::delay(double seconds) {
  {
    std::lock_guard lock(mu_);
    simulated_time_ += seconds;
  }
  if (seconds <= 0) return;
  obs::instant("throttle_delay", obs::TraceLevel::Full,
               {{"delay_us", static_cast<long long>(seconds * 1e6), {},
                 false}});
  std::unique_lock device(device_mu_, std::defer_lock);
  if (cfg_.exclusive_device) device.lock();  // serialize the channel
  // Busy-wait for very short delays (sleep granularity is too coarse),
  // sleep for longer ones.
  if (seconds < 50e-6) {
    WallTimer t;
    while (t.seconds() < seconds) {
    }
  } else {
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  }
}

double ThrottledFile::simulated_time() const {
  std::lock_guard lock(mu_);
  return simulated_time_;
}

Off ThrottledFile::do_pread(Off offset, ByteSpan out) {
  const Off n = inner_->pread(offset, out);
  delay(cfg_.op_latency_s + static_cast<double>(n) / cfg_.read_bandwidth_bps);
  return n;
}

void ThrottledFile::do_pwrite(Off offset, ConstByteSpan data) {
  inner_->pwrite(offset, data);
  delay(cfg_.op_latency_s +
        static_cast<double>(data.size()) / cfg_.write_bandwidth_bps);
}

Off ThrottledFile::do_preadv(std::span<const IoVec> iov) {
  // A batch pays the fixed latency once: that is the whole point of
  // coalescing per-segment accesses.
  const Off n = inner_->preadv(iov);
  delay(cfg_.op_latency_s + static_cast<double>(n) / cfg_.read_bandwidth_bps);
  return n;
}

void ThrottledFile::do_pwritev(std::span<const ConstIoVec> iov) {
  inner_->pwritev(iov);
  Off total = 0;
  for (const ConstIoVec& v : iov) total += to_off(v.buf.size());
  delay(cfg_.op_latency_s +
        static_cast<double>(total) / cfg_.write_bandwidth_bps);
}

}  // namespace llio::pfs
