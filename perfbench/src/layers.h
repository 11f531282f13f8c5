// In-process layer probes of the traced run: the benchmark's own timers
// around the public calls into each layer (net codec, Scheduler,
// InferenceEngine, GraphExecutor, Doinn stages, LargeTilePredictor, FFT,
// GEMM, thread pool), plus the self-checks that tie those timings and
// outputs together. Nothing here instruments src/.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "tensor/tensor.h"

namespace perfbench {

/// Collected self-check failures; the run fails if any is recorded.
struct SelfCheck {
  std::vector<std::string> failures;
  void expect(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

/// Masks with their reference CONTOUR payloads (fp32 model).
struct ReferenceSet {
  std::vector<litho::Tensor> tiles;  ///< 128 x 128
  std::vector<std::vector<uint8_t>> tile_expected;
  litho::Tensor large;               ///< 512 x 512
  std::vector<uint8_t> large_expected;
};

/// Warm single-call costs of the engine configuration a server runs with,
/// used to turn scheduler latencies into queue waits.
struct ServiceTimes {
  double batch1_ms = 0.0;
  double batch4_ms = 0.0;
  double large_ms = 0.0;
  /// Warm predict_batch time at (fractional) batch size @p b, linear in b
  /// through the measured batch-1 and batch-4 points.
  double batch_ms(double b) const {
    return batch1_ms + (batch4_ms - batch1_ms) * (b - 1.0) / 3.0;
  }
};

/// Runs every in-process probe on @p checkpoint. @p server_threads is the
/// per-engine thread count of the workload's server; its service times are
/// returned for the queue-wait computation. Appends engine.*, exec.*,
/// doinn.*, large.*, fft.*, gemm.*, threads.* and net.encode/decode
/// metrics to @p out.
ServiceTimes probe_layers(const std::string& checkpoint,
                          const ReferenceSet& refs, int nproc,
                          int server_threads, MetricList& out,
                          SelfCheck& check, std::vector<std::string>& notes);

/// Closed-loop clients through an in-process runtime::Scheduler (the
/// server's default options) over its own engine with default kernel
/// knobs: the socket-free counterpart of doinn_serve --weights
/// --no-autotune.
class InprocessScheduler {
 public:
  InprocessScheduler(const std::string& checkpoint, const ReferenceSet& refs,
                     int threads);
  ~InprocessScheduler();
  InprocessScheduler(const InprocessScheduler&) = delete;
  InprocessScheduler& operator=(const InprocessScheduler&) = delete;

  /// @p clients threads each submit a tile, wait for its contour and
  /// repeat for @p seconds (0: one request each). Appends submit-to-contour
  /// latencies in ms to @p lat_ms; every contour is checked against its
  /// reference.
  void run(int clients, double seconds, uint64_t seed,
           std::vector<double>& lat_ms, SelfCheck& check);

  /// Appends @p reps warm batch-1 predict_batch times and bare executor
  /// replay times of the same shape on the same engine, interleaved.
  void time_batch1(int reps, std::vector<double>& predict_ms,
                   std::vector<double>& replay_ms);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace perfbench
