// Workload table and seeded request mix: which masks each workload sends,
// to which model, in what proportions, and the reference reply every one
// of them must come back as.
#pragma once

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace perfbench {

struct Workload {
  std::string name;
  int connections = 1;
  /// false: closed loop (each connection waits for its reply before the
  /// next send). true: Poisson arrivals at rate_per_s, pipelined.
  bool open_loop = false;
  double rate_per_s = 0.0;
  /// Percentile reported as latency_tail_ms; fixed per workload so that it
  /// keeps at least 10 samples beyond it at this host's throughput.
  double tail_q = 0.99;
  /// Serve a --models registry (fp32 x2 + int8 x1) instead of --weights.
  bool multi_model = false;
  /// Server lifetimes per end-to-end run. Each is a set-up sample and
  /// serves the cold set and an equal share of the timed window; the run
  /// pools them, which averages what a fresh server draws at start-up
  /// (load-time autotune picks, allocator state) instead of letting one
  /// draw decide the run.
  int lifetimes = 8;
};

/// The workload named @p name; throws std::invalid_argument if unknown.
const Workload& find_workload(const std::string& name);

/// One distinct request: a wire-exact mask routed to a model, plus the
/// reply the in-process reference engine says it must produce.
struct Entry {
  litho::Tensor mask;          ///< already 8-bit quantized like the wire
  std::string model;           ///< "" = default model (v1 frame)
  std::string shape;           ///< "HxW"
  int64_t pixels = 0;
  std::vector<uint8_t> frame;  ///< PREDICT frame with request id 0
  double weight = 0.0;         ///< selection weight in the mix
  bool expect_error = false;   ///< the reference engine rejects this mask
  std::vector<uint8_t> expected;  ///< CONTOUR payload the reference produced
};

struct Traffic {
  std::vector<Entry> entries;
  /// Distinct shapes, in the order each connection's cold set sends them.
  std::vector<std::string> shapes;
  /// Distinct models ("" for a single-model server), in registry order.
  std::vector<std::string> models;

  /// Weighted random entry.
  int pick(std::mt19937_64& rng) const;
  /// Uniformly random entry among those of @p shape routed to @p model.
  int pick_shape(const std::string& shape, const std::string& model,
                 std::mt19937_64& rng) const;
};

/// Writes a seeded DoinnConfig::small() (128 px tile) checkpoint with
/// core::save_doinn.
void write_checkpoint(const std::string& path, uint64_t seed);

/// Rasterizes the workload's mask pool from the paper's via and metal layer
/// generators (16 nm pixels) and encodes one PREDICT frame per entry.
Traffic build_traffic(const Workload& w, uint64_t seed);

/// Runs every entry through an in-process InferenceEngine on @p checkpoint
/// at the entry's model precision and stores the expected CONTOUR payload
/// (or the reference's error). Server flags that change kernels but not
/// bits (thread count, autotune) are irrelevant here by the engine's
/// determinism contract.
void compute_references(Traffic& t, const std::string& checkpoint,
                        int threads);

/// Wire round trip (encode_image + decode_image) of a [0,1] raster.
litho::Tensor quantize(const litho::Tensor& raster);

/// Draws one mask of @p layer ("via"/"metal") cropped to h x w.
litho::Tensor draw_mask(const std::string& layer, int64_t h, int64_t w,
                        std::mt19937& rng);

}  // namespace perfbench
