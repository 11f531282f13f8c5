#include "traffic.h"

#include <algorithm>
#include <map>
#include <stdexcept>

#include "core/doinn.h"
#include "layout/layout.h"
#include "net/protocol.h"
#include "runtime/engine.h"

namespace perfbench {

using litho::Tensor;

namespace {

// Layout raster scale of the repository's datasets (src/core/dataset.cpp).
constexpr double kPixelNm = 16.0;

// Why each workload exists is recorded in BENCHMARK.json and METRICS.md;
// the numbers here are the ones those documents quote.
const std::vector<Workload>& workloads() {
  static const std::vector<Workload> table = [] {
    std::vector<Workload> t(3);
    t[0].name = "tile_closed";
    t[0].connections = 4;
    t[0].tail_q = 0.99;
    t[0].lifetimes = 16;
    t[1].name = "fullchip_large";
    t[1].connections = 2;
    t[1].tail_q = 0.85;
    t[1].lifetimes = 24;
    t[2].name = "mixed_open";
    t[2].connections = 4;
    t[2].open_loop = true;
    t[2].rate_per_s = 50.0;
    t[2].tail_q = 0.95;
    t[2].multi_model = true;
    return t;
  }();
  return table;
}

std::string shape_key(int64_t h, int64_t w) {
  return std::to_string(h) + "x" + std::to_string(w);
}

struct ShapeMix {
  int64_t h, w;
  int count;      // distinct masks of this shape in the pool
  double share;   // share of requests
};

}  // namespace

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return w;
  }
  throw std::invalid_argument("unknown workload " + name);
}

int Traffic::pick(std::mt19937_64& rng) const {
  std::vector<double> weights;
  weights.reserve(entries.size());
  for (const Entry& e : entries) weights.push_back(e.weight);
  std::discrete_distribution<int> d(weights.begin(), weights.end());
  return d(rng);
}

int Traffic::pick_shape(const std::string& shape, const std::string& model,
                        std::mt19937_64& rng) const {
  std::vector<int> idx;
  for (size_t i = 0; i < entries.size(); ++i) {
    if (entries[i].shape == shape && entries[i].model == model) {
      idx.push_back(static_cast<int>(i));
    }
  }
  if (idx.empty()) throw std::logic_error("no entry of shape " + shape);
  return idx[std::uniform_int_distribution<size_t>(0, idx.size() - 1)(rng)];
}

void write_checkpoint(const std::string& path, uint64_t seed) {
  std::mt19937 rng(static_cast<uint32_t>(seed));
  litho::core::Doinn model(litho::core::DoinnConfig::small(), rng);
  litho::core::save_doinn(path, model);
}

Tensor quantize(const Tensor& raster) {
  std::vector<uint8_t> bytes;
  litho::net::encode_image(raster, bytes);
  Tensor out;
  if (!litho::net::decode_image(bytes.data(), bytes.size(), out)) {
    throw std::logic_error("image payload round trip failed");
  }
  return out;
}

Tensor draw_mask(const std::string& layer, int64_t h, int64_t w,
                 std::mt19937& rng) {
  const litho::layout::DesignRules rules{64, 64};
  const int64_t side_nm = std::max(h, w) * static_cast<int64_t>(kPixelNm);
  litho::layout::Clip clip;
  if (layer == "via") {
    litho::layout::ViaLayerGenerator::Params p;
    p.clip_nm = side_nm;
    clip = litho::layout::ViaLayerGenerator(p, rules).generate(rng);
  } else {
    litho::layout::MetalLayerGenerator::Params p;
    p.clip_nm = side_nm;
    clip = litho::layout::MetalLayerGenerator(p, rules).generate(rng);
  }
  const Tensor full = litho::layout::rasterize(clip, kPixelNm);
  // Chip-edge partial clips keep the top-left h x w of a full clip.
  Tensor cropped({h, w});
  for (int64_t r = 0; r < h; ++r) {
    std::copy(full.data() + r * full.size(1), full.data() + r * full.size(1) + w,
              cropped.data() + r * w);
  }
  return quantize(cropped);
}

Traffic build_traffic(const Workload& w, uint64_t seed) {
  const std::vector<ShapeMix> mix =
      w.name == "tile_closed"      ? std::vector<ShapeMix>{{128, 128, 32, 1.0}}
      : w.name == "fullchip_large" ? std::vector<ShapeMix>{{512, 512, 4, 1.0}}
                                   : std::vector<ShapeMix>{{128, 128, 16, 0.75},
                                                           {96, 128, 2, 0.05},
                                                           {128, 96, 2, 0.05},
                                                           {96, 96, 2, 0.05},
                                                           {64, 64, 2, 0.05},
                                                           {256, 256, 2, 0.05}};
  // fp32 has two replicas and int8 one, so a 2:1 split loads them evenly.
  const std::vector<std::pair<std::string, double>> models =
      w.multi_model ? std::vector<std::pair<std::string, double>>{{"fp32", 2.0 / 3},
                                                                  {"int8", 1.0 / 3}}
                    : std::vector<std::pair<std::string, double>>{{"", 1.0}};

  std::mt19937 rng(static_cast<uint32_t>(seed * 0x9E3779B1u + 17u));
  Traffic t;
  for (const auto& m : models) t.models.push_back(m.first);
  for (const ShapeMix& s : mix) {
    t.shapes.push_back(shape_key(s.h, s.w));
    for (int i = 0; i < s.count; ++i) {
      const std::string layer = i % 2 == 0 ? "via" : "metal";
      const Tensor mask = draw_mask(layer, s.h, s.w, rng);
      for (const auto& [model, model_share] : models) {
        Entry e;
        e.mask = mask;
        e.model = model;
        e.shape = shape_key(s.h, s.w);
        e.pixels = s.h * s.w;
        e.weight = s.share / s.count * model_share;
        e.frame = model.empty()
                      ? litho::net::make_predict_frame(0, mask)
                      : litho::net::make_predict_frame(0, mask, model);
        t.entries.push_back(std::move(e));
      }
    }
  }
  return t;
}

void compute_references(Traffic& t, const std::string& checkpoint,
                        int threads) {
  std::map<std::string, std::vector<Entry*>> by_model;
  for (Entry& e : t.entries) by_model[e.model].push_back(&e);
  for (auto& [model, entries] : by_model) {
    litho::runtime::EngineOptions opts;
    opts.num_threads = threads;
    // The reference skips executor compilation: the executor is bitwise
    // identical to the op walk by contract, and the op walk is the
    // independent implementation to compare the server against.
    opts.use_graph_executor = false;
    if (model == "int8") {
      opts.precision = litho::Precision::kInt8;
      opts.int8_policy = litho::runtime::EngineOptions::Int8Policy::kAlways;
    }
    litho::runtime::InferenceEngine engine(checkpoint, opts);
    for (Entry* e : entries) {
      try {
        const Tensor contour = engine.predict(e->mask);
        e->expected.clear();
        litho::net::encode_image(contour, e->expected);
      } catch (const std::exception&) {
        e->expect_error = true;
      }
    }
  }
}

}  // namespace perfbench
