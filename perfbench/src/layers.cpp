#include "layers.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <mutex>
#include <random>
#include <set>
#include <thread>
#include <tuple>

#include "autograd/grad_mode.h"
#include "core/large_tile.h"
#include "fft/fft.h"
#include "net/protocol.h"
#include "runtime/engine.h"
#include "runtime/graph_exec.h"
#include "runtime/metrics_registry.h"
#include "runtime/scheduler.h"
#include "tensor/gemm.h"

namespace perfbench {

namespace ag = litho::ag;
namespace rt = litho::runtime;
using litho::Tensor;

namespace {

constexpr int kReps = 15;
// The self-checks below compare timings of separate calls. They compare
// each series' minimum, the call's cost with no interference: a host that
// stalls the process for a few calls raises medians but cannot lower a
// minimum, so only a timer that misses or double-counts work can break
// them. The reported metrics stay medians.
//
// The op-walk stage timings must add up to the timed forward within this
// share.
constexpr double kStageTolerance = 0.15;
// Stitched GP + LP/IR against the engine's predict_large.
constexpr double kLargeTolerance = 0.20;
// A replay is part of predict_batch; slack for two separate minima.
constexpr double kNestSlack = 0.10;

std::vector<uint8_t> payload(const Tensor& contour) {
  std::vector<uint8_t> out;
  litho::net::encode_image(contour, out);
  return out;
}

/// The engine's output binarization (runtime/engine.cpp): tanh >= 0 prints.
Tensor binarize(Tensor t) {
  t.apply_([](float v) { return v >= 0.f ? 1.f : 0.f; });
  return t;
}

Tensor stack(const std::vector<Tensor>& masks) {
  const int64_t n = static_cast<int64_t>(masks.size());
  const int64_t h = masks[0].size(0), w = masks[0].size(1);
  Tensor x({n, 1, h, w});
  for (int64_t i = 0; i < n; ++i) {
    std::copy(masks[static_cast<size_t>(i)].data(),
              masks[static_cast<size_t>(i)].data() + h * w,
              x.data() + i * h * w);
  }
  return x;
}

/// Sample @p i of an [N,1,H,W] (or [N,H,W]) float buffer as a binarized
/// [H,W] contour.
Tensor sample_contour(const float* data, int64_t i, int64_t h, int64_t w) {
  Tensor c({h, w});
  std::copy(data + i * h * w, data + (i + 1) * h * w, c.data());
  return binarize(std::move(c));
}

/// Warm single-call costs of @p eng (first calls, which may build plans,
/// are made before timing). Checks the contours against the references.
ServiceTimes service_times(rt::InferenceEngine& eng, const ReferenceSet& refs,
                           int large_reps, SelfCheck& check,
                           const std::string& label) {
  ServiceTimes s;
  const std::vector<Tensor> b1(refs.tiles.begin(), refs.tiles.begin() + 1);
  const std::vector<Tensor> b4(refs.tiles.begin(), refs.tiles.begin() + 4);
  check.expect(payload(eng.predict_batch(b1)[0]) == refs.tile_expected[0],
               label + ": batch-1 contour differs from the reference");
  const std::vector<Tensor> c4 = eng.predict_batch(b4);
  for (size_t i = 0; i < 4; ++i) {
    check.expect(payload(c4[i]) == refs.tile_expected[i],
                 label + ": batch-4 contour differs from the reference");
  }
  check.expect(payload(eng.predict_large(refs.large)) == refs.large_expected,
               label + ": large-tile contour differs from the reference");
  s.batch1_ms = median_ms(kReps, [&] { eng.predict_batch(b1); });
  s.batch4_ms = median_ms(kReps, [&] { eng.predict_batch(b4); });
  s.large_ms = median_ms(large_reps, [&] { eng.predict_large(refs.large); });
  return s;
}

/// A compiled forward over @p x plus one reusable context.
struct Compiled {
  std::shared_ptr<ag::CapturedGraph> graph;
  std::unique_ptr<rt::GraphExecutor> exec;
};

Compiled compile(const std::function<ag::Variable(const ag::Variable&)>& fwd,
                 const Tensor& x, rt::ThreadPool& pool, bool autotune = true) {
  rt::ScopedPool scope(&pool);
  Compiled c;
  c.graph = rt::capture_graph(x, fwd);
  rt::ExecutorOptions eo;
  eo.autotune = autotune;
  c.exec = std::make_unique<rt::GraphExecutor>(c.graph, eo);
  return c;
}

/// One compiled forward replayed on a fixed input through one context.
class Replayer {
 public:
  Replayer(const std::function<ag::Variable(const ag::Variable&)>& fwd,
           Tensor x, rt::ThreadPool& pool, bool autotune = true)
      : c_(compile(fwd, x, pool, autotune)), x_(std::move(x)), pool_(pool),
        ctx_(c_.exec->acquire()) {}
  ~Replayer() { c_.exec->release(std::move(ctx_)); }
  Replayer(const Replayer&) = delete;
  Replayer& operator=(const Replayer&) = delete;

  /// Wall time of one replay (the input copy is not timed).
  double run_ms() {
    rt::ScopedPool scope(&pool_);
    // The planner may reuse the input's arena range for intermediates, so
    // every replay gets a fresh copy of the input.
    std::copy(x_.data(), x_.data() + x_.numel(), ctx_->input(0));
    const auto t0 = Clock::now();
    c_.exec->run(*ctx_);
    return ms_between(t0, Clock::now());
  }
  /// Binarized contour of sample @p i of the last replay.
  Tensor contour(int64_t i) const {
    return sample_contour(ctx_->output(0), i, x_.size(2), x_.size(3));
  }
  const ag::CapturedGraph& graph() const { return *c_.graph; }

 private:
  Compiled c_;
  Tensor x_;
  rt::ThreadPool& pool_;
  std::unique_ptr<rt::ExecContext> ctx_;
};

void probe_net_codec(const ReferenceSet& refs, MetricList& out,
                     SelfCheck& check) {
  std::vector<double> enc_us, dec_us;
  for (int r = 0; r < kReps; ++r) {
    for (const Tensor& tile : refs.tiles) {
      auto t0 = Clock::now();
      const std::vector<uint8_t> frame = litho::net::make_predict_frame(1, tile);
      enc_us.push_back(ms_between(t0, Clock::now()) * 1e3);
      litho::net::FrameHeader h;
      std::string model;
      Tensor mask;
      const bool header_ok = litho::net::decode_header(frame.data(), h);
      t0 = Clock::now();
      const bool ok = header_ok && litho::net::decode_predict_payload(
                                       h.version, frame.data() + litho::net::kHeaderBytes,
                                       frame.size() - litho::net::kHeaderBytes,
                                       model, mask);
      dec_us.push_back(ms_between(t0, Clock::now()) * 1e3);
      check.expect(ok && mask.same_shape(tile) &&
                       std::memcmp(mask.data(), tile.data(),
                                   sizeof(float) * static_cast<size_t>(tile.numel())) == 0,
                   "net: PREDICT frame does not round-trip its mask");
    }
  }
  out.add("net.encode_us", median(enc_us), "us");
  out.add("net.decode_us", median(dec_us), "us");
}

void probe_fft(const litho::core::DoinnConfig& cfg, rt::ThreadPool& pool,
               MetricList& out) {
  const int64_t g = cfg.gp_grid(), sw = cfg.gp_spec_w(), c = cfg.gp_channels;
  std::mt19937 rng(7);
  const Tensor src = Tensor::rand({1, g, g}, rng);
  Tensor re({c, g, sw}), im({c, g, sw}), dst({c, g, g});
  const Tensor spec_re = Tensor::rand({c, g, sw}, rng);
  const Tensor spec_im = Tensor::rand({c, g, sw}, rng);
  constexpr int kInner = 200;  // one call is a few microseconds
  rt::ScopedPool scope(&pool);
  // GP forward: rfft2 of the pooled single-channel mask, irfft2 of the
  // gp_channels mixed spectra.
  out.add("fft.rfft2_us",
          median_ms(kReps,
                    [&] {
                      for (int i = 0; i < kInner; ++i) {
                        litho::fft::rfft2_into(src.data(), re.data(), im.data(),
                                               1, g, g);
                      }
                    }) *
              1e3 / kInner,
          "us");
  out.add("fft.irfft2_us",
          median_ms(kReps,
                    [&] {
                      for (int i = 0; i < kInner; ++i) {
                        litho::fft::irfft2_into(spec_re.data(), spec_im.data(),
                                                dst.data(), c, g, g);
                      }
                    }) *
              1e3 / kInner,
          "us");
}

void probe_gemm(const ag::CapturedGraph& graph, rt::ThreadPool& pool,
                MetricList& out, std::vector<std::string>& notes) {
  std::set<std::tuple<int64_t, int64_t, int64_t>> shapes;
  for (const ag::CaptureNode& n : graph.nodes) {
    if (n.conv.valid) shapes.insert({n.conv.m, n.conv.k, n.conv.l});
  }
  std::vector<std::tuple<int64_t, int64_t, int64_t>> ranked(shapes.begin(),
                                                            shapes.end());
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    return std::get<0>(a) * std::get<1>(a) * std::get<2>(a) >
           std::get<0>(b) * std::get<1>(b) * std::get<2>(b);
  });
  std::mt19937 rng(11);
  rt::ScopedPool scope(&pool);
  for (size_t i = 0; i < 3; ++i) {
    const std::string name = "gemm.top" + std::to_string(i + 1) + ".gflops";
    if (i >= ranked.size()) {
      out.add(name, 0.0, "GFLOP/s");
      continue;
    }
    const auto [m, k, l] = ranked[i];
    const Tensor a = Tensor::rand({m, k}, rng);
    const Tensor b = Tensor::rand({k, l}, rng);
    Tensor c({m, l});
    const double once =
        median_ms(3, [&] { litho::gemm(a.data(), b.data(), c.data(), m, k, l); });
    const int inner = std::max(1, static_cast<int>(2.0 / std::max(once, 1e-3)));
    const double ms = median_ms(kReps, [&] {
                        for (int r = 0; r < inner; ++r) {
                          litho::gemm(a.data(), b.data(), c.data(), m, k, l);
                        }
                      }) /
                      inner;
    const double flops = 2.0 * static_cast<double>(m * k * l);
    out.add(name, flops / (ms * 1e-3) / 1e9, "GFLOP/s");
    notes.push_back("gemm.top" + std::to_string(i + 1) + ": m=" +
                    std::to_string(m) + " k=" + std::to_string(k) +
                    " l=" + std::to_string(l) + " flops=" + fmt_double(flops) +
                    " bytes=" + std::to_string(4 * (m * k + k * l + m * l)) +
                    " (bytes computed from tensor sizes, not measured)");
  }
}

}  // namespace

ServiceTimes probe_layers(const std::string& checkpoint,
                          const ReferenceSet& refs, int nproc,
                          int server_threads, MetricList& out,
                          SelfCheck& check, std::vector<std::string>& notes) {
  probe_net_codec(refs, out, check);

  // -- runtime.engine: load, first-use plan build, warm batches ------------
  rt::EngineOptions opts;
  opts.num_threads = nproc;
  auto t0 = Clock::now();
  rt::InferenceEngine eng(checkpoint, opts);
  out.add("engine.setup_ms", ms_between(t0, Clock::now()), "ms");
  const std::vector<Tensor> b1(refs.tiles.begin(), refs.tiles.begin() + 1);
  const std::vector<Tensor> b4(refs.tiles.begin(), refs.tiles.begin() + 4);
  check.expect(payload(eng.predict_batch(b1)[0]) == refs.tile_expected[0],
               "engine: batch-1 contour differs from the reference");
  t0 = Clock::now();
  const std::vector<Tensor> first4 = eng.predict_batch(b4);  // builds its plan
  const double first_b4_ms = ms_between(t0, Clock::now());
  for (size_t i = 0; i < 4; ++i) {
    check.expect(payload(first4[i]) == refs.tile_expected[i],
                 "engine: batch-4 contour differs from the reference");
  }

  // -- runtime.graph_exec: compile a batch size no plan covers yet (what a
  // cold request pays) ------------------------------------------------------
  const std::shared_ptr<litho::core::Doinn>& model = eng.shared_model();
  const auto forward = [&model](const ag::Variable& v) {
    return model->forward(v);
  };
  {
    const Tensor x2 = stack({refs.tiles[0], refs.tiles[1]});
    std::vector<double> capture;
    std::shared_ptr<ag::CapturedGraph> g;
    for (int r = 0; r < 3; ++r) {
      rt::ScopedPool scope(&eng.pool());
      t0 = Clock::now();
      g = rt::capture_graph(x2, forward);
      capture.push_back(ms_between(t0, Clock::now()));
    }
    rt::ScopedPool scope(&eng.pool());
    rt::ExecutorOptions eo;
    eo.autotune = true;
    t0 = Clock::now();
    rt::GraphExecutor exec(g, eo);
    out.add("exec.capture_ms", median(capture), "ms");
    out.add("exec.build_ms", ms_between(t0, Clock::now()), "ms");
  }

  // Warm predict_batch and bare replays of the same shapes, interleaved so
  // that drift in machine speed hits both alike (the nesting check compares
  // them).
  Replayer r1(forward, stack(b1), eng.pool());
  Replayer r4(forward, stack(b4), eng.pool());
  std::vector<double> pb1, pb4, rp1, rp4;
  for (int r = 0; r < kReps; ++r) {
    pb1.push_back(median_ms(1, [&] { eng.predict_batch(b1); }));
    rp1.push_back(r1.run_ms());
    pb4.push_back(median_ms(1, [&] { eng.predict_batch(b4); }));
    rp4.push_back(r4.run_ms());
  }
  check.expect(payload(r1.contour(0)) == refs.tile_expected[0],
               "exec: batch-1 replay differs from the reference");
  for (int64_t i = 0; i < 4; ++i) {
    check.expect(payload(r4.contour(i)) ==
                     refs.tile_expected[static_cast<size_t>(i)],
                 "exec: batch-4 replay differs from the reference");
  }
  ServiceTimes full;
  full.batch1_ms = median(pb1);
  full.batch4_ms = median(pb4);
  const double replay1 = median(rp1), replay4 = median(rp4);
  out.add("engine.plan_build_ms", first_b4_ms - full.batch4_ms, "ms");
  out.add("engine.predict_batch_ms.b1", full.batch1_ms, "ms");
  out.add("engine.predict_batch_ms.b4", full.batch4_ms, "ms");
  out.add("engine.plans", static_cast<double>(eng.plan_count()), "count");
  out.add("engine.arena_bytes",
          static_cast<double>(
              rt::MetricsRegistry::global().gauge("engine.arena_bytes").value()),
          "bytes");
  out.add("engine.plan_fallbacks", static_cast<double>(eng.plan_fallbacks()),
          "count");
  check.expect(eng.plan_fallbacks() == 0,
               "engine.plan_fallbacks is nonzero on shapes the model serves");
  out.add("exec.replay_ms.b1", replay1, "ms");
  out.add("exec.replay_ms.b4", replay4, "ms");
  out.add("exec.batch_amortization", replay4 / (4.0 * replay1), "ratio");
  // Nesting: a replay is part of predict_batch.
  check.expect(minimum(rp1) <= minimum(pb1) * (1.0 + kNestSlack),
               "nesting: exec replay b1 min " + fmt_double(minimum(rp1)) +
                   " ms exceeds predict_batch b1 min " + fmt_double(minimum(pb1)) +
                   " ms");
  check.expect(minimum(rp4) <= minimum(pb4) * (1.0 + kNestSlack),
               "nesting: exec replay b4 min " + fmt_double(minimum(rp4)) +
                   " ms exceeds predict_batch b4 min " + fmt_double(minimum(pb4)) +
                   " ms");

  // -- core: the dual-band stages on the op walk ----------------------------
  {
    ag::NoGradGuard no_grad;
    rt::ScopedPool scope(&eng.pool());
    const ag::Variable x(stack(b1), false);
    const ag::Variable gpf = model->gp_features(x);
    // Interleaved, so drift in machine speed hits every stage alike.
    std::vector<double> gp_t, lp_t, lp_ir_t, fwd_t;
    for (int r = 0; r < kReps; ++r) {
      gp_t.push_back(median_ms(1, [&] { model->gp_features(x); }));
      lp_t.push_back(median_ms(1, [&] { model->lp_features(x); }));
      lp_ir_t.push_back(median_ms(1, [&] { model->forward_from_gp(gpf, x); }));
      fwd_t.push_back(median_ms(1, [&] { model->forward(x); }));
    }
    const double gp = median(gp_t), lp = median(lp_t), fwd = median(fwd_t);
    // forward_from_gp runs LP then IR; IR is what it adds to LP.
    const double ir = median(lp_ir_t) - lp;
    out.add("doinn.gp_ms", gp, "ms");
    out.add("doinn.lp_ms", lp, "ms");
    out.add("doinn.ir_ms", ir, "ms");
    // min(gp) + min(lp+ir) against min(forward): see kStageTolerance.
    const double stages = minimum(gp_t) + minimum(lp_ir_t), whole = minimum(fwd_t);
    check.expect(std::abs(stages - whole) <= kStageTolerance * whole,
                 "doinn: gp+lp+ir min " + fmt_double(stages) +
                     " ms is not within 15% of the op-walk forward min " +
                     fmt_double(whole) + " ms");
    const Tensor y = model->forward_from_gp(gpf, x).value();
    check.expect(payload(sample_contour(y.data(), 0, 128, 128)) ==
                     refs.tile_expected[0],
                 "doinn: staged op walk differs from the reference");
    notes.push_back("doinn op-walk forward b1: " + fmt_double(fwd) + " ms");
  }

  // -- core.large_tile: stitched GP over executor-replayed clips (as the
  // engine wires it), then the full-tile LP + IR op walk -------------------
  {
    const int64_t tile = model->config().tile;
    Compiled gp_plan = compile(
        [&model](const ag::Variable& v) { return model->gp_features(v); },
        Tensor({1, 1, tile, tile}), eng.pool());
    std::atomic<int64_t> clips{0};
    litho::core::LargeTilePredictor lt(*model);
    lt.set_gp_clip_fn([&](const Tensor& clip) {
      clips.fetch_add(1, std::memory_order_relaxed);
      std::unique_ptr<rt::ExecContext> ctx = gp_plan.exec->acquire();
      std::copy(clip.data(), clip.data() + clip.numel(), ctx->input(0));
      gp_plan.exec->run(*ctx);
      Tensor f(gp_plan.graph->slots[gp_plan.graph->outputs[0]].shape);
      std::copy(ctx->output(0), ctx->output(0) + ctx->output_numel(0),
                f.data());
      gp_plan.exec->release(std::move(ctx));
      return f;
    });
    check.expect(payload(eng.predict_large(refs.large)) == refs.large_expected,
                 "engine: large-tile contour differs from the reference");
    ag::NoGradGuard no_grad;
    rt::ScopedPool scope(&eng.pool());
    const int64_t h = refs.large.size(0), w = refs.large.size(1);
    const ag::Variable x(refs.large.clone().reshape({1, 1, h, w}), false);
    ag::Variable gp;
    constexpr int kLargeReps = 3;
    std::vector<double> whole, stitched, lp_ir;
    for (int r = 0; r < kLargeReps; ++r) {
      whole.push_back(median_ms(1, [&] { eng.predict_large(refs.large); }));
      stitched.push_back(
          median_ms(1, [&] { gp = lt.stitched_gp(refs.large, &eng.pool()); }));
      lp_ir.push_back(median_ms(1, [&] { model->forward_from_gp(gp, x); }));
    }
    full.large_ms = median(whole);
    const double sg = median(stitched), li = median(lp_ir);
    out.add("large.stitched_gp_ms", sg, "ms");
    out.add("large.lp_ir_ms", li, "ms");
    out.add("large.clips", static_cast<double>(clips.load()) / kLargeReps,
            "count");
    const Tensor y = model->forward_from_gp(gp, x).value();
    check.expect(payload(sample_contour(y.data(), 0, h, w)) == refs.large_expected,
                 "large: staged large-tile output differs from the reference");
    const double stages = minimum(stitched) + minimum(lp_ir);
    check.expect(std::abs(stages - minimum(whole)) <=
                     kLargeTolerance * minimum(whole),
                 "large: stitched_gp + lp_ir min " + fmt_double(stages) +
                     " ms is not within 20% of predict_large min " +
                     fmt_double(minimum(whole)) + " ms");
  }

  probe_fft(model->config(), eng.pool(), out);
  probe_gemm(r1.graph(), eng.pool(), out, notes);

  // -- runtime.thread_pool: the same calls on a 1-thread engine ------------
  rt::EngineOptions one = opts;
  one.num_threads = 1;
  rt::InferenceEngine eng1(checkpoint, one);
  const ServiceTimes serial = service_times(eng1, refs, 2, check, "engine@1");
  out.add("threads.scaling_batch", serial.batch4_ms / full.batch4_ms, "ratio");
  out.add("threads.scaling_large", serial.large_ms / full.large_ms, "ratio");

  if (server_threads == nproc) return full;
  if (server_threads == 1) return serial;
  rt::EngineOptions srv = opts;
  srv.num_threads = server_threads;
  rt::InferenceEngine eng_srv(checkpoint, srv);
  return service_times(eng_srv, refs, 2, check, "engine@server");
}

struct InprocessScheduler::Impl {
  const ReferenceSet& refs;
  rt::InferenceEngine engine;
  rt::Scheduler sched;
  Replayer replay1;
  Impl(const std::string& checkpoint, const ReferenceSet& r,
       rt::EngineOptions opts)
      : refs(r),
        engine(checkpoint, opts),
        sched(engine, rt::SchedulerOptions{}),
        replay1([this](const ag::Variable& v) {
                  return engine.shared_model()->forward(v);
                },
                stack({r.tiles[0]}), engine.pool(), opts.autotune) {}
};

InprocessScheduler::InprocessScheduler(const std::string& checkpoint,
                                       const ReferenceSet& refs, int threads) {
  rt::EngineOptions opts;
  opts.num_threads = threads;
  // Default kernel knobs, like the doinn_serve --no-autotune it is compared
  // with: load-time autotune picks differ from process to process, and the
  // comparison is about the layers, not the picks.
  opts.autotune = false;
  impl_ = std::make_unique<Impl>(checkpoint, refs, opts);
}

InprocessScheduler::~InprocessScheduler() { impl_->sched.shutdown(); }

void InprocessScheduler::time_batch1(int reps, std::vector<double>& predict_ms,
                                     std::vector<double>& replay_ms) {
  const std::vector<Tensor> b1(impl_->refs.tiles.begin(),
                               impl_->refs.tiles.begin() + 1);
  for (int r = 0; r < reps; ++r) {
    predict_ms.push_back(median_ms(1, [&] { impl_->engine.predict_batch(b1); }));
    replay_ms.push_back(impl_->replay1.run_ms());
  }
}

void InprocessScheduler::run(int clients, double seconds, uint64_t seed,
                             std::vector<double>& lat_ms, SelfCheck& check) {
  const auto end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(seconds));
  std::mutex mu;
  bool all_match = true;
  const auto client = [&](int id) {
    std::mt19937_64 rng(seed + static_cast<uint64_t>(id));
    std::vector<double> mine;
    bool match = true;
    try {
      do {
        const size_t i = std::uniform_int_distribution<size_t>(
            0, impl_->refs.tiles.size() - 1)(rng);
        const auto t0 = Clock::now();
        const Tensor c = impl_->sched.submit(impl_->refs.tiles[i]).get();
        mine.push_back(ms_between(t0, Clock::now()));
        match = match && payload(c) == impl_->refs.tile_expected[i];
      } while (Clock::now() < end);
    } catch (const std::exception&) {
      match = false;
    }
    std::lock_guard<std::mutex> lock(mu);
    lat_ms.insert(lat_ms.end(), mine.begin(), mine.end());
    all_match = all_match && match;
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) threads.emplace_back(client, c);
  for (std::thread& t : threads) t.join();
  check.expect(all_match,
               "in-process scheduler contour differs from the reference");
}

}  // namespace perfbench
