// perfbench_runner — one run of the DOINN serving benchmark.
//
//   perfbench_runner --workload tile_closed|fullchip_large|mixed_open
//                    --seed N --seconds S --trace 0|1
//                    --server path/to/doinn_serve --work scratch/dir
//
// --trace 0 (end to end): spawns doinn_serve --listen once per lifetime
// of the workload (Workload::lifetimes).
// Each spawn's time to its listening line is a set-up sample; each serves
// the cold set (every connection's first request of every mask shape) and
// then an equal share of the timed window, closed- or open-loop per the
// workload; its VmHWM is read before shutdown. The run pools the
// lifetimes.
//
// --trace 1 (layer by layer): one spawn of the workload with the server's
// metrics dump, a wire probe (socket vs in-process Scheduler on the same
// tiles), then in-process probes of every layer (layers.h).
//
// Every reply of every phase is compared byte for byte with an in-process
// reference computed before any timing; a mismatch or a failed self-check
// makes the run incorrect (exit 1). The last stdout line is the result
// JSON: {"correct", "attempted", "failed", "metrics"}.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "layers.h"
#include "loadgen.h"
#include "net/protocol.h"
#include "runtime/engine.h"
#include "server_process.h"
#include "tensor/gemm_kernels.h"
#include "traffic.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

// The open-loop generator counts as behind its schedule when more than 1%
// of the requests leave this much after their due time: a few mean
// inter-arrival gaps, i.e. a backlog the generator could not work off. One
// stall of the generator thread by the host delays only the few requests
// due during it; their latency still counts from the due time, and the
// context line reports the maximum lateness.
constexpr double kMaxLatenessMs = 50.0;
constexpr double kLateShare = 0.01;

struct Args {
  std::string workload, server, work;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = 0;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") { a.seed = std::stoull(v); have_seed = true; }
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = std::stoi(v);
    else if (k == "--server") a.server = v;
    else if (k == "--work") a.work = v;
    else throw std::invalid_argument("unknown flag " + k);
  }
  if (a.workload.empty() || !have_seed || a.seconds <= 0 || a.server.empty() ||
      a.work.empty() || (a.trace != 0 && a.trace != 1)) {
    throw std::invalid_argument(
        "usage: perfbench_runner --workload W --seed N --seconds S --trace 0|1 "
        "--server doinn_serve --work DIR");
  }
  return a;
}

// -- host and configuration --------------------------------------------------

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string gemm_isa() {
  namespace d = litho::detail;
  const std::string fp32 =
      &d::micro_kernels() == &d::avx2_kernels() ? "avx2" : "baseline";
  const std::string int8 = &d::quant_kernels() == &d::avxvnni_quant_kernels()
                               ? "avxvnni"
                           : &d::quant_kernels() == &d::avx2_quant_kernels()
                               ? "avx2"
                               : "baseline";
  return "fp32=" + fp32 + " int8=" + int8;
}

int hardware_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Per-engine thread count of the workload's server: all of nproc for one
/// engine; split across the three replicas of the registry so the engines
/// together stay at or below nproc.
int server_threads(const Workload& w, int nproc) {
  return w.multi_model ? std::max(1, nproc / 3) : nproc;
}

std::vector<std::string> server_flags(const Workload& w, const Args& a,
                                      const std::string& checkpoint,
                                      int nproc) {
  std::vector<std::string> f;
  if (w.multi_model) {
    const std::string registry = a.work + "/models.txt";
    std::ofstream reg(registry);
    reg << "fp32 " << checkpoint << " fp32 2\n"
        << "int8 " << checkpoint << " int8 1\n";
    f = {"--models", registry, "--int8-policy", "always", "--max-batch", "1"};
  } else {
    f = {"--weights", checkpoint};
  }
  f.insert(f.end(), {"--listen", "0", "--threads",
                     std::to_string(server_threads(w, nproc))});
  return f;
}

std::string join(const std::vector<std::string>& v) {
  std::string s;
  for (const std::string& x : v) s += (s.empty() ? "" : " ") + x;
  return s;
}

// -- serving phases -----------------------------------------------------------

struct PhaseCounts {
  int64_t sent = 0, ok = 0, error = 0, busy = 0, lost = 0, mismatch = 0;
  int64_t failed() const { return error + busy + lost + mismatch; }
  void add(const Record& r) {
    ++sent;
    switch (r.outcome) {
      case Outcome::kOk: ++ok; break;
      case Outcome::kError: ++error; break;
      case Outcome::kBusy: ++busy; break;
      case Outcome::kMismatch: ++mismatch; break;
      default: ++lost; break;
    }
  }
  std::string json() const {
    return "{\"sent\": " + std::to_string(sent) + ", \"succeeded\": " +
           std::to_string(ok) + ", \"failed\": " + std::to_string(failed()) +
           ", \"error\": " + std::to_string(error) + ", \"busy\": " +
           std::to_string(busy) + ", \"lost\": " + std::to_string(lost) +
           ", \"mismatch\": " + std::to_string(mismatch) + "}";
  }
};

struct Serving {
  std::vector<double> setup_s;
  std::vector<Record> cold, timed;
  std::vector<std::string> errors;  // distinct ERROR reply texts
  std::vector<double> rss_mb;  // VmHWM per lifetime, read before shutdown
  // Summed timed-window length: first due time to last reply, per lifetime.
  double timed_s = 0.0;
  std::vector<double> lifetime_masks_per_s;
  std::vector<int> exit_codes;
};

/// Spawns the workload's server @p spawns times; every spawn serves the
/// cold set, then a timed window of a.seconds / spawns.
Serving run_serving(const Workload& w, const Traffic& traffic,
                    const Args& a, const std::vector<std::string>& flags,
                    int spawns, std::mt19937_64& rng) {
  Serving s;
  for (int k = 0; k < spawns; ++k) {
    ServerProcess server(a.server, flags, a.work + "/server.log");
    s.setup_s.push_back(server.setup_s());
    LoadGen gen(traffic, server.port(), w.connections);
    // Cold set: every connection sends each shape once, all connections in
    // lock-step. Connection c always names model c mod #models; with two
    // simultaneous requests per model and shape, least-queue-depth routing
    // gives each fp32 replica one, so every replica meets every shape here
    // rather than at a random point of the timed window.
    std::vector<std::vector<int>> cold(static_cast<size_t>(w.connections));
    for (size_t c = 0; c < cold.size(); ++c) {
      const std::string& model = traffic.models[c % traffic.models.size()];
      for (const std::string& shape : traffic.shapes) {
        cold[c].push_back(traffic.pick_shape(shape, model, rng));
      }
    }
    gen.run_steps(cold, 0);
    const double window_s = a.seconds / spawns;
    if (w.open_loop) {
      // A Poisson process conditioned on its count: rate x window arrivals
      // at sorted uniform times, so the offered load is the same on every
      // seed and only the arrival pattern varies.
      const auto n = static_cast<size_t>(std::llround(w.rate_per_s * window_s));
      std::uniform_real_distribution<double> when(0.0, window_s);
      std::vector<std::pair<double, int>> schedule;
      for (size_t i = 0; i < n; ++i) {
        schedule.emplace_back(when(rng), traffic.pick(rng));
      }
      std::sort(schedule.begin(), schedule.end());
      gen.run_open(schedule, 1);
    } else {
      gen.run_closed(window_s, rng, 1);
    }
    s.rss_mb.push_back(server.peak_rss_mb());
    s.exit_codes.push_back(server.shutdown());

    Clock::time_point start = Clock::time_point::max(), end{};
    double ok = 0;
    for (const Record& r : gen.records()) {
      if (r.phase == 1) {
        start = std::min(start, r.due);
        if (r.outcome != Outcome::kLost) end = std::max(end, r.done);
        ok += r.outcome == Outcome::kOk;
      }
      (r.phase == 0 ? s.cold : s.timed).push_back(r);
      if (!r.error.empty() &&
          std::find(s.errors.begin(), s.errors.end(), r.error) == s.errors.end()) {
        s.errors.push_back(r.error);
      }
    }
    if (end > start) {
      const double window = ms_between(start, end) / 1e3;
      s.timed_s += window;
      s.lifetime_masks_per_s.push_back(ok / window);
    }
  }
  return s;
}

PhaseCounts count(const std::vector<Record>& records) {
  PhaseCounts c;
  for (const Record& r : records) c.add(r);
  return c;
}

std::vector<double> ok_latencies(const std::vector<Record>& records) {
  std::vector<double> v;
  for (const Record& r : records) {
    if (r.outcome == Outcome::kOk) v.push_back(ms_between(r.due, r.done));
  }
  return v;
}

// -- server metrics dump ----------------------------------------------------

/// The flat numbers of a MetricsRegistry JSON dump: counters and gauges by
/// name, histogram fields as "<name>/<field>".
std::map<std::string, double> read_metrics_dump(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("server metrics dump missing: " + path);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string s = ss.str();
  std::map<std::string, double> out;
  std::string section, outer;  // histogram name while inside its object
  size_t i = 0;
  while ((i = s.find('"', i)) != std::string::npos) {
    const size_t end = s.find('"', i + 1);
    const std::string key = s.substr(i + 1, end - i - 1);
    size_t j = s.find_first_not_of(" :", end + 1);
    i = end + 1;
    if (j == std::string::npos) break;
    if (s[j] == '{') {
      if (key == "counters" || key == "gauges" || key == "histograms") {
        section = key;
      } else {
        outer = key;
      }
      continue;
    }
    const double v = std::strtod(s.c_str() + j, nullptr);
    if (section == "histograms") {
      out[outer + "/" + key] = v;
    } else {
      out[key] = v;
    }
  }
  return out;
}

struct SchedulerDump {
  double batch_size_mean = 0.0;   // over every dispatch, a large one = 1
  double batched_mean = 0.0;      // over predict_batch dispatches only
  double max_queue_depth = 0.0;
  double latency_p50 = 0.0;       // request-weighted over schedulers
  double latency_p99 = 0.0;       // worst scheduler
  double replica_skew = 1.0;
};

/// Aggregates the per-scheduler metrics ("scheduler." for a single model,
/// "pool.<model>.r<k>." per replica).
SchedulerDump summarize_schedulers(const std::map<std::string, double>& m) {
  const std::string suffix = "batches_dispatched";
  double batches = 0, batched = 0, large = 0, weight = 0;
  SchedulerDump d;
  std::map<std::string, std::vector<double>> per_model;  // submitted per replica
  for (const auto& [name, value] : m) {
    if (name.size() < suffix.size() ||
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
      continue;
    }
    const std::string p = name.substr(0, name.size() - suffix.size());
    const auto get = [&](const std::string& k) {
      const auto it = m.find(p + k);
      return it == m.end() ? 0.0 : it->second;
    };
    batches += value;
    batched += get("batched_requests");
    large += get("large_dispatches");
    d.max_queue_depth = std::max(d.max_queue_depth, get("queue_depth_max"));
    const double n = get("request_latency_ms/count");
    d.latency_p50 += n * get("request_latency_ms/p50");
    weight += n;
    d.latency_p99 = std::max(d.latency_p99, get("request_latency_ms/p99"));
    if (p.rfind("pool.", 0) == 0) {
      const std::string model = p.substr(5, p.find(".r", 5) - 5);
      per_model[model].push_back(get("requests_submitted"));
    }
  }
  if (weight > 0) d.latency_p50 /= weight;
  if (batches + large > 0) d.batch_size_mean = (batched + large) / (batches + large);
  d.batched_mean = batches > 0 ? batched / batches : 1.0;
  // A single-engine server has one "replica", which is as even as it gets.
  double skew = 0.0;
  for (const auto& [model, reqs] : per_model) {
    double total = 0, busiest = 0;
    for (const double r : reqs) {
      total += r;
      busiest = std::max(busiest, r);
    }
    if (total > 0) {
      skew = std::max(skew, busiest / total * static_cast<double>(reqs.size()));
    }
  }
  if (skew > 0) d.replica_skew = skew;
  return d;
}

// -- runs ----------------------------------------------------------------------

struct RunResult {
  MetricList metrics;
  bool correct = true;
  int64_t attempted = 0, failed = 0;
  std::vector<std::string> report;  // "key": value JSON members
};

void account(RunResult& r, const std::vector<Record>& records,
             const std::string& phase) {
  const PhaseCounts c = count(records);
  r.attempted += c.sent;
  r.failed += c.failed();
  if (c.mismatch > 0) r.correct = false;
  r.report.push_back(json_str("phase." + phase) + ": " + c.json());
}

RunResult run_end_to_end(const Workload& w, const Args& a, Traffic& traffic,
                         const std::vector<std::string>& flags) {
  RunResult r;
  std::mt19937_64 rng(a.seed * 0x2545F4914F6CDD1DULL + 1);
  const Serving s = run_serving(w, traffic, a, flags, w.lifetimes, rng);
  account(r, s.cold, "cold");
  account(r, s.timed, "timed");

  const PhaseCounts timed = count(s.timed);
  double pixels = 0.0;
  std::vector<double> lateness;
  for (const Record& rec : s.timed) {
    if (rec.outcome == Outcome::kOk) {
      pixels += static_cast<double>(
          traffic.entries[static_cast<size_t>(rec.entry)].pixels);
    }
    lateness.push_back(ms_between(rec.due, rec.sent));
  }
  const double window_s = std::max(1e-9, s.timed_s);
  const std::vector<double> lat = ok_latencies(s.timed);
  const std::vector<double> cold = ok_latencies(s.cold);

  r.metrics.add("setup_s", median(s.setup_s), "s");
  r.metrics.add("masks_per_s", static_cast<double>(timed.ok) / window_s, "1/s");
  r.metrics.add("mpx_per_s", pixels / window_s / 1e6, "Mpx/s");
  r.metrics.add("latency_p50_ms", median(lat), "ms");
  r.metrics.add("latency_tail_ms", percentile(lat, w.tail_q), "ms");
  r.metrics.add("cold_request_ms", median(cold), "ms");
  r.metrics.add("rss_peak_mb", median(s.rss_mb), "MiB");
  r.metrics.add("ok_share",
                timed.sent > 0 ? static_cast<double>(timed.ok) /
                                     static_cast<double>(timed.sent)
                               : 0.0,
                "ratio");

  std::string setups;
  for (const double v : s.setup_s) setups += (setups.empty() ? "" : ", ") + fmt_double(v);
  r.report.push_back("\"setup_s_samples\": [" + setups + "]");
  std::string per_life;
  for (const double v : s.lifetime_masks_per_s) {
    per_life += (per_life.empty() ? "" : ", ") + fmt_double(v);
  }
  r.report.push_back("\"lifetime_masks_per_s\": [" + per_life + "]");
  std::string codes;
  for (const int c : s.exit_codes) codes += (codes.empty() ? "" : ", ") + std::to_string(c);
  // doinn_serve exits 1 after serving any ERROR reply (the 64 px clips).
  r.report.push_back("\"server_exit_codes\": [" + codes + "]");
  r.report.push_back("\"failed_share\": " +
                     fmt_double(timed.sent > 0 ? static_cast<double>(timed.failed()) /
                                                     static_cast<double>(timed.sent)
                                               : 0.0));
  r.report.push_back("\"window_s\": " + fmt_double(window_s));
  r.report.push_back("\"tail_percentile\": " + fmt_double(w.tail_q * 100));
  const double beyond = static_cast<double>(lat.size()) * (1.0 - w.tail_q);
  r.report.push_back("\"tail_samples_beyond\": " + fmt_double(beyond));
  r.report.push_back("\"latency_samples\": " + std::to_string(lat.size()));
  r.report.push_back("\"cold_samples\": " + std::to_string(cold.size()));
  std::string errors;
  for (const std::string& e : s.errors) errors += (errors.empty() ? "" : ", ") + json_str(e);
  r.report.push_back("\"error_replies\": [" + errors + "]");
  if (w.open_loop) {
    const double max_late = *std::max_element(lateness.begin(), lateness.end());
    const auto late = std::count_if(lateness.begin(), lateness.end(),
                                    [](double v) { return v > kMaxLatenessMs; });
    r.report.push_back("\"generator_lateness_ms\": {\"p50\": " +
                       fmt_double(median(lateness)) + ", \"p99\": " +
                       fmt_double(percentile(lateness, 0.99)) + ", \"max\": " +
                       fmt_double(max_late) + "}");
    r.report.push_back("\"generator_late_requests\": " + std::to_string(late));
    const bool behind = static_cast<double>(late) >
                        kLateShare * static_cast<double>(lateness.size());
    r.report.push_back(std::string("\"generator_on_schedule\": ") +
                       (behind ? "false" : "true"));
    if (behind) {
      r.correct = false;
      std::fprintf(stderr,
                   "perfbench: %lld of %zu open-loop requests left more than "
                   "%.0f ms after their due time; the generator fell behind "
                   "its schedule and the run is invalid\n",
                   static_cast<long long>(late), lateness.size(),
                   kMaxLatenessMs);
    }
  }
  if (beyond < 10.0) {
    std::fprintf(stderr,
                 "perfbench: only %.1f samples beyond p%g; latency_tail_ms is "
                 "under-sampled\n",
                 beyond, w.tail_q * 100);
  }
  return r;
}

/// The 128 px tile set (tile_closed's traffic) and a 512 px window with
/// their fp32 references, for the wire probe and the layer probes.
ReferenceSet reference_set(const Args& a, const Traffic& tiles,
                           const std::string& checkpoint, int nproc) {
  ReferenceSet refs;
  for (const Entry& e : tiles.entries) {
    refs.tiles.push_back(e.mask);
    refs.tile_expected.push_back(e.expected);
  }
  std::mt19937 rng(static_cast<uint32_t>(a.seed) + 99);
  refs.large = draw_mask("via", 512, 512, rng);
  litho::runtime::EngineOptions opts;
  opts.num_threads = nproc;
  opts.use_graph_executor = false;
  litho::runtime::InferenceEngine ref(checkpoint, opts);
  litho::net::encode_image(ref.predict_large(refs.large), refs.large_expected);
  return refs;
}

RunResult run_traced(const Workload& w, const Args& a, Traffic& traffic,
                     const std::vector<std::string>& flags,
                     const std::string& checkpoint, int nproc) {
  RunResult r;
  SelfCheck check;
  std::vector<std::string> notes;
  std::mt19937_64 rng(a.seed * 0x2545F4914F6CDD1DULL + 2);

  // The workload itself, with the server's own counters dumped at exit.
  const std::string dump = a.work + "/server_metrics.json";
  std::vector<std::string> dump_flags = flags;
  dump_flags.insert(dump_flags.end(), {"--metrics-out", dump});
  const Serving s = run_serving(w, traffic, a, dump_flags, 1, rng);
  account(r, s.cold, "cold");
  account(r, s.timed, "timed");
  const std::map<std::string, double> m = read_metrics_dump(dump);
  const SchedulerDump sd = summarize_schedulers(m);
  const auto counter = [&m](const std::string& k) {
    const auto it = m.find(k);
    return it == m.end() ? 0.0 : it->second;
  };
  r.report.push_back("\"server_plan_fallbacks\": " +
                     fmt_double(counter("engine.plan_fallbacks")));

  // The tiles and the 512 px window every in-process probe uses.
  Traffic tiles = w.name == "tile_closed"
                      ? traffic
                      : build_traffic(find_workload("tile_closed"), a.seed);
  if (w.name != "tile_closed") compute_references(tiles, checkpoint, nproc);
  const ReferenceSet refs = reference_set(a, tiles, checkpoint, nproc);

  // The layer probes come first: they hold the process's first engine load
  // and first plan builds, which later engines would find autotuned.
  MetricList layer;
  const ServiceTimes svc = probe_layers(checkpoint, refs, nproc,
                                        server_threads(w, nproc), layer, check,
                                        notes);

  // Wire probe: the same tiles through a single-model server and through an
  // in-process Scheduler, with 4 clients (tile_closed's concurrency) and 1,
  // both with default kernel knobs so that only the layers differ. Socket
  // and in-process rounds alternate so drift in machine speed hits both
  // sides alike.
  std::vector<double> sock4, sock1, inproc4, inproc1, predict1, replay1;
  std::vector<double> sock_all;  // every request the probe server answered
  const std::string probe_dump = a.work + "/probe_metrics.json";
  {
    std::vector<std::string> probe_flags =
        server_flags(find_workload("tile_closed"), a, checkpoint, nproc);
    probe_flags.insert(probe_flags.end(),
                       {"--no-autotune", "--metrics-out", probe_dump});
    ServerProcess server(a.server, probe_flags, a.work + "/server.log");
    LoadGen gen4(tiles, server.port(), 4), gen1(tiles, server.port(), 1);
    gen4.run_steps(std::vector<std::vector<int>>(4, {0}), 0);
    InprocessScheduler inproc(checkpoint, refs, nproc);
    std::vector<double> warm;
    inproc.run(4, 0.0, a.seed, warm, check);  // builds its batch-4 plan
    constexpr int kRounds = 4;
    for (int round = 0; round < kRounds; ++round) {
      gen4.run_closed(0.5, rng, 1);
      inproc.run(4, 0.5, a.seed + 10 * round, inproc4, check);
      gen1.run_closed(0.4, rng, 1);
      inproc.run(1, 0.4, a.seed + 10 * round + 5, inproc1, check);
      inproc.time_batch1(5, predict1, replay1);
    }
    std::vector<Record> records;
    for (const LoadGen* g : {&gen4, &gen1}) {
      for (const Record& rec : g->records()) {
        records.push_back(rec);
        if (rec.outcome == Outcome::kOk) {
          sock_all.push_back(ms_between(rec.due, rec.done));
        }
        if (rec.phase == 1 && rec.outcome == Outcome::kOk) {
          (g == &gen4 ? sock4 : sock1).push_back(ms_between(rec.due, rec.done));
        }
      }
    }
    server.shutdown();
    account(r, records, "wire_probe");
  }
  const double socket_p50_4 = median(sock4), socket_p50_1 = median(sock1);
  const double inproc_p50_4 = median(inproc4), inproc_p50_1 = median(inproc1);
  const double service_ms =
      w.name == "fullchip_large" ? svc.large_ms : svc.batch_ms(sd.batched_mean);

  MetricList& out = r.metrics;
  out.add("net.encode_us", layer.value("net.encode_us"), "us");
  out.add("net.decode_us", layer.value("net.decode_us"), "us");
  out.add("net.wire_overhead_ms", socket_p50_4 - inproc_p50_4, "ms");
  out.add("net.busy_rejected", counter("serve.busy_rejected"), "count");
  out.add("sched.batch_size_mean", sd.batch_size_mean, "count");
  out.add("sched.queue_wait_ms_p50", std::max(0.0, sd.latency_p50 - service_ms), "ms");
  out.add("sched.queue_wait_ms_p99", std::max(0.0, sd.latency_p99 - service_ms), "ms");
  out.add("sched.max_queue_depth", sd.max_queue_depth, "count");
  out.add("pool.replica_skew", sd.replica_skew, "ratio");
  for (const Metric& lm : layer.items()) {
    if (lm.name.rfind("net.", 0) != 0) out.add(lm.name, lm.value, lm.unit);
  }

  // Nesting at batch 1 (one client never batches), one configuration:
  // replay <= predict_batch <= in-process scheduler, on each series'
  // minimum with 10% slack (see layers.cpp), and scheduler <= socket on the
  // very same requests: the probe server's own scheduler latencies against
  // the socket latencies of every request it answered. Each request's
  // scheduler time lies inside its socket time, so the nearest-rank p50 of
  // the first cannot exceed that of the second (the dump prints 6
  // significant digits, hence the 1e-5).
  const double rp1 = median(replay1), pb1 = median(predict1);
  check.expect(minimum(replay1) <= minimum(predict1) * 1.10,
               "nesting: exec replay b1 min " + fmt_double(minimum(replay1)) +
                   " ms exceeds predict_batch b1 min " +
                   fmt_double(minimum(predict1)) + " ms");
  check.expect(minimum(predict1) <= minimum(inproc1) * 1.10,
               "nesting: predict_batch b1 min " + fmt_double(minimum(predict1)) +
                   " ms exceeds in-process scheduler min " +
                   fmt_double(minimum(inproc1)) + " ms");
  const std::map<std::string, double> pm = read_metrics_dump(probe_dump);
  const auto probe = [&pm](const std::string& k) {
    const auto it = pm.find(k);
    return it == pm.end() ? -1.0 : it->second;
  };
  const double server_n = probe("scheduler.request_latency_ms/count");
  const double server_p50 = probe("scheduler.request_latency_ms/p50");
  const double socket_all_p50 = percentile(sock_all, 0.5);
  // The server's histogram keeps every sample up to its 4096-sample
  // reservoir; the probe sends far fewer requests.
  check.expect(server_n == static_cast<double>(sock_all.size()) &&
                   server_n <= 4096,
               "nesting: probe server scheduled " + fmt_double(server_n) +
                   " requests, the socket side answered " +
                   std::to_string(sock_all.size()));
  check.expect(server_p50 <= socket_all_p50 * (1.0 + 1e-5),
               "nesting: server scheduler p50 " + fmt_double(server_p50) +
                   " ms exceeds socket p50 " + fmt_double(socket_all_p50) +
                   " ms on the same requests");

  r.report.push_back("\"socket_p50_ms\": {\"clients4\": " + fmt_double(socket_p50_4) +
                     ", \"clients1\": " + fmt_double(socket_p50_1) + "}");
  r.report.push_back("\"inprocess_scheduler_p50_ms\": {\"clients4\": " +
                     fmt_double(inproc_p50_4) + ", \"clients1\": " +
                     fmt_double(inproc_p50_1) + "}");
  r.report.push_back("\"nesting_b1_ms\": {\"replay\": " + fmt_double(rp1) +
                     ", \"predict_batch\": " + fmt_double(pb1) +
                     ", \"scheduler\": " + fmt_double(inproc_p50_1) +
                     ", \"socket\": " + fmt_double(socket_p50_1) + "}");
  r.report.push_back("\"nesting_same_requests_p50_ms\": {\"server_scheduler\": " +
                     fmt_double(server_p50) + ", \"socket\": " +
                     fmt_double(socket_all_p50) + ", \"requests\": " +
                     std::to_string(sock_all.size()) + "}");
  r.report.push_back("\"queue_wait_service_ms\": " + fmt_double(service_ms));
  r.report.push_back("\"scheduler_latency_ms\": {\"p50\": " +
                     fmt_double(sd.latency_p50) + ", \"p99\": " +
                     fmt_double(sd.latency_p99) + "}");
  std::string n;
  for (const std::string& x : notes) n += (n.empty() ? "" : ", ") + json_str(x);
  r.report.push_back("\"notes\": [" + n + "]");
  std::string f;
  for (const std::string& x : check.failures) f += (f.empty() ? "" : ", ") + json_str(x);
  r.report.push_back("\"self_check_failures\": [" + f + "]");
  if (!check.failures.empty()) {
    r.correct = false;
    for (const std::string& x : check.failures) {
      std::fprintf(stderr, "perfbench: self-check failed: %s\n", x.c_str());
    }
  }
  return r;
}

int run(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  const Workload& w = find_workload(a.workload);
  const int nproc = hardware_threads();
  const std::string checkpoint = a.work + "/model.bin";
  write_checkpoint(checkpoint, a.seed);
  Traffic traffic = build_traffic(w, a.seed);
  compute_references(traffic, checkpoint, nproc);
  const std::vector<std::string> flags = server_flags(w, a, checkpoint, nproc);

  RunResult r = a.trace == 0 ? run_end_to_end(w, a, traffic, flags)
                             : run_traced(w, a, traffic, flags, checkpoint, nproc);

  // Human-readable report, then the machine-readable context line.
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n", w.name.c_str(),
              static_cast<unsigned long long>(a.seed), a.seconds, a.trace);
  for (const Metric& m : r.metrics.items()) {
    std::printf("  %-28s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string ctx = "{\"host\": {\"hardware_threads\": " + std::to_string(nproc) +
                    ", \"cpu_model\": " + json_str(cpu_model()) +
                    ", \"gemm_isa\": " + json_str(gemm_isa()) +
                    ", \"compiler\": " + json_str(PERFBENCH_COMPILER) +
                    ", \"build_type\": " + json_str(PERFBENCH_BUILD_TYPE) +
                    "}, \"workload\": " + json_str(w.name) +
                    ", \"seed\": " + std::to_string(a.seed) +
                    ", \"server_flags\": " + json_str(join(flags)) +
                    ", \"connections\": " + std::to_string(w.connections) +
                    ", \"open_loop_rate_per_s\": " + fmt_double(w.rate_per_s);
  for (const std::string& item : r.report) ctx += ", " + item;
  std::printf("%s}\n", ctx.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              r.correct ? "true" : "false",
              static_cast<long long>(r.attempted),
              static_cast<long long>(r.failed), r.metrics.json().c_str());
  std::fflush(stdout);
  return r.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
