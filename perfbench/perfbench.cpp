// perfbench: one iteration of one benchmark workload against the dacc
// simulator, printed as a single JSON object on the last line of stdout.
//
// The workloads drive the program only through its public surface
// (rt::Cluster, core::Session/Accelerator, la, mdsim, arm::PoolStats,
// sim::Engine statistics, obs::Registry/obs::Profiler). perfbench/run.py
// repeats iterations for a time budget and reduces them to the benchmark's
// result line; perfbench/selftest.py runs reduced sizes for the output
// checks and the knob-sensitivity test.
//
//   perfbench --workload offload_bulk|control_storm|lease_churn|mp2c_parallel
//             --seed N [--scale F] [--traced]
//             [--batch on|off] [--arm-replicas N] [--transfer adaptive|naive]
//             [--band-gap NS] [--backend coroutine|parallel]
//             [--lease-gap-us US] [--lease-block N]
//             [--lease-priorities normal|mixed]
//             [--expect-qr-ns NS]   (required for offload_bulk)
//
// Two kinds of output. Host figures (setup_s, wall_s, rt.*_s, obs.export_s)
// measure the simulator and carry host noise. Everything else is simulated
// time or a count and repeats exactly for a given seed. Host time is only
// taken around calls that return without yielding to the engine (Cluster
// construction, submit, registry export) or around whole runs: a blocking
// call runs the whole engine before it returns, so a host clock around it
// would measure everything.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "arm/lease_machine.hpp"
#include "core/api.hpp"
#include "core/link.hpp"
#include "la/factorizations.hpp"
#include "la/kernels.hpp"
#include "la/matrix.hpp"
#include "mdsim/mp2c.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "rt/cluster.hpp"
#include "sim/exec.hpp"
#include "util/buffer.hpp"
#include "util/rng.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace dacc::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// --- options -----------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double scale = 1.0;   ///< multiplies each workload's request count
  bool traced = false;  ///< metrics + trace + profiler + bench spans
  // Knobs. Empty / negative = the workload's pinned default.
  std::string batch;
  int arm_replicas = -1;
  std::string transfer;
  long long band_gap = -1;  ///< ns; negative = the cluster default
  std::string backend;
  double lease_gap_us = 240.0;  ///< lease_churn's mean arrival gap
  int lease_block = 20;         ///< lease_churn's stratification block; 0 = run
  /// lease_churn's priority classes: "normal" (one class) or "mixed"
  /// (50 % batch / 35 % normal / 15 % high, which preempts).
  std::string lease_priorities = "normal";
  std::optional<SimDuration> expect_qr_ns;  ///< required for offload_bulk
};

int scaled(int n, double scale, int floor) {
  return std::max(floor, static_cast<int>(std::lround(n * scale)));
}

// --- samples and output ------------------------------------------------------

/// Simulated durations (ns). Quantiles are nearest-rank over the exact
/// samples, so they resolve differences far below any histogram bucket.
struct Samples {
  std::vector<SimDuration> v;
  void add(SimDuration d) { v.push_back(d); }
  void append(const Samples& o) { v.insert(v.end(), o.v.begin(), o.v.end()); }
  std::size_t size() const { return v.size(); }
  double quantile_us(double q) const {
    if (v.empty()) return 0.0;
    std::vector<SimDuration> s = v;
    std::sort(s.begin(), s.end());
    auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(s.size())));
    rank = std::clamp<std::size_t>(rank, 1, s.size());
    return static_cast<double>(s[rank - 1]) / 1e3;
  }
};

/// Bytes and summed simulated duration of the copies the benchmark issues.
struct CopyTally {
  std::uint64_t bytes = 0;
  SimDuration ns = 0;
  std::uint64_t count = 0;
  void add(std::uint64_t b, SimDuration d) {
    bytes += b;
    ns += d;
    ++count;
  }
  void append(const CopyTally& o) {
    bytes += o.bytes;
    ns += o.ns;
    count += o.count;
  }
  double mib_s() const {
    return ns == 0 ? 0.0
                   : static_cast<double>(bytes) / (1024.0 * 1024.0) /
                         (static_cast<double>(ns) / 1e9);
  }
};

/// Per-request-unit accounting. One instance per simulated process that
/// records (ranks under the parallel backend write only their own slot).
struct Tally {
  Samples req;     ///< request-unit latency from its due time
  Samples assign;  ///< ARM assign wait from the request's due time
  std::map<std::string, Samples> op;     ///< core.op_sim_us.<op>
  Samples mdsim_run;
  CopyTally h2d, d2h;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<double> qr_gflops;
  std::vector<SimDuration> qr_factor_ns;
  struct Span {
    const char* name;
    SimTime begin, end;
  };
  std::vector<Span> spans;  ///< traced runs only

  void append(const Tally& o) {
    req.append(o.req);
    assign.append(o.assign);
    for (const auto& [k, s] : o.op) op[k].append(s);
    mdsim_run.append(o.mdsim_run);
    h2d.append(o.h2d);
    d2h.append(o.d2h);
    attempted += o.attempted;
    failed += o.failed;
    qr_gflops.insert(qr_gflops.end(), o.qr_gflops.begin(), o.qr_gflops.end());
    qr_factor_ns.insert(qr_factor_ns.end(), o.qr_factor_ns.begin(),
                        o.qr_factor_ns.end());
    spans.insert(spans.end(), o.spans.begin(), o.spans.end());
  }
};

class Json {
 public:
  void num(const std::string& k, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    field(k, buf);
  }
  void integer(const std::string& k, std::uint64_t v) {
    field(k, std::to_string(v));
  }
  void boolean(const std::string& k, bool v) { field(k, v ? "true" : "false"); }
  void str(const std::string& k, const std::string& v) {
    std::string e = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') {
        e += '\\';
        e += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        e += ' ';
      } else {
        e += c;
      }
    }
    field(k, e + "\"");
  }
  void raw(const std::string& k, const std::string& json) { field(k, json); }
  std::string done() const { return "{" + body_ + "}"; }

 private:
  void field(const std::string& k, const std::string& v) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"" + k + "\":" + v;
  }
  std::string body_;
};

struct Check {
  std::string name;
  bool ok = true;
  std::string detail;
};

/// Everything one iteration reports.
struct Result {
  double setup_s = 0.0;
  double wall_s = 0.0;
  SimTime sim_end = 0;
  Tally t;
  std::vector<Check> checks;
  std::uint64_t input_digest = 0;

  // Layer readouts taken before the cluster is destroyed.
  std::uint64_t events = 0;
  std::uint64_t switches = 0;
  sim::Engine::ParallelStats pstats;
  double shard_busy_s = 0, shard_stall_s = 0, shard_inbox_s = 0;
  double compute_util = 0, copy_util = 0, lease_util = 0;
  arm::PoolStats pool;
  std::uint32_t queued_peak = 0;
  std::uint64_t raft_msgs = 0;
  std::uint64_t fe_flight_events = 0;
  double cluster_ctor_s = 0.0;
  double submit_s = 0.0;
  std::uint64_t jobs = 0;
  std::uint64_t backlog = 0;
  std::uint64_t series = 0;
  double export_s = 0.0;
  std::map<std::string, double> registry_layer;  ///< traced runs only
  std::map<std::string, std::string> env;

  void check(const std::string& name, bool ok, const std::string& detail = "") {
    checks.push_back({name, ok, detail});
  }
};

std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ull;
  }
  return h;
}
constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

// --- seeded inputs -----------------------------------------------------------
//
// Inputs are stratified: n draws split their distribution into n equal
// strata and take one seeded point near the middle of each, then a seeded
// shuffle assigns them to requests. Every seed gives different inputs, but
// the aggregate work of a run barely moves between seeds, so run-to-run
// spread measures the program rather than the dice.

template <typename T>
void shuffle(std::vector<T>& v, util::Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.next_below(i)]);
  }
}

/// n stratified uniform draws in [0, 1): one per stratum, jittered around
/// the stratum's midpoint by a quarter of its width. With `block` > 0 every
/// run of `block` consecutive draws is stratified on its own, so the draws
/// are balanced locally as well as over the whole run.
std::vector<double> stratified(int n, util::Rng& rng, int block = 0) {
  if (block <= 0) block = n;
  std::vector<double> out;
  for (int start = 0; start < n; start += block) {
    const int m = std::min(block, n - start);
    std::vector<double> u(static_cast<std::size_t>(m));
    for (int i = 0; i < m; ++i) {
      u[static_cast<std::size_t>(i)] =
          (i + 0.5 + 0.25 * (rng.next_double() - 0.5)) / m;
    }
    shuffle(u, rng);
    out.insert(out.end(), u.begin(), u.end());
  }
  return out;
}

/// n stratified log-uniform sizes in [lo, hi], 8-byte aligned.
std::vector<std::uint64_t> log_sizes(int n, std::uint64_t lo, std::uint64_t hi,
                                     util::Rng& rng, int block = 0) {
  std::vector<std::uint64_t> out;
  const double llo = std::log2(static_cast<double>(lo));
  const double lhi = std::log2(static_cast<double>(hi));
  for (double u : stratified(n, rng, block)) {
    const auto b = static_cast<std::uint64_t>(std::exp2(llo + u * (lhi - llo)));
    out.push_back(std::clamp<std::uint64_t>(b & ~7ull, lo, hi));
  }
  return out;
}

/// groups x width stratified log-uniform sizes in [lo, hi], laid out so
/// each run of `width` entries holds adjacent strata: copies that run side
/// by side get similar sizes, so how they contend barely depends on the
/// seed. Group order and order within a group are seeded.
std::vector<std::uint64_t> grouped_sizes(int groups, int width,
                                         std::uint64_t lo, std::uint64_t hi,
                                         util::Rng& rng) {
  std::vector<std::uint64_t> all = log_sizes(groups * width, lo, hi, rng);
  std::sort(all.begin(), all.end());
  std::vector<int> order(static_cast<std::size_t>(groups));
  std::iota(order.begin(), order.end(), 0);
  shuffle(order, rng);
  std::vector<std::uint64_t> out;
  for (int g : order) {
    std::vector<std::uint64_t> group(all.begin() + g * width,
                                     all.begin() + (g + 1) * width);
    shuffle(group, rng);
    out.insert(out.end(), group.begin(), group.end());
  }
  return out;
}

/// n stratified integers, each value in [lo, hi] equally often.
std::vector<int> spread_ints(int n, int lo, int hi, util::Rng& rng,
                             int block = 0) {
  std::vector<int> out;
  for (double u : stratified(n, rng, block)) {
    out.push_back(lo + std::min(hi - lo, static_cast<int>(u * (hi - lo + 1))));
  }
  return out;
}

// --- cluster plumbing --------------------------------------------------------

/// Applies the pinned per-workload configuration plus the option knobs,
/// and records the resolved values.
void pin(rt::ClusterConfig& cc, const Options& o, Result& res,
         bool batch_default, sim::ExecBackend backend_default,
         int shards_default) {
  cc.functional_gpus = false;
  cc.batch.enabled = o.batch.empty() ? batch_default : o.batch == "on";
  cc.batch.watermark = 16;
  cc.profile = o.traced;
  // The middleware's causal tracing stays off even in traced runs: its
  // trace context rides every request frame (16 more bytes on the wire), so
  // it changes simulated times, and the traced run must not.
  cc.trace = false;
  cc.metrics = cc.metrics || o.traced;
  cc.sim_backend = backend_default;
  if (o.backend == "coroutine") cc.sim_backend = sim::ExecBackend::kCoroutine;
  if (o.backend == "parallel") cc.sim_backend = sim::ExecBackend::kParallel;
  cc.sim_shards = shards_default;
  if (o.band_gap >= 0) cc.sim_band_gap = static_cast<SimDuration>(o.band_gap);
  if (o.arm_replicas > 0) cc.arm_replicas = o.arm_replicas;
  cc.transfer = o.transfer == "naive"
                    ? proto::TransferConfig::naive()
                    : proto::TransferConfig::pipeline_adaptive();
  res.env["sim_backend"] = sim::to_string(cc.sim_backend);
  res.env["sim_shards"] = std::to_string(cc.sim_shards);
  res.env["sim_parallel_workers_default"] =
      std::to_string(sim::default_parallel_workers());
  res.env["sim_band_gap_ns"] = std::to_string(cc.sim_band_gap);
  res.env["rpc_batch"] = cc.batch.enabled
                             ? "on:" + std::to_string(cc.batch.watermark)
                             : "off";
  res.env["profile"] = cc.profile ? "on" : "off";
  res.env["metrics"] = cc.metrics ? "on" : "off";
  res.env["trace"] = cc.trace ? "on" : "off";
  res.env["arm_replicas"] = std::to_string(cc.arm_replicas);
  res.env["transfer"] = o.transfer == "naive" ? "naive" : "pipeline_adaptive";
  res.env["compiler"] = PERFBENCH_COMPILER;
  res.env["build_type"] = PERFBENCH_BUILD_TYPE;
}

/// Host-timed construction (rt.cluster_ctor_s).
std::unique_ptr<rt::Cluster> build(const rt::ClusterConfig& cc, Result& res) {
  const auto t0 = Clock::now();
  auto c = std::make_unique<rt::Cluster>(cc);
  res.cluster_ctor_s = seconds_between(t0, Clock::now());
  return c;
}

/// Host-timed submit (rt.submit_s, rt.jobs). Valid from process context
/// too: submit schedules and spawns but never yields.
rt::JobHandle timed_submit(rt::Cluster& c, rt::JobSpec spec, int first_cn,
                           Result& res) {
  res.queued_peak = std::max(res.queued_peak, c.arm_stats().queued_requests);
  const auto t0 = Clock::now();
  rt::JobHandle h = c.submit(std::move(spec), first_cn);
  res.submit_s += seconds_between(t0, Clock::now());
  ++res.jobs;
  return h;
}

/// The benchmark's own span around one call into a layer (traced runs).
/// Kept per tally rather than in the cluster's Tracer: the middleware's
/// tracing stays off (see pin()), and under the parallel backend each
/// rank's tally is written by that rank alone.
void span(Tally& t, const Options& o, const char* name, SimTime begin,
          SimTime end) {
  if (o.traced) t.spans.push_back({name, begin, end});
}

/// Runs `fn` as one counted operation; an AcError is a failure.
template <typename F>
bool guarded(Tally& t, F&& fn) {
  ++t.attempted;
  try {
    fn();
    return true;
  } catch (const core::AcError&) {
    ++t.failed;
    return false;
  }
}

/// A synchronous API call timed in simulated time (core.op_sim_us.<op>).
template <typename F>
bool timed_op(const Options& o, sim::Context& ctx, Tally& t, const char* op,
              F&& fn) {
  const SimTime t0 = ctx.now();
  const bool ok = guarded(t, fn);
  const SimTime t1 = ctx.now();
  t.op[op].add(t1 - t0);
  span(t, o, op, t0, t1);
  return ok;
}

/// Runs `fn(hc, a)` for every accelerator index `a` concurrently, one
/// helper process each on the caller's node, and returns when all are done.
/// Helpers issue async ops and wait on them with their own context.
template <typename F>
void on_each(sim::Context& ctx, const std::vector<core::Accelerator*>& accs,
             F fn) {
  int remaining = static_cast<int>(accs.size());
  if (remaining == 0) return;
  sim::Completion done(ctx.engine());
  for (std::size_t a = 0; a < accs.size(); ++a) {
    ctx.engine().spawn("perfbench-helper", [&, a](sim::Context& hc) {
      fn(hc, a);
      if (--remaining == 0) done.complete();
    });
  }
  done.wait(ctx);
}

/// Waits for one async op; counts it and files its simulated duration since
/// `t0` under `op`. Ops on one device complete in issue order, so waiting in
/// that order returns at each op's own completion.
bool await_op(const Options& o, sim::Context& hc, Tally& t, const char* op,
              core::Future& f, SimTime t0) {
  ++t.attempted;
  f.wait(hc);
  const bool ok = f.status() == gpu::Result::kSuccess;
  if (!ok) ++t.failed;
  t.op[op].add(hc.now() - t0);
  span(t, o, op, t0, hc.now());
  return ok;
}

/// Names of the registry series that start with `prefix`, read from the
/// registry's prefix-filtered JSON export (its only listing of series).
std::vector<std::string> series_names(const obs::Registry& reg,
                                      const std::string& prefix) {
  const std::string doc = reg.json(prefix, /*include=*/true);
  const std::string key = "{\"name\":\"";
  std::vector<std::string> out;
  for (std::size_t at = doc.find(key); at != std::string::npos;
       at = doc.find(key, at)) {
    std::string name;
    for (at += key.size(); at < doc.size() && doc[at] != '"'; ++at) {
      if (doc[at] == '\\') ++at;  // names escape only '"' and '\\'
      name += doc[at];
    }
    out.push_back(std::move(name));
  }
  return out;
}

/// One metric family with its label series merged: counters summed,
/// histogram buckets added up.
struct Family {
  std::uint64_t total = 0;
  std::vector<std::uint64_t> bounds;
  std::vector<std::uint64_t> buckets;  ///< non-cumulative, +1 overflow

  /// Quantile q (permille) the way obs::Hist::quantile_permille estimates
  /// it: the bucket holding rank ceil(q * count / 1000), interpolated
  /// linearly in integers; the overflow bucket clamps to the last bound.
  /// Without interpolation it is the bucket's upper bound, which suits
  /// integral observations such as batch sizes.
  double quantile(std::uint64_t q, bool interpolate = true) const {
    const std::uint64_t count =
        std::accumulate(buckets.begin(), buckets.end(), std::uint64_t{0});
    if (count == 0 || bounds.empty()) return 0.0;
    const std::uint64_t rank =
        std::max<std::uint64_t>(1, (count * q + 999) / 1000);
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < bounds.size(); ++i) {
      if (cum + buckets[i] < rank) {
        cum += buckets[i];
        continue;
      }
      if (!interpolate) return static_cast<double>(bounds[i]);
      const std::uint64_t lo = i == 0 ? 0 : bounds[i - 1];
      return static_cast<double>(lo + (bounds[i] - lo) * (rank - cum) /
                                          buckets[i]);
    }
    return static_cast<double>(bounds.back());
  }
};

Family family(const obs::Registry& reg, const std::string& prefix) {
  Family f;
  for (const std::string& name : series_names(reg, prefix)) {
    f.total += reg.counter_value(name);
    const obs::Hist h = reg.hist(name);
    if (!h.valid()) continue;
    if (f.buckets.empty()) {
      f.bounds = h.bounds();
      f.buckets.assign(h.buckets().size(), 0);
    }
    for (std::size_t i = 0; i < f.buckets.size(); ++i) {
      f.buckets[i] += h.buckets()[i];
    }
  }
  return f;
}

/// Per-layer figures read from the metrics registry (traced runs).
std::map<std::string, double> registry_layer(const obs::Registry& reg) {
  auto total = [&reg](const std::string& prefix) {
    return static_cast<double>(family(reg, prefix).total);
  };
  const std::string fe = "{chan=\"fe-";  // front-end channels only
  std::map<std::string, double> m;
  m["net.tx_bytes"] = total("dacc_net_tx_bytes_total");
  m["net.tx_busy_s"] = total("dacc_net_tx_busy_ns_total") / 1e9;
  m["net.tx_queue_delay_p99_us"] =
      family(reg, "dacc_net_tx_queue_delay_ns").quantile(990) / 1e3;
  m["dmpi.msgs"] = total("dacc_dmpi_msgs_total");
  m["dmpi.eager"] = total("dacc_dmpi_eager_total");
  m["dmpi.rendezvous"] = total("dacc_dmpi_rendezvous_total");
  m["daemon.requests"] = total("dacc_daemon_requests_total");
  m["daemon.busy_s"] = total("dacc_daemon_busy_ns_total") / 1e9;
  m["daemon.h2d_overlap_p50_pct"] =
      family(reg, "dacc_daemon_h2d_overlap_pct").quantile(500);
  m["rpc.msgs"] = total("dacc_rpc_msgs_total" + fe);
  m["rpc.ops"] = total("dacc_rpc_ops_total" + fe);
  m["rpc.msgs_per_op"] =
      m["rpc.ops"] > 0 ? m["rpc.msgs"] / m["rpc.ops"] : 0.0;
  m["rpc.batch_size_p50"] = family(reg, "dacc_rpc_batch_size" + fe)
                                .quantile(500, /*interpolate=*/false);
  m["raft.commit_lag_p99_us"] =
      family(reg, "dacc_raft_commit_lag_ns").quantile(990) / 1e3;
  m["raft.elections"] = total("dacc_raft_elections_total");
  return m;
}

void collect(rt::Cluster& c, const Options& o, Result& res) {
  sim::Engine& e = c.engine();
  res.sim_end = e.now();
  res.events = e.events_executed();
  res.switches = e.process_switches();
  res.pstats = e.parallel_stats();
  res.env["sim_workers"] = std::to_string(e.worker_count());
  res.env["sim_shard_count"] = std::to_string(e.shard_count());
  const rt::Cluster::Report rep = c.report();
  for (const auto& row : rep.accelerators) {
    res.compute_util += row.compute_util;
    res.copy_util += row.copy_util;
  }
  if (!rep.accelerators.empty()) {
    res.compute_util /= static_cast<double>(rep.accelerators.size());
    res.copy_util /= static_cast<double>(rep.accelerators.size());
  }
  const std::vector<double> util = c.arm_utilization(e.now());
  if (!util.empty()) {
    res.lease_util = std::accumulate(util.begin(), util.end(), 0.0) /
                     static_cast<double>(util.size());
  }
  res.pool = c.arm_stats();
  for (const auto& ev : c.flight().events()) {
    if (ev.category == "fe") ++res.fe_flight_events;
  }
  if (!o.traced) return;
  obs::Profiler& p = c.profiler();
  auto phase_s = [&p](int shard, sim::WallSink::Phase phase) {
    return static_cast<double>(p.shard_ns(shard, phase)) / 1e9;
  };
  for (int s = 0; s < p.shards(); ++s) {
    res.shard_busy_s += phase_s(s, sim::WallSink::kBusy);
    res.shard_stall_s += phase_s(s, sim::WallSink::kStall);
    res.shard_inbox_s += phase_s(s, sim::WallSink::kInbox);
  }
  if (c.arm_replicated()) {
    for (dmpi::Rank r : c.arm_ranks()) {
      res.raft_msgs += c.metrics().counter_value(
          "dacc_dmpi_msgs_total{rank=\"" + std::to_string(r) + "\"}");
    }
  }
  res.series = c.metrics().size();
  const auto t0 = Clock::now();
  (void)c.metrics().json();
  res.export_s = seconds_between(t0, Clock::now());
  res.registry_layer = registry_layer(c.metrics());
}

// --- offload_bulk ------------------------------------------------------------
//
// 1 CN, 3 ACs with phantom GPUs. Each round is a one-rank job that acquires
// all three GPUs as a gang, issues two seeded H2D-then-D2H copy pairs to
// each GPU (the three GPUs' streams overlap, so H2D runs beside D2H; sizes
// 256 KiB-128 MiB, log-uniform), then factors an N=8064 QR over the three
// remote GPUs. A granted round submits the next
// one, which queues at the ARM behind it. Requests: every copy, due when its
// GPU's in-order stream reaches it (the first one when the copies are
// issued, after the round's allocations), and every QR, due with its round
// at the grant; the assign wait runs from a round's submission to its grant.

Result offload_bulk(const Options& o) {
  Result res;
  const auto t_start = Clock::now();
  const int rounds = scaled(24, o.scale, 2);
  const int n = 8064;
  util::Rng rng(o.seed ^ 0x0ff10adull);
  constexpr int kPairs = 2;  // H2D+D2H pairs per GPU per round
  // One group of six similar sizes per (round, pair): the three GPUs'
  // concurrent H2D copies and the D2H copies that follow them.
  const std::vector<std::uint64_t> sizes =
      grouped_sizes(rounds * kPairs, 6, 256ull << 10, 128ull << 20, rng);
  // Copy i of GPU g in round r: even i are H2D, odd i D2H.
  auto copy_bytes = [&](int r, int g, int i) {
    return sizes[static_cast<std::size_t>((r * kPairs + i / 2) * 6 +
                                          (i % 2) * 3 + g)];
  };
  res.input_digest = kFnvBasis;
  for (std::uint64_t b : sizes) res.input_digest = fnv(res.input_digest, b);

  rt::ClusterConfig cc;
  cc.compute_nodes = 1;
  cc.accelerators = 3;
  cc.registry = la::la_registry();
  pin(cc, o, res, /*batch=*/false, sim::ExecBackend::kCoroutine, 0);
  auto cluster = build(cc, res);
  rt::Cluster& c = *cluster;

  Tally t;
  std::vector<SimTime> due(static_cast<std::size_t>(rounds), 0);
  std::function<void(int)> submit_round = [&](int r) {
    rt::JobSpec spec;
    spec.name = "offload-r" + std::to_string(r);
    spec.transfer = cc.transfer;
    spec.body = [&, r](rt::JobContext& job) {
      sim::Context& ctx = job.ctx();
      arm::ResourceRequest rq;
      rq.count = 3;
      rq.wait = true;
      rq.gang = true;
      std::vector<core::Accelerator*> accs;
      guarded(t, [&] { accs = job.session().acquire(rq); });
      const SimTime grant = ctx.now();
      t.assign.add(grant - due[static_cast<std::size_t>(r)]);
      span(t, o, "acquire", due[static_cast<std::size_t>(r)], grant);
      if (accs.size() != 3) {
        ++t.failed;
        return;
      }
      if (r + 1 < rounds) {
        due[static_cast<std::size_t>(r) + 1] = grant;
        submit_round(r + 1);
      }

      // Per GPU: kPairs x (H2D target, D2H source), in issue order.
      std::vector<gpu::DevPtr> ptrs;
      for (int g = 0; g < 3; ++g) {
        core::Accelerator* ac = accs[static_cast<std::size_t>(g)];
        for (int i = 0; i < 2 * kPairs; ++i) {
          const std::uint64_t bytes = copy_bytes(r, g, i);
          gpu::DevPtr p = 0;
          timed_op(o, ctx, t, "alloc", [&] { p = ac->mem_alloc(bytes); });
          ptrs.push_back(p);
        }
      }
      on_each(ctx, accs, [&](sim::Context& hc, std::size_t g) {
        core::Accelerator& ac = *accs[g];
        std::vector<core::Future> copies;
        for (int i = 0; i < 2 * kPairs; ++i) {
          const gpu::DevPtr p =
              ptrs[g * 2 * kPairs + static_cast<std::size_t>(i)];
          const std::uint64_t bytes = copy_bytes(r, static_cast<int>(g), i);
          copies.push_back(
              i % 2 == 0 ? ac.memcpy_h2d_async(p, util::Buffer::phantom(bytes))
                         : ac.memcpy_d2h_async(p, bytes));
        }
        SimTime prev = hc.now();
        for (int i = 0; i < 2 * kPairs; ++i) {
          const bool h2d = i % 2 == 0;
          const std::uint64_t bytes = copy_bytes(r, static_cast<int>(g), i);
          if (await_op(o, hc, t, h2d ? "h2d" : "d2h",
                       copies[static_cast<std::size_t>(i)], prev)) {
            (h2d ? t.h2d : t.d2h).add(bytes, hc.now() - prev);
          }
          t.req.add(hc.now() - prev);
          prev = hc.now();
        }
      });
      for (int g = 0; g < 3; ++g) {
        core::Accelerator* ac = accs[static_cast<std::size_t>(g)];
        for (int k = 0; k < 2 * kPairs; ++k) {
          const gpu::DevPtr p =
              ptrs[static_cast<std::size_t>(2 * kPairs * g + k)];
          timed_op(o, ctx, t, "free", [&] { ac->mem_free(p); });
        }
      }

      std::vector<std::unique_ptr<core::DeviceLink>> links;
      std::vector<core::DeviceLink*> gpus;
      for (core::Accelerator* ac : accs) {
        links.push_back(std::make_unique<core::RemoteDeviceLink>(*ac, ctx));
        gpus.push_back(links.back().get());
      }
      la::HostMatrix a(n, n, /*functional=*/false);
      la::FactorResult f;
      const bool ok =
          guarded(t, [&] { f = la::dgeqrf_hybrid(ctx, gpus, a, 128); });
      const SimTime tq = ctx.now();
      t.req.add(tq - grant);
      span(t, o, "qr", grant, tq);
      if (ok) {
        t.qr_gflops.push_back(f.gflops);
        t.qr_factor_ns.push_back(f.factor_time);
      }
    };
    timed_submit(c, std::move(spec), 0, res);
  };

  submit_round(0);
  res.setup_s = seconds_between(t_start, Clock::now());
  const auto t0 = Clock::now();
  c.run();
  res.wall_s = seconds_between(t0, Clock::now());
  res.t = t;

  bool qr_ok = static_cast<int>(t.qr_factor_ns.size()) == rounds;
  for (SimDuration f : t.qr_factor_ns) {
    if (f != *o.expect_qr_ns) qr_ok = false;
  }
  res.check("offload.qr_factor_time_matches_fig09", qr_ok,
            t.qr_factor_ns.empty()
                ? "no QR completed"
                : std::to_string(t.qr_factor_ns.front()) + " ns");
  const auto copies = static_cast<std::uint64_t>(rounds) * 3 * kPairs;
  res.check("offload.copies_succeed", t.h2d.count == copies &&
                                          t.d2h.count == copies &&
                                          t.failed == 0);
  collect(c, o, res);
  return res;
}

// --- control_storm -----------------------------------------------------------
//
// 16 CN + 16 AC, command-stream batching pinned on (watermark 16). One job;
// each rank starts at a seeded stagger, acquires one accelerator, then loops:
// sync mem_alloc, small H2D, a burst of async dscal launches waited together,
// small D2H, sync mem_free. Request: one loop iteration. Its ops and bursts
// alone would not do: their latencies take a few discrete values that do
// not depend on the seed; they feed the per-op quantiles instead.

Result control_storm(const Options& o) {
  Result res;
  const auto t_start = Clock::now();
  const int ranks = 16;
  const int iters = scaled(800, o.scale, 4);
  util::Rng rng(o.seed ^ 0xc0de5707ull);
  const std::vector<double> stagger = stratified(ranks, rng);
  const std::vector<std::uint64_t> sizes =
      log_sizes(ranks * iters, 2ull << 10, 8ull << 10, rng);
  const std::vector<int> bursts = spread_ints(ranks * iters, 12, 20, rng);
  res.input_digest = kFnvBasis;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    res.input_digest = fnv(fnv(res.input_digest, sizes[i]),
                           static_cast<std::uint64_t>(bursts[i]));
  }
  for (double u : stagger) {
    res.input_digest =
        fnv(res.input_digest, static_cast<std::uint64_t>(u * 1e9));
  }

  rt::ClusterConfig cc;
  cc.compute_nodes = ranks;
  cc.accelerators = ranks;
  pin(cc, o, res, /*batch=*/true, sim::ExecBackend::kCoroutine, 0);
  auto cluster = build(cc, res);
  rt::Cluster& c = *cluster;

  std::vector<Tally> tallies(static_cast<std::size_t>(ranks));
  std::vector<char> memory_ok(static_cast<std::size_t>(ranks), 0);
  rt::JobSpec spec;
  spec.name = "control-storm";
  spec.transfer = cc.transfer;
  spec.ranks = ranks;
  spec.body = [&](rt::JobContext& job) {
    sim::Context& ctx = job.ctx();
    const int r = job.rank();
    Tally& t = tallies[static_cast<std::size_t>(r)];
    // Ranks join over 8 us, half an ARM service time apart, so their
    // acquisitions queue at the ARM.
    const SimTime due = static_cast<SimTime>(
        8'000.0 * stagger[static_cast<std::size_t>(r)]);
    ctx.wait_until(due);
    arm::ResourceRequest rq;
    rq.count = 1;
    rq.wait = true;
    std::vector<core::Accelerator*> accs;
    guarded(t, [&] { accs = job.session().acquire(rq); });
    t.assign.add(ctx.now() - due);
    span(t, o, "acquire", due, ctx.now());
    if (accs.size() != 1) {
      ++t.failed;
      return;
    }
    core::Accelerator& ac = *accs[0];
    const std::uint64_t free_before = ac.info().memory_free;
    for (int i = 0; i < iters; ++i) {
      const std::size_t k = static_cast<std::size_t>(r * iters + i);
      const std::uint64_t bytes = sizes[k];
      const SimTime ti = ctx.now();
      gpu::DevPtr p = 0;
      if (!timed_op(o, ctx, t, "alloc", [&] { p = ac.mem_alloc(bytes); })) {
        continue;
      }
      SimTime t0 = ctx.now();
      if (timed_op(o, ctx, t, "h2d",
                   [&] { ac.memcpy_h2d(p, util::Buffer::phantom(bytes)); })) {
        t.h2d.add(bytes, ctx.now() - t0);
      }
      const SimTime tb = ctx.now();
      std::vector<core::Future> stream;
      const auto n = static_cast<std::int64_t>(bytes / 8);
      for (int b = 0; b < bursts[k]; ++b) {
        stream.push_back(ac.launch_async("dscal", {}, {n, 1.0 + 0.01 * b, p}));
      }
      for (core::Future& f : stream) await_op(o, ctx, t, "launch", f, tb);
      span(t, o, "burst", tb, ctx.now());
      t0 = ctx.now();
      if (timed_op(o, ctx, t, "d2h", [&] { (void)ac.memcpy_d2h(p, bytes); })) {
        t.d2h.add(bytes, ctx.now() - t0);
      }
      timed_op(o, ctx, t, "free", [&] { ac.mem_free(p); });
      t.req.add(ctx.now() - ti);
    }
    memory_ok[static_cast<std::size_t>(r)] =
        ac.info().memory_free == free_before ? 1 : 0;
  };
  timed_submit(c, std::move(spec), 0, res);
  res.setup_s = seconds_between(t_start, Clock::now());
  const auto t0 = Clock::now();
  c.run();
  res.wall_s = seconds_between(t0, Clock::now());

  for (const Tally& t : tallies) res.t.append(t);
  res.check("control.futures_succeed", res.t.failed == 0,
            std::to_string(res.t.failed) + " failed");
  res.check("control.device_memory_restored",
            std::all_of(memory_ok.begin(), memory_ok.end(),
                        [](char ok) { return ok != 0; }));
  collect(c, o, res);
  return res;
}

// --- lease_churn -------------------------------------------------------------
//
// 16 CN and a pool of 8 ACs behind a 3-replica Raft ARM with EASY backfill
// and metrics on. Open loop: a seeded Poisson stream of one-rank jobs (mean
// gap 240 us), each submitted at its due time. A job makes a typed gang
// request (1-3 GPUs) at normal priority, runs alloc + 128-512 KiB H2D +
// 4-11 launches + D2H + free on each accelerator (the gang's accelerators
// side by side), then releases. Request: job turnaround from its due time.
// The load forms a queue now and then; the backlog when the last job
// arrives is reported (rt.backlog).
//
// --lease-priorities mixed draws each job's class instead (50 % batch /
// 35 % normal / 15 % high), so higher classes preempt lower ones. The
// program currently fails lease.exclusive_holds there: a preempted job
// whose session does not replace revoked leases (the default RetryPolicy)
// keeps running ops on the accelerator the ARM has granted to the
// preemptor. selftest.py holds that case as an expected failure; the timed
// workload uses one class so that its output checks can pass.

struct Hold {
  dmpi::Rank daemon = -1;
  SimTime grant = 0;
  SimTime last_op = 0;  ///< when the job issued its last op (the free) here
  SimTime end = 0;
  bool replaced = false;  ///< lease moved (preemption): end is unknown
  std::uint64_t job = 0;
};

Result lease_churn(const Options& o) {
  Result res;
  const auto t_start = Clock::now();
  const int jobs = scaled(8000, o.scale, 20);
  const double mean_gap_ns = o.lease_gap_us * 1e3;
  util::Rng rng(o.seed ^ 0x1ea5ec4ull);
  // Every input is stratified per block of consecutive jobs (20 unless
  // --lease-block says otherwise), so bursts of arrivals and of large or
  // high-priority jobs stay balanced locally; the queueing tails then
  // depend on the program more than on the seed.
  const int block = o.lease_block;
  std::vector<SimTime> due;
  {
    // Exponential gaps (a Poisson stream), stratified.
    SimTime at = 0;
    for (double u : stratified(jobs, rng, block)) {
      at += static_cast<SimTime>(-mean_gap_ns * std::log1p(-u));
      due.push_back(at);
    }
  }
  const std::vector<int> gang = spread_ints(jobs, 1, 3, rng, block);
  const std::vector<std::uint64_t> chunks =
      log_sizes(jobs, 128ull << 10, 512ull << 10, rng, block);
  const std::vector<int> launches = spread_ints(jobs, 4, 11, rng, block);
  // The class draw is made in both modes, so the other inputs do not
  // depend on --lease-priorities.
  const bool mixed = o.lease_priorities == "mixed";
  std::vector<std::uint32_t> prio;
  for (double u : stratified(jobs, rng, block)) {
    const std::uint32_t drawn = u < 0.50   ? arm::kPriorityBatch
                                : u < 0.85 ? arm::kPriorityNormal
                                           : arm::kPriorityHigh;
    prio.push_back(mixed ? drawn : arm::kPriorityNormal);
  }
  res.input_digest = kFnvBasis;
  for (int i = 0; i < jobs; ++i) {
    const auto k = static_cast<std::size_t>(i);
    res.input_digest = fnv(fnv(fnv(fnv(fnv(res.input_digest, due[k]), gang[k]),
                                   launches[k]), prio[k]), chunks[k]);
  }

  rt::ClusterConfig cc;
  cc.compute_nodes = 16;
  cc.accelerators = 8;
  cc.arm_replicas = 3;
  cc.arm_policy = arm::Arm::QueuePolicy::kBackfill;
  cc.metrics = true;
  pin(cc, o, res, /*batch=*/false, sim::ExecBackend::kCoroutine, 0);
  auto cluster = build(cc, res);
  rt::Cluster& c = *cluster;

  Tally t;
  std::vector<Hold> holds;
  std::vector<char> count_ok(static_cast<std::size_t>(jobs), 0);
  std::vector<rt::JobHandle> handles;
  handles.reserve(static_cast<std::size_t>(jobs));
  auto make_job = [&](int i) {
    const auto k = static_cast<std::size_t>(i);
    rt::JobSpec spec;
    spec.name = "lease-j" + std::to_string(i);
    spec.transfer = cc.transfer;
    spec.priority = prio[k];
    spec.body = [&, k](rt::JobContext& job) {
      sim::Context& ctx = job.ctx();
      const std::uint64_t chunk = chunks[k];
      // run_until() may stop short of the due time when it has nothing to
      // run; the job itself starts exactly on time.
      ctx.wait_until(due[k]);
      arm::ResourceRequest rq;
      rq.count = static_cast<std::uint32_t>(gang[k]);
      rq.wait = true;
      rq.gang = true;
      rq.priority = prio[k];
      std::vector<core::Accelerator*> accs;
      guarded(t, [&] { accs = job.session().acquire(rq); });
      const SimTime grant = ctx.now();
      t.assign.add(grant - due[k]);
      span(t, o, "acquire", due[k], grant);
      count_ok[k] = accs.size() == static_cast<std::size_t>(gang[k]) ? 1 : 0;
      if (count_ok[k] == 0) ++t.failed;
      std::vector<arm::Lease> granted;
      for (core::Accelerator* ac : accs) granted.push_back(ac->lease());
      std::vector<gpu::DevPtr> ptrs;
      for (core::Accelerator* ac : accs) {
        gpu::DevPtr p = 0;
        timed_op(o, ctx, t, "alloc", [&] { p = ac->mem_alloc(chunk); });
        ptrs.push_back(p);
      }
      // The gang's accelerators work side by side.
      on_each(ctx, accs, [&](sim::Context& hc, std::size_t a) {
        core::Accelerator& ac = *accs[a];
        const gpu::DevPtr p = ptrs[a];
        SimTime t0 = hc.now();
        core::Future h = ac.memcpy_h2d_async(p, util::Buffer::phantom(chunk));
        if (await_op(o, hc, t, "h2d", h, t0)) t.h2d.add(chunk, hc.now() - t0);
        t0 = hc.now();
        std::vector<core::Future> stream;
        for (int b = 0; b < launches[k]; ++b) {
          stream.push_back(ac.launch_async(
              "dscal", {}, {static_cast<std::int64_t>(chunk / 8), 0.5, p}));
        }
        for (core::Future& f : stream) await_op(o, hc, t, "launch", f, t0);
        t0 = hc.now();
        core::Future d = ac.memcpy_d2h_async(p, chunk);
        if (await_op(o, hc, t, "d2h", d, t0)) t.d2h.add(chunk, hc.now() - t0);
      });
      std::vector<SimTime> last_op;
      for (std::size_t a = 0; a < accs.size(); ++a) {
        last_op.push_back(ctx.now());
        timed_op(o, ctx, t, "free", [&] { accs[a]->mem_free(ptrs[a]); });
      }
      for (std::size_t a = 0; a < accs.size(); ++a) {
        Hold h;
        h.daemon = granted[a].daemon_rank;
        h.grant = grant;
        h.last_op = last_op[a];
        h.end = ctx.now();
        h.replaced = accs[a]->lease().lease_id != granted[a].lease_id;
        h.job = k;
        holds.push_back(h);
      }
      for (core::Accelerator* ac : accs) job.session().release(ac);
      t.req.add(ctx.now() - due[k]);
      span(t, o, "job", due[k], ctx.now());
    };
    return spec;
  };

  double wall = 0.0;
  for (int i = 0; i < jobs; ++i) {
    const auto k = static_cast<std::size_t>(i);
    if (i == 0) {
      res.setup_s = seconds_between(t_start, Clock::now());
    }
    const auto t0 = Clock::now();
    c.engine().run_until(due[k]);
    wall += seconds_between(t0, Clock::now());
    handles.push_back(timed_submit(c, make_job(i), i % 16, res));
  }
  for (const rt::JobHandle& h : handles) {
    if (!h.done()) ++res.backlog;
  }
  const auto t0 = Clock::now();
  c.run();
  wall += seconds_between(t0, Clock::now());
  // The host loop's submits are part of the timed region.
  res.wall_s = wall + res.submit_s;

  res.t = t;

  // Exclusivity. A hold runs from the job's grant to its release. Two
  // jobs' holds of one accelerator may overlap only through preemption: the
  // ARM revokes the lower-priority lease and grants its slot to the higher
  // one. The victim must then stop using the accelerator: either it noticed
  // the revocation (its lease was replaced, so the hold ends at an
  // unobservable revocation and only its grant is checked), or it had
  // already issued its last op there when the preemptor was granted. Any
  // other overlap is a double grant. Preempted holds cannot outnumber the
  // ARM's preemptions.
  std::sort(holds.begin(), holds.end(), [](const Hold& a, const Hold& b) {
    return a.daemon != b.daemon ? a.daemon < b.daemon : a.grant < b.grant;
  });
  std::vector<char> preempted(holds.size(), 0);
  std::uint64_t overlaps = 0;
  std::string detail;
  for (std::size_t i = 0; i < holds.size(); ++i) {
    if (holds[i].replaced) preempted[i] = 1;
    const SimTime end_i = holds[i].replaced ? holds[i].grant : holds[i].end;
    for (std::size_t j = i + 1; j < holds.size() &&
                                holds[j].daemon == holds[i].daemon &&
                                holds[j].grant < end_i;
         ++j) {
      const std::uint32_t pi = prio[holds[i].job];
      const std::uint32_t pj = prio[holds[j].job];
      const std::size_t low = pi < pj ? i : j;
      const std::size_t high = pi < pj ? j : i;
      if (pi != pj && (holds[low].replaced ||
                       holds[high].grant >= holds[low].last_op)) {
        preempted[low] = 1;
        continue;
      }
      if (overlaps++ == 0) {
        detail = "daemon " + std::to_string(holds[i].daemon) +
                 " held by jobs " + std::to_string(holds[i].job) + " and " +
                 std::to_string(holds[j].job);
      }
    }
  }
  if (overlaps > 0) {
    detail += " (" + std::to_string(overlaps) + " overlapping holds)";
  }
  const auto preempted_holds = static_cast<std::uint64_t>(
      std::count(preempted.begin(), preempted.end(), 1));
  const arm::PoolStats ps = c.arm_stats();
  if (preempted_holds > ps.preemptions) {
    detail += "; " + std::to_string(preempted_holds) + " preempted holds, " +
              std::to_string(ps.preemptions) + " preemptions";
  }
  res.check("lease.exclusive_holds",
            overlaps == 0 && preempted_holds <= ps.preemptions, detail);
  res.check("lease.gang_counts_exact",
            std::all_of(count_ok.begin(), count_ok.end(),
                        [](char ok) { return ok != 0; }));
  res.check("lease.pool_drained", ps.assigned == 0 && ps.queued_requests == 0,
            std::to_string(ps.assigned) + " assigned, " +
                std::to_string(ps.queued_requests) + " queued");
  bool same = true;
  if (c.arm_replicated()) {
    const std::uint64_t fp0 = c.arm_replica(0).machine().fingerprint();
    for (int r = 1; r < c.config().arm_replicas; ++r) {
      if (c.arm_replica(r).machine().fingerprint() != fp0) same = false;
    }
  }
  res.check("lease.replica_fingerprints_equal", same);
  res.check("lease.no_failures", t.failed == 0,
            std::to_string(t.failed) + " failed");
  collect(c, o, res);
  return res;
}

// --- mp2c_parallel -----------------------------------------------------------
//
// 129 fabric nodes (64 CN + 64 AC + ARM) on the parallel backend with 4
// shards (run.py pins one worker thread). Waves of fresh 64-rank MP2C jobs
// (30 SRD steps, 18-22 k particles per rank, seeded per wave) run one after
// another: each wave is submitted after the previous run() returns, so
// assign waits measure the ARM, not waves queued behind each other. Each
// rank joins at a seeded stagger, acquires one accelerator, stages its
// particle block H2D, runs MP2C, and reads the block back. Request: each
// rank's per-wave run.

Result mp2c_parallel(const Options& o) {
  Result res;
  const auto t_start = Clock::now();
  const int ranks = 64;
  const int waves = scaled(20, o.scale, 2);
  const int steps = 30;
  const std::uint64_t bytes_per_particle = 48;  // position + velocity
  util::Rng rng(o.seed ^ 0x3d2cull);
  std::vector<std::uint64_t> per_rank;
  for (double u : stratified(waves, rng)) {
    per_rank.push_back(18'000 + static_cast<std::uint64_t>(4'000.0 * u));
  }
  const std::vector<double> stagger = stratified(waves * ranks, rng);
  res.input_digest = kFnvBasis;
  for (std::uint64_t p : per_rank) res.input_digest = fnv(res.input_digest, p);
  for (double u : stagger) {
    res.input_digest =
        fnv(res.input_digest, static_cast<std::uint64_t>(u * 1e9));
  }

  auto registry = gpu::KernelRegistry::with_builtins();
  mdsim::register_mdsim_kernels(*registry);
  rt::ClusterConfig cc;
  cc.compute_nodes = ranks;
  cc.accelerators = ranks;
  cc.registry = registry;
  pin(cc, o, res, /*batch=*/false, sim::ExecBackend::kParallel, 4);
  auto cluster = build(cc, res);
  rt::Cluster& c = *cluster;

  // One slot per (wave, rank): ranks run on different shards, so each
  // writes only its own.
  std::vector<Tally> slots(static_cast<std::size_t>(waves * ranks));
  for (int w = 0; w < waves; ++w) {
    const SimTime wave_start = c.engine().now();
    const std::uint64_t particles = per_rank[static_cast<std::size_t>(w)];
    rt::JobSpec spec;
    spec.name = "mp2c-w" + std::to_string(w);
    spec.transfer = cc.transfer;
    spec.ranks = ranks;
    spec.body = [&, w, wave_start, particles](rt::JobContext& job) {
      sim::Context& ctx = job.ctx();
      const auto slot = static_cast<std::size_t>(w * ranks + job.rank());
      Tally& t = slots[slot];
      // Ranks join over 64 us, one ARM service time apart.
      const SimTime due =
          wave_start + static_cast<SimTime>(64'000.0 * stagger[slot]);
      ctx.wait_until(due);
      arm::ResourceRequest rq;
      rq.count = 1;
      rq.wait = true;
      std::vector<core::Accelerator*> accs;
      guarded(t, [&] { accs = job.session().acquire(rq); });
      t.assign.add(ctx.now() - due);
      span(t, o, "acquire", due, ctx.now());
      if (accs.size() != 1) {
        ++t.failed;
        return;
      }
      core::Accelerator& ac = *accs[0];
      const std::uint64_t bytes = particles * bytes_per_particle;
      gpu::DevPtr p = 0;
      timed_op(o, ctx, t, "alloc", [&] { p = ac.mem_alloc(bytes); });
      SimTime t0 = ctx.now();
      if (timed_op(o, ctx, t, "h2d",
                   [&] { ac.memcpy_h2d(p, util::Buffer::phantom(bytes)); })) {
        t.h2d.add(bytes, ctx.now() - t0);
      }
      core::RemoteDeviceLink gpu(ac, ctx);
      mdsim::SrdParams srd;
      srd.steps = steps;
      mdsim::Mp2cResult r;
      t0 = ctx.now();
      guarded(t, [&] {
        r = mdsim::run_mp2c(job, &gpu, particles * ranks, srd, {},
                            o.seed ^ static_cast<std::uint64_t>(w));
      });
      t.mdsim_run.add(r.elapsed);
      span(t, o, "mp2c", t0, ctx.now());
      t0 = ctx.now();
      if (timed_op(o, ctx, t, "d2h", [&] { (void)ac.memcpy_d2h(p, bytes); })) {
        t.d2h.add(bytes, ctx.now() - t0);
      }
      timed_op(o, ctx, t, "free", [&] { ac.mem_free(p); });
      t.req.add(ctx.now() - due);
    };
    if (w == 0) {
      timed_submit(c, std::move(spec), 0, res);
      res.setup_s = seconds_between(t_start, Clock::now());
    } else {
      const auto t0 = Clock::now();
      timed_submit(c, std::move(spec), 0, res);
      res.wall_s += seconds_between(t0, Clock::now());
    }
    const auto t0 = Clock::now();
    c.run();
    res.wall_s += seconds_between(t0, Clock::now());
  }
  for (const Tally& t : slots) res.t.append(t);
  res.check("mp2c.runs_succeed",
            res.t.failed == 0 && res.t.mdsim_run.size() ==
                                     static_cast<std::size_t>(waves * ranks),
            std::to_string(res.t.failed) + " failed");
  collect(c, o, res);
  return res;
}

// --- output ------------------------------------------------------------------

std::string samples_json(const Samples& s) {
  Json j;
  j.integer("n", s.size());
  j.num("p50_us", s.quantile_us(0.50));
  j.num("p99_us", s.quantile_us(0.99));
  return j.done();
}

double peak_rss_mib() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

void print(const Options& o, const Result& r) {
  const Tally& t = r.t;
  Json e2e;
  e2e.num("wall_s", r.wall_s);
  e2e.num("setup_s", r.setup_s);
  e2e.num("peak_rss_mib", peak_rss_mib());
  e2e.num("sim_s", static_cast<double>(r.sim_end) / 1e9);
  e2e.num("req_p50_us", t.req.quantile_us(0.50));
  e2e.num("req_p99_us", t.req.quantile_us(0.99));
  e2e.num("h2d_mib_s", t.h2d.mib_s());
  e2e.num("d2h_mib_s", t.d2h.mib_s());
  e2e.num("assign_wait_p50_us", t.assign.quantile_us(0.50));
  e2e.num("assign_wait_p99_us", t.assign.quantile_us(0.99));

  Json counts;
  counts.integer("req", t.req.size());
  counts.integer("assign", t.assign.size());
  counts.integer("h2d", t.h2d.count);
  counts.integer("d2h", t.d2h.count);

  Json ops;
  for (const auto& [name, s] : t.op) ops.raw(name, samples_json(s));

  Json layer;
  layer.integer("sim.events", r.events);
  layer.integer("sim.switches", r.switches);
  layer.num("sim.shard_busy_s", r.shard_busy_s);
  layer.num("sim.shard_stall_s", r.shard_stall_s);
  layer.num("sim.inbox_s", r.shard_inbox_s);
  const double shard_s = r.shard_busy_s + r.shard_stall_s;
  layer.num("sim.stall_ratio", shard_s > 0 ? r.shard_stall_s / shard_s : 0.0);
  layer.integer("sim.windows", r.pstats.windows);
  layer.integer("sim.merged_fallbacks", r.pstats.merged_fallbacks);
  layer.num("gpu.compute_util", r.compute_util);
  layer.num("gpu.copy_util", r.copy_util);
  std::vector<double> gf = t.qr_gflops;
  std::sort(gf.begin(), gf.end());
  layer.num("la.qr_gflops", gf.empty() ? 0.0 : gf[gf.size() / 2]);
  layer.num("mdsim.run_sim_us", t.mdsim_run.quantile_us(0.50));
  layer.integer("arm.grants", r.pool.acquisitions);
  layer.integer("arm.preemptions", r.pool.preemptions);
  layer.integer("arm.queued_peak", r.queued_peak);
  layer.num("arm.lease_util", r.lease_util);
  layer.integer("raft.msgs", r.raft_msgs);
  layer.integer("core.retries", r.fe_flight_events);
  layer.integer("obs.series", r.series);
  layer.num("obs.export_s", r.export_s);
  layer.num("rt.cluster_ctor_s", r.cluster_ctor_s);
  layer.num("rt.submit_s", r.submit_s);
  layer.integer("rt.jobs", r.jobs);
  layer.integer("rt.backlog", r.backlog);
  layer.integer("trace.spans", t.spans.size());
  for (const char* op : {"alloc", "h2d", "d2h", "launch", "free"}) {
    const auto it = t.op.find(op);
    const Samples none;
    const Samples& s = it == t.op.end() ? none : it->second;
    const std::string name = std::string("core.op_sim_us.") + op;
    layer.num(name + ".p50", s.quantile_us(0.50));
    layer.num(name + ".p99", s.quantile_us(0.99));
  }
  layer.integer("samples.req", t.req.size());
  layer.integer("samples.assign", t.assign.size());
  layer.integer("samples.copies", t.h2d.count + t.d2h.count);
  for (const auto& [name, v] : r.registry_layer) layer.num(name, v);

  Json checks;
  bool all_ok = true;
  for (const Check& c : r.checks) {
    Json one;
    one.boolean("ok", c.ok);
    one.str("detail", c.detail);
    checks.raw(c.name, one.done());
    all_ok = all_ok && c.ok;
  }

  Json env;
  for (const auto& [k, v] : r.env) env.str(k, v);

  Json out;
  out.str("workload", o.workload);
  out.integer("seed", o.seed);
  out.boolean("traced", o.traced);
  out.str("input_digest", std::to_string(r.input_digest));
  out.raw("e2e", e2e.done());
  out.raw("counts", counts.done());
  out.raw("ops", ops.done());
  out.raw("layer", layer.done());
  out.raw("checks", checks.done());
  out.boolean("checks_ok", all_ok);
  out.integer("attempted", t.attempted);
  out.integer("failed", t.failed);
  out.raw("env", env.done());
  std::printf("%s\n", out.done().c_str());
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N [--scale F] [--traced]\n"
               "          [--batch on|off] [--arm-replicas N]\n"
               "          [--transfer adaptive|naive] [--band-gap NS]\n"
               "          [--backend coroutine|parallel]\n"
               "          [--lease-gap-us US] [--lease-block N]\n"
               "          [--lease-priorities normal|mixed]\n"
               "          [--expect-qr-ns NS]\n",
               argv0);
  return 2;
}

int run(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
    } else if (a == "--seed") {
      o.seed = std::stoull(value());
    } else if (a == "--scale") {
      o.scale = std::stod(value());
    } else if (a == "--traced") {
      o.traced = true;
    } else if (a == "--batch") {
      o.batch = value();
    } else if (a == "--arm-replicas") {
      o.arm_replicas = std::stoi(value());
    } else if (a == "--transfer") {
      o.transfer = value();
    } else if (a == "--band-gap") {
      o.band_gap = std::stoll(value());
    } else if (a == "--backend") {
      o.backend = value();
    } else if (a == "--lease-gap-us") {
      o.lease_gap_us = std::stod(value());
    } else if (a == "--lease-block") {
      o.lease_block = std::stoi(value());
    } else if (a == "--lease-priorities") {
      o.lease_priorities = value();
      if (o.lease_priorities != "normal" && o.lease_priorities != "mixed") {
        return usage(argv[0]);
      }
    } else if (a == "--expect-qr-ns") {
      o.expect_qr_ns = std::stoull(value());
    } else {
      return usage(argv[0]);
    }
  }
  if (o.workload == "offload_bulk" && !o.expect_qr_ns) {
    std::fprintf(stderr, "perfbench: offload_bulk needs --expect-qr-ns\n");
    return usage(argv[0]);
  }
  Result r;
  if (o.workload == "offload_bulk") {
    r = offload_bulk(o);
  } else if (o.workload == "control_storm") {
    r = control_storm(o);
  } else if (o.workload == "lease_churn") {
    r = lease_churn(o);
  } else if (o.workload == "mp2c_parallel") {
    r = mp2c_parallel(o);
  } else {
    return usage(argv[0]);
  }
  print(o, r);
  return 0;
}

}  // namespace
}  // namespace dacc::perfbench

int main(int argc, char** argv) {
  try {
    return dacc::perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
