/// sdx_e2e — the end-to-end exchange benchmark.
///
/// Builds a generated exchange through the SdxRuntime public API, plays BGP
/// updates and packets into it in one process, checks every output against
/// a reference, and prints the metrics BENCHMARK.json names. README.md in
/// this directory explains the workloads and what each metric should move.
///
///   sdx_e2e --workload churn|traffic|mixed --seed N --seconds S
///           [--trace 0|1] [--scale full|toy] [--setups K]
///           [--work-dir DIR] [--trace-out FILE] [--plant-wrong-delivery]
///
/// Output: human-readable `metric`/`layer`/`check` lines, then one JSON
/// object as the last line. Exit code 1 when any correctness check fails
/// (the JSON still prints, with "correct": false); 2 on a usage error.
///
/// The benchmark never calls background_recompile(): deciding when to
/// recompile is the program's job, so fast-path rule, VNH and ARP growth
/// show in the metrics. Every phase ends after a fixed number of updates or
/// bursts derived from --seconds, so two runs with one seed do the same
/// work whatever their speed.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <vector>

#include <malloc.h>
#include <unistd.h>

#include "bench_common.hpp"
#include "bgp/mrt.hpp"
#include "ingest/mrt_source.hpp"
#include "ingest/pipeline.hpp"
#include "ingest/replay_client.hpp"
#include "ixp/update_trace.hpp"
#include "netbase/rng.hpp"
#include "sdx/oracle.hpp"
#include "sdx/runtime.hpp"

namespace {

using namespace sdx;
using Clock = std::chrono::steady_clock;
using core::ParticipantId;
using net::Ipv4Prefix;

/// install() compiles on a pool this wide on every machine, so setup time
/// does not follow the host's core count.
constexpr unsigned kCompileThreads = 4;
constexpr std::size_t kBurst = 64;
/// Schedules start this far after the phase begins, so the first due
/// update is not already late when the generator thread wakes.
constexpr auto kLeadIn = std::chrono::milliseconds(20);
/// A run that has not finished its phase by then is reported as failed.
constexpr auto kPhaseDeadline = std::chrono::seconds(150);

double secs(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// A /proc/self/status memory field ("VmHWM", "VmRSS") in MB.
double status_mb(const std::string& field) {
  std::ifstream in("/proc/self/status");
  const std::string key = field + ":";
  for (std::string line; std::getline(in, line);) {
    if (line.rfind(key, 0) == 0) {
      return std::strtod(line.c_str() + key.size(), nullptr) / 1024.0;
    }
  }
  return 0;
}

/// Sleeps most of the way to \p t, then spins, so schedules keep
/// sub-100 µs accuracy without burning a core between events.
void wait_until(Clock::time_point t) {
  const auto spin = std::chrono::microseconds(200);
  if (Clock::now() + spin < t) std::this_thread::sleep_until(t - spin);
  while (Clock::now() < t) std::this_thread::yield();
}

// ---------------------------------------------------------------------------
// Command line

enum class Workload { kChurn, kTraffic, kMixed };

struct Args {
  Workload workload = Workload::kChurn;
  std::string workload_name;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool toy = false;
  int setups = 3;
  std::string work_dir = ".bench_build/work";
  std::string trace_out;
  bool plant_wrong_delivery = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(k + " needs a value");
      return argv[++i];
    };
    if (k == "--workload") {
      a.workload_name = value();
      if (a.workload_name == "churn") {
        a.workload = Workload::kChurn;
      } else if (a.workload_name == "traffic") {
        a.workload = Workload::kTraffic;
      } else if (a.workload_name == "mixed") {
        a.workload = Workload::kMixed;
      } else {
        throw std::invalid_argument("unknown workload " + a.workload_name);
      }
    } else if (k == "--seed") {
      a.seed = std::stoull(value());
    } else if (k == "--seconds") {
      a.seconds = std::stod(value());
    } else if (k == "--trace") {
      a.trace = value() != "0";
    } else if (k == "--scale") {
      const auto s = value();
      if (s != "full" && s != "toy") {
        throw std::invalid_argument("--scale is full or toy");
      }
      a.toy = s == "toy";
    } else if (k == "--setups") {
      a.setups = std::stoi(value());
    } else if (k == "--work-dir") {
      a.work_dir = value();
    } else if (k == "--trace-out") {
      a.trace_out = value();
    } else if (k == "--plant-wrong-delivery") {
      a.plant_wrong_delivery = true;
    } else {
      throw std::invalid_argument("unknown argument " + k);
    }
  }
  if (a.workload_name.empty()) throw std::invalid_argument("--workload");
  if (!(a.seconds > 0) || a.setups < 1) {
    throw std::invalid_argument("--seconds and --setups must be positive");
  }
  return a;
}

// ---------------------------------------------------------------------------
// Results

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::size_t samples = 0;
};

/// Everything a run prints. `named` holds the per-workload end-to-end
/// metrics under their own names; `json` the BENCHMARK.json end_to_end set
/// every workload reports; `layers` the per-layer set (trace runs).
struct Results {
  std::vector<Metric> named;
  std::vector<Metric> json;
  std::map<std::string, Metric> layers;
  std::vector<std::pair<std::string, bool>> checks;
  std::vector<std::string> notes;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void check(std::string what, bool ok) {
    checks.emplace_back(std::move(what), ok);
  }
  void layer(const std::string& name, double v, std::size_t n = 1) {
    auto it = layers.find(name);
    if (it == layers.end()) throw std::logic_error("undeclared layer " + name);
    it->second.value = v;
    it->second.samples = n;
  }
  bool correct() const {
    return std::all_of(checks.begin(), checks.end(),
                       [](const auto& c) { return c.second; });
  }
};

/// The per-layer metrics, named and united as in BENCHMARK.json. Every
/// trace run prints all of them; a layer that does no work on a workload
/// reads 0.
const std::vector<std::pair<const char*, const char*>> kLayerMetrics = {
    {"ingest.drain_busy_frac", "ratio"},
    {"ingest.updates_per_drain", "count"},
    {"ingest.queue_depth_max", "count"},
    {"ingest.enqueue_to_install_mean_ms", "ms"},
    {"ingest.replay_late_p99_ms", "ms"},
    {"ingest.sheds", "count"},
    {"ingest.dropped", "count"},
    {"bgp.rib_load_s", "s"},
    {"bgp.best_changes", "count"},
    {"sdx.install_s", "s"},
    {"sdx.fast_path_us_per_update", "us"},
    {"sdx.fast_path_busy_frac", "ratio"},
    {"sdx.updates_per_flush", "count"},
    {"sdx.fast_rules_added", "count"},
    {"sdx.flow_rules_end", "count"},
    {"sdx.update_remainder_frac", "ratio"},
    {"dataplane.router_ns_per_pkt", "ns"},
    {"dataplane.switch_ns_per_frame", "ns"},
    {"dataplane.send_remainder_frac", "ratio"},
    {"dataplane.matched_frac", "ratio"},
    {"dataplane.blackholed_frac", "ratio"},
    {"dataplane.deliveries_per_pkt", "ratio"},
    {"dataplane.arp_bindings_end", "count"},
    {"verify.full_s", "s"},
    {"verify.ms_per_check", "ms"},
    {"verify.busy_frac", "ratio"},
    {"verify.classes", "count"},
    {"verify.edges", "count"},
    {"verify.violations", "count"},
    {"persist.wal_records", "count"},
    {"persist.wal_bytes", "count"},
    {"mixed.bursts_delayed_frac", "ratio"},
    {"trace.remainder_frac", "ratio"},
};

// ---------------------------------------------------------------------------
// Tracing: spans from this file around the calls into each layer.

int thread_slot() {
  static std::atomic<int> next{0};
  thread_local const int slot = next++;
  return slot;
}

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  bool on() const { return on_; }

  void add(const char* name, Clock::time_point a, Clock::time_point b) {
    if (!on_) return;
    const int tid = thread_slot();
    std::lock_guard<std::mutex> lock(mu_);
    totals_[name] += secs(b - a);
    if (kept_.size() < kMaxKept) kept_.push_back({name, tid, a, b});
  }
  /// Adds time to a layer without a span of its own (histogram deltas).
  void attribute(const char* name, double seconds) {
    if (!on_) return;
    std::lock_guard<std::mutex> lock(mu_);
    totals_[name] += seconds;
  }
  /// Total seconds recorded under \p name.
  double total_s(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = totals_.find(name);
    return it == totals_.end() ? 0.0 : it->second;
  }

  /// The runtime's Chrome trace with these spans appended as pid 2. \p mark
  /// is a clock reading taken when the runtime's tracer recorded a span
  /// starting at \p mark_us on its own time base.
  std::string merge_chrome(std::string runtime_json, Clock::time_point mark,
                           double mark_us) const {
    std::lock_guard<std::mutex> lock(mu_);
    const auto close = runtime_json.rfind("]}");
    if (close == std::string::npos) return runtime_json;
    std::string events;
    for (const auto& s : kept_) {
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "{\"name\":\"%s\",\"cat\":\"e2e\",\"ph\":\"X\",\"ts\":%.3f,"
                    "\"dur\":%.3f,\"pid\":2,\"tid\":%d}",
                    s.name, mark_us + secs(s.a - mark) * 1e6,
                    secs(s.b - s.a) * 1e6, s.tid);
      if (!events.empty()) events += ",";
      events += buf;
    }
    const bool empty = runtime_json.compare(close - 1, 1, "[") == 0;
    runtime_json.insert(close, (empty || events.empty() ? "" : ",") + events);
    return runtime_json;
  }

 private:
  struct Kept {
    const char* name;
    int tid;
    Clock::time_point a, b;
  };
  static constexpr std::size_t kMaxKept = 50000;
  bool on_;
  mutable std::mutex mu_;
  std::map<std::string, double> totals_;
  std::vector<Kept> kept_;
};

// ---------------------------------------------------------------------------
// Inputs: the exchange, the update plan, the packets.

struct Exchange {
  ixp::GeneratedIxp ixp;
  std::vector<bgp::Route> routes;  ///< the initial RIB, in announce order
};

/// The exchange every run deploys: make_workload's own default seed. Its
/// size swings from 39k to 71k routes across generator seeds, which would
/// move every absolute metric by a third from one --seed to the next; so
/// --seed drives what flows through the exchange (the update trace, its
/// mapping onto routes, the packets), not the exchange itself.
constexpr std::uint64_t kExchangeSeed = 1;

Exchange make_exchange(Workload w, bool toy) {
  std::size_t participants = 100, prefixes = 25000, policy = 10000;
  if (toy) {
    participants = 6, prefixes = 300, policy = 100;
  } else if (w == Workload::kMixed) {
    // A full proof at 100/25k takes minutes; this exchange proves in seconds.
    participants = 40, prefixes = 5000, policy = 2000;
  }
  Exchange ex{
      bench::make_workload(participants, prefixes, policy, kExchangeSeed), {}};
  ex.routes = ex.ixp.server.dump_routes();
  // The generator's route server is never read again; only the runtime's
  // own RIB should count in peak_rss_mb.
  ex.ixp.server = bgp::RouteServer{};
  std::sort(ex.routes.begin(), ex.routes.end(),
            [](const bgp::Route& a, const bgp::Route& b) {
              return std::tie(a.prefix, a.learned_from) <
                     std::tie(b.prefix, b.learned_from);
            });
  return ex;
}

/// One BGP update of the plan, as the participant sends it.
struct PlannedUpdate {
  ParticipantId from = 0;
  Ipv4Prefix prefix;
  bool withdrawal = false;
  net::AsPath path;
  std::vector<bgp::Community> communities;
  double trace_time = 0;  ///< the trace's timestamp (seconds)
};

using CandidateSet =
    std::map<ParticipantId,
             std::pair<net::AsPath, std::vector<bgp::Community>>>;

/// The §4.3 trace mapped onto routes the exchange really holds, plus the
/// shadow RIB of every touched prefix after the whole plan.
struct UpdatePlan {
  std::vector<PlannedUpdate> updates;
  std::map<Ipv4Prefix, CandidateSet> shadow;
};

UpdatePlan plan_updates(const Exchange& ex, std::uint64_t seed,
                        std::size_t count) {
  std::unordered_map<Ipv4Prefix, std::vector<const bgp::Route*>> originals;
  for (const auto& r : ex.routes) originals[r.prefix].push_back(&r);

  ixp::TraceConfig cfg;
  cfg.seed = seed;
  cfg.prefix_count = ex.ixp.prefixes.size();
  std::vector<ixp::TraceEvent> events;
  for (double days = 6; events.size() < 2 * count; days *= 2) {
    cfg.duration_s = days * 86400.0;
    events = ixp::generate_trace_vector(cfg);
  }

  UpdatePlan plan;
  net::SplitMix64 rng(seed * 0x9E3779B97F4A7C15ull + 0x51);
  for (const auto& ev : events) {
    if (plan.updates.size() == count) break;
    const Ipv4Prefix prefix = ex.ixp.prefixes[ev.prefix_index];
    auto orig = originals.find(prefix);
    if (orig == originals.end()) continue;
    auto [live, first_touch] = plan.shadow.try_emplace(prefix);
    if (first_touch) {
      for (const auto* r : orig->second) {
        live->second[r->learned_from] = {r->attrs.as_path,
                                         r->attrs.communities};
      }
    }
    CandidateSet& set = live->second;
    PlannedUpdate u;
    u.prefix = prefix;
    u.trace_time = ev.timestamp;
    if (ev.withdrawal && !set.empty()) {
      // Withdraw a route that is live at this point of the plan.
      auto it = std::next(set.begin(),
                          static_cast<long>(rng.below(set.size())));
      u.from = it->first;
      u.withdrawal = true;
      set.erase(it);
    } else {
      // Re-announce one of the prefix's original routes, prepended 0–2
      // times, so best routes flip the way path changes make them flip.
      const bgp::Route& o = *orig->second[rng.below(orig->second.size())];
      u.from = o.learned_from;
      u.path = o.attrs.as_path;
      const net::Asn asn = o.attrs.as_path.first();
      for (auto k = rng.below(3); k > 0; --k) u.path = u.path.prepended(asn);
      u.communities = o.attrs.communities;
      set[u.from] = {u.path, u.communities};
    }
    plan.updates.push_back(std::move(u));
  }
  if (plan.updates.size() < count) {
    throw std::runtime_error("trace too short for the update plan");
  }
  return plan;
}

bgp::UpdateMessage to_message(const PlannedUpdate& u,
                              const core::Participant& p) {
  bgp::UpdateMessage m;
  if (u.withdrawal) {
    m.withdrawn = {u.prefix};
    return m;
  }
  bgp::RouteAttributes attrs;
  attrs.as_path = u.path;
  attrs.next_hop = p.primary_port().router_ip;
  attrs.communities = u.communities;
  m.attrs = attrs;
  m.nlri = {u.prefix};
  return m;
}

/// One BGP4MP record per update, as a RIS collector peering with the
/// participant would have written it.
std::string encode_mrt(const PlannedUpdate& u, const core::Participant& p,
                       std::uint32_t timestamp) {
  bgp::Bgp4mpMessage m;
  m.peer_as = p.asn;
  m.local_as = 64999;
  m.peer_ip = p.primary_port().router_ip;
  m.local_ip = net::Ipv4Address::parse("10.255.255.254");
  m.message = to_message(u, p);
  std::ostringstream os;
  bgp::write_record(os, bgp::encode_bgp4mp(timestamp, m));
  return os.str();
}

/// Schedule offsets (seconds from phase start) for plan updates [lo, hi):
/// the trace's own spacing, compressed so the mean rate is \p rate.
std::vector<double> compress_schedule(const UpdatePlan& plan, std::size_t lo,
                                      std::size_t hi, double rate) {
  std::vector<double> due(hi - lo, 0.0);
  const double t0 = plan.updates[lo].trace_time;
  const double span = plan.updates[hi - 1].trace_time - t0;
  const double target = static_cast<double>(hi - lo) / rate;
  const double scale = span > 0 ? target / span : 0.0;
  for (std::size_t i = lo; i < hi; ++i) {
    due[i - lo] = (plan.updates[i].trace_time - t0) * scale;
  }
  return due;
}

struct Burst {
  ParticipantId sender = 0;
  std::vector<net::PacketHeader> payloads;
};

/// Bursts of 64 payloads from uniformly drawn senders. Destinations are
/// Zipf(1) over the prefix universe (popularity order shuffled by seed) in
/// 1–4-packet flow trains; 2% go to 198.18.0.0/15, which nobody announces.
/// Destination ports are 40% 80, 40% 443 and 20% other.
std::vector<Burst> make_bursts(const Exchange& ex, std::uint64_t seed,
                               std::size_t count) {
  net::SplitMix64 rng(seed * 0xD1B54A32D192ED03ull + 0x77);
  std::vector<Ipv4Prefix> by_rank = ex.ixp.prefixes;
  for (std::size_t i = by_rank.size(); i > 1; --i) {
    std::swap(by_rank[i - 1], by_rank[rng.below(i)]);
  }
  std::vector<double> cdf(by_rank.size());
  double sum = 0;
  for (std::size_t i = 0; i < cdf.size(); ++i) {
    sum += 1.0 / static_cast<double>(i + 1);
    cdf[i] = sum;
  }
  const std::uint32_t unrouted_base =
      net::Ipv4Address::parse("198.18.0.0").value();

  std::vector<Burst> bursts(count);
  for (auto& b : bursts) {
    b.sender = ex.ixp.participants[rng.below(ex.ixp.participants.size())].id;
    while (b.payloads.size() < kBurst) {
      net::Ipv4Address dst;
      if (rng.chance(0.02)) {
        dst = net::Ipv4Address(unrouted_base +
                               static_cast<std::uint32_t>(rng.below(1u << 17)));
      } else {
        const double u = rng.uniform() * sum;
        const auto rank = static_cast<std::size_t>(
            std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
        const Ipv4Prefix p = by_rank[std::min(rank, by_rank.size() - 1)];
        dst = net::Ipv4Address(p.network().value() + 1 +
                               static_cast<std::uint32_t>(rng.below(254)));
      }
      const double port_draw = rng.uniform();
      const std::uint64_t dst_port =
          port_draw < 0.4 ? 80 : port_draw < 0.8 ? 443 : rng.range(1024, 65535);
      const auto payload =
          net::PacketBuilder()
              .src_ip(net::Ipv4Address(static_cast<std::uint32_t>(rng())))
              .dst_ip(dst)
              .proto(net::kProtoTcp)
              .src_port(rng.range(1024, 65535))
              .dst_port(dst_port)
              .build();
      for (auto train = 1 + rng.below(4);
           train > 0 && b.payloads.size() < kBurst; --train) {
        b.payloads.push_back(payload);
      }
    }
  }
  return bursts;
}

// ---------------------------------------------------------------------------
// Setup: from an empty runtime to ready.

/// A set-up exchange. The pipeline holds a reference to the runtime, so it
/// is declared after it and destroyed first.
struct Deployment {
  std::unique_ptr<core::SdxRuntime> rt;
  std::unique_ptr<ingest::IngestPipeline> pipeline;
  double setup_s = 0, rib_load_s = 0, install_s = 0, verify_full_s = 0;

  void reset() {
    pipeline.reset();
    rt.reset();
  }
};

/// \p tracer records the set-up stages (the kept deployment's only).
void set_up(Deployment& d, const Exchange& ex, Workload w,
            const std::filesystem::path& journal_dir, Tracer* tracer) {
  d.reset();
  // Hand the freed runtime back to the kernel, so peak RSS measures one
  // deployment rather than how the allocator reused the previous one.
  ::malloc_trim(0);
  const auto t0 = Clock::now();
  core::CompileOptions options;
  options.threads = kCompileThreads;
  d.rt = std::make_unique<core::SdxRuntime>(bgp::DecisionConfig{}, options);
  auto& rt = *d.rt;
  for (const auto& p : ex.ixp.participants) {
    if (rt.add_participant(p.name, p.asn, p.ports.size()) != p.id) {
      throw std::runtime_error("participant ids diverged from the generator");
    }
  }
  for (const auto& p : ex.ixp.participants) {
    if (!p.outbound.empty()) rt.set_outbound(p.id, p.outbound);
    if (!p.inbound.empty()) rt.set_inbound(p.id, p.inbound);
  }
  auto stage = [&](const char* name, auto&& work) {
    const auto a = Clock::now();
    work();
    const auto b = Clock::now();
    if (tracer != nullptr) tracer->add(name, a, b);
    return secs(b - a);
  };
  d.rib_load_s = stage("bgp.rib_load", [&] {
    for (const auto& r : ex.routes) {
      rt.announce(r.learned_from, r.prefix, r.attrs.as_path,
                  r.attrs.communities);
    }
  });
  d.install_s = stage("sdx.install", [&] { rt.install(); });
  if (w == Workload::kMixed) {
    stage("persist.attach_journal", [&] {
      std::filesystem::remove_all(journal_dir);
      persist::Journal::Options jopt;
      jopt.fsync = persist::Journal::Options::Fsync::kNever;
      rt.attach_journal(journal_dir.string(), jopt);
    });
    d.verify_full_s = stage("verify.full", [&] { rt.enable_verification(); });
  }
  if (w != Workload::kTraffic) {
    stage("ingest.start", [&] {
      rt.enable_batching();
      d.pipeline = std::make_unique<ingest::IngestPipeline>(rt);
      d.pipeline->start();
    });
  }
  d.setup_s = secs(Clock::now() - t0);
  if (tracer != nullptr) tracer->add("setup", t0, Clock::now());
}

// ---------------------------------------------------------------------------
// Shared measurement pieces.

/// Reads the runtime's metric registry.
struct Registry {
  explicit Registry(core::SdxRuntime& rt) : reg(rt.telemetry().metrics) {}
  telemetry::MetricRegistry& reg;
  telemetry::Histogram& fast_path() {
    return reg.histogram("sdx_fast_path_seconds");
  }
  telemetry::Histogram& verify() { return reg.histogram("sdx_verify_seconds"); }
  telemetry::Histogram& install_latency() {
    return reg.histogram("sdx_ingest_install_latency_seconds");
  }
  std::uint64_t counter(const char* name, telemetry::Labels labels = {}) {
    return reg.counter(name, "", std::move(labels)).value();
  }
  std::uint64_t violations() {
    std::uint64_t total = 0;
    for (const char* kind : {"loop", "isolation", "blackhole", "local_rule"}) {
      total += counter("sdx_verify_violations_total", {{"kind", kind}});
    }
    return total;
  }
};

/// Counter and histogram values at one instant; deltas give a phase's work.
struct Snapshot {
  double fast_s = 0, verify_s = 0, latency_s = 0;
  std::uint64_t fast_n = 0, verify_n = 0, latency_n = 0;
  std::uint64_t batches = 0, batched = 0, fast_rules = 0, best_changes = 0;
  std::uint64_t wal_records = 0, wal_bytes = 0;

  static Snapshot take(core::SdxRuntime& rt) {
    Registry t(rt);
    Snapshot s;
    s.fast_s = t.fast_path().sum();
    s.fast_n = t.fast_path().count();
    s.verify_s = t.verify().sum();
    s.verify_n = t.verify().count();
    s.latency_s = t.install_latency().sum();
    s.latency_n = t.install_latency().count();
    s.batches = t.counter("sdx_fast_path_batches_total");
    s.batched = t.counter("sdx_fast_path_batched_updates_total");
    s.fast_rules = t.counter("sdx_fast_path_rules_total");
    s.best_changes = t.counter("sdx_route_server_best_changes_total");
    s.wal_records = t.counter("sdx_journal_records_total");
    s.wal_bytes = t.counter("sdx_journal_bytes_total");
    return s;
  }
};

/// The control thread's side of the update path: timed drain() calls, and
/// each applied update's latency from its due time. A drain that applies n
/// updates is credited with the n oldest outstanding due times, which is
/// exact whenever a drain empties the queue.
struct DrainLog {
  std::vector<double> latency_ms;
  std::vector<double> stall_us;  ///< duration of each non-empty drain
  std::vector<std::size_t> sizes;  ///< updates each non-empty drain applied
  std::size_t next_due = 0;
  std::size_t drains = 0, applied = 0, depth_max = 0;
  double busy_s = 0;
  double last_start_s = -1, last_end_s = -1;  ///< of the latest drain

  /// One drain; \p due_of(i) is update i's due time, shifted by any time
  /// the workload clock was paused since. Returns updates applied.
  template <class DueOf>
  std::size_t drain(ingest::IngestPipeline& pipeline, Tracer& tracer,
                    core::SdxRuntime& rt, Clock::time_point origin,
                    DueOf&& due_of) {
    depth_max = std::max(depth_max, pipeline.queue().depth());
    Registry reg(rt);
    double fast0 = 0, verify0 = 0;
    if (tracer.on()) {
      fast0 = reg.fast_path().sum();
      verify0 = reg.verify().sum();
    }
    const auto a = Clock::now();
    const std::size_t n = pipeline.drain();
    const auto b = Clock::now();
    busy_s += secs(b - a);
    last_start_s = secs(a - origin);
    last_end_s = secs(b - origin);
    if (n > 0) {
      stall_us.push_back(secs(b - a) * 1e6);
      sizes.push_back(n);
      ++drains;
      applied += n;
      for (std::size_t k = 0; k < n; ++k, ++next_due) {
        latency_ms.push_back(secs(b - due_of(next_due)) * 1e3);
      }
    }
    if (tracer.on()) {
      tracer.add("ingest.drain", a, b);
      tracer.attribute("sdx.fast_path", reg.fast_path().sum() - fast0);
      tracer.attribute("verify", reg.verify().sum() - verify0);
    }
    return n;
  }
};

/// Packets' side: deliveries per payload, through send_batch. A trace run
/// sends every other burst through send_batch's two public halves instead,
/// BorderRouter::forward then Fabric::inject_batch, so each half can be
/// timed; the per-payload difference between the two kinds of burst is
/// send_batch's own work outside the halves.
struct SendLog {
  std::vector<double> latency_us;
  std::size_t bursts = 0, payloads = 0, deliveries = 0;
  std::size_t checked = 0, wrong = 0;
  /// Frames the sender's router put on the fabric, and frames the flow
  /// table counted as matched or missed, across the sends alone (the
  /// verifier drives the same counters between sends).
  std::uint64_t frames = 0, table_frames = 0, matched = 0;
  double busy_s = 0;
  std::vector<double> call_s;  ///< duration of each burst's send, in order
  /// Trace runs: payloads and time of the bursts sent whole, and of those
  /// sent in halves, with the frames the halves put on the fabric.
  std::size_t whole_payloads = 0, split_payloads = 0, split_frames = 0;
  double whole_s = 0, router_s = 0, switch_s = 0;
};

struct SentBurst {
  /// Deliveries of payload i are deliveries.of(slot[i]) when slot[i] >= 0.
  dp::Fabric::BatchDeliveries deliveries;
  std::vector<int> slot;
};

/// Whether a trace run sends burst \p b of a pool of \p pool in halves.
/// The choice flips on every pass over the pool, so each pooled burst is
/// sent both ways equally often.
bool split_burst(const Tracer& tracer, std::size_t b, std::size_t pool) {
  return tracer.on() && (b % pool + b / pool) % 2 == 1;
}

/// Sends one burst, whole or in halves, and accounts it in \p log; returns
/// the deliveries.
SentBurst send(core::SdxRuntime& rt, const Burst& burst, bool split,
               Tracer& tracer, SendLog& log, Clock::time_point& start,
               Clock::time_point& end) {
  const auto& table = rt.fabric().sdx_switch().table();
  const dp::BorderRouter& router = rt.router(burst.sender);
  const std::uint64_t fwd0 = router.forwarded();
  const std::uint64_t matched0 = table.total_matched();
  const std::uint64_t seen0 = matched0 + table.total_missed();
  SentBurst out;
  out.slot.resize(burst.payloads.size(), -1);
  if (!split) {
    start = Clock::now();
    out.deliveries = rt.send_batch(burst.sender, burst.payloads);
    end = Clock::now();
    for (std::size_t i = 0; i < out.slot.size(); ++i) {
      out.slot[i] = static_cast<int>(i);
    }
    if (tracer.on()) {
      tracer.add("dataplane.send_batch", start, end);
      log.whole_payloads += burst.payloads.size();
      log.whole_s += secs(end - start);
    }
  } else {
    auto& fabric = rt.fabric();
    std::vector<net::PacketHeader> frames;
    frames.reserve(burst.payloads.size());
    start = Clock::now();
    for (std::size_t i = 0; i < burst.payloads.size(); ++i) {
      if (auto frame = router.forward(burst.payloads[i], fabric.arp())) {
        out.slot[i] = static_cast<int>(frames.size());
        frames.push_back(std::move(*frame));
      }
    }
    const auto routed = Clock::now();
    out.deliveries = fabric.inject_batch(frames);
    end = Clock::now();
    tracer.add("dataplane.router", start, routed);
    tracer.add("dataplane.switch", routed, end);
    log.split_payloads += burst.payloads.size();
    log.split_frames += frames.size();
    log.router_s += secs(routed - start);
    log.switch_s += secs(end - routed);
  }
  log.frames += router.forwarded() - fwd0;
  log.matched += table.total_matched() - matched0;
  log.table_frames += table.total_matched() + table.total_missed() - seen0;
  log.busy_s += secs(end - start);
  log.call_s.push_back(secs(end - start));
  ++log.bursts;
  log.payloads += burst.payloads.size();
  log.deliveries += out.deliveries.deliveries.size();
  return out;
}

/// Payloads per second of send time, from the median of the passes through
/// the burst pool. Only whole passes count, so each sends the same bursts;
/// the median drops passes slowed by other work on the host. Runs shorter
/// than one pass use the whole run.
double pass_rate(const SendLog& log, const std::vector<Burst>& pool) {
  std::size_t per_pass = 0;
  for (const auto& b : pool) per_pass += b.payloads.size();
  std::vector<double> pass_s;
  for (std::size_t k = 0; (k + 1) * pool.size() <= log.call_s.size(); ++k) {
    double t = 0;
    for (std::size_t i = k * pool.size(); i < (k + 1) * pool.size(); ++i) {
      t += log.call_s[i];
    }
    pass_s.push_back(t);
  }
  if (pass_s.empty()) {
    return ratio(static_cast<double>(log.payloads), log.busy_s);
  }
  return ratio(static_cast<double>(per_pass), percentile(pass_s, 0.5));
}

/// Compares a sent burst's deliveries with core::oracle_forward for the
/// current state. Returns the number of payloads that differ.
/// \p plant_wrong (self-test) corrupts the first delivery it sees, then
/// clears itself.
std::size_t check_burst(const core::SdxRuntime& rt, const Burst& burst,
                        const SentBurst& sent, bool& plant_wrong) {
  std::size_t wrong = 0;
  for (std::size_t i = 0; i < burst.payloads.size(); ++i) {
    std::vector<dp::Fabric::Delivery> got;
    if (sent.slot[i] >= 0) {
      const auto span =
          sent.deliveries.of(static_cast<std::size_t>(sent.slot[i]));
      got.assign(span.begin(), span.end());
    }
    if (plant_wrong && !got.empty()) {
      got[0].port += 1;
      plant_wrong = false;
    }
    const auto want = core::oracle_forward(rt.participants(), rt.ports(),
                                           rt.route_server(), burst.sender, 0,
                                           burst.payloads[i]);
    bool same = got.size() == want.size();
    for (std::size_t k = 0; same && k < got.size(); ++k) {
      same = got[k].port == want[k].egress && got[k].frame == want[k].frame;
    }
    wrong += !same;
  }
  return wrong;
}

/// After the plan is applied: every touched prefix's candidate routes must
/// equal the shadow RIB's, and so must every participant's best route,
/// which the reference route server derives from the shadow candidates.
std::size_t check_final_routes(core::SdxRuntime& rt, const UpdatePlan& plan,
                               std::size_t& mismatched_updates) {
  bgp::RouteServer reference;
  for (const auto& p : rt.participants()) {
    reference.add_peer({p.id, p.asn, p.primary_port().router_ip});
  }
  std::map<Ipv4Prefix, bool> bad;
  for (const auto& [prefix, want] : plan.shadow) {
    CandidateSet got;
    if (const auto* cands = rt.route_server().candidates(prefix)) {
      for (const auto& r : *cands) {
        got[r.learned_from] = {r.attrs.as_path, r.attrs.communities};
      }
    }
    for (const auto& [from, attrs] : want) {
      bgp::Route r;
      r.prefix = prefix;
      r.attrs.as_path = attrs.first;
      r.attrs.communities = attrs.second;
      r.attrs.next_hop = rt.participant(from).primary_port().router_ip;
      r.learned_from = from;
      r.peer_router_id = r.attrs.next_hop;
      reference.announce(std::move(r));
    }
    bad[prefix] = got != want;
  }
  for (auto& [prefix, is_bad] : bad) {
    for (const auto& p : rt.participants()) {
      if (is_bad) break;
      const auto a = rt.route_server().best_route(p.id, prefix);
      const auto b = reference.best_route(p.id, prefix);
      is_bad = a.has_value() != b.has_value() ||
               (a && (a->learned_from != b->learned_from ||
                      a->attrs.as_path != b->attrs.as_path));
    }
  }
  std::size_t bad_prefixes = 0;
  mismatched_updates = 0;
  for (const auto& [prefix, is_bad] : bad) bad_prefixes += is_bad;
  for (const auto& u : plan.updates) mismatched_updates += bad.at(u.prefix);
  return bad_prefixes;
}

void add_latency_metrics(Results& res, const std::string& base,
                         const char* unit, const std::vector<double>& v) {
  res.named.push_back({base + "_p50_" + unit, percentile(v, 0.5), unit,
                       v.size()});
  res.named.push_back({base + "_p99_" + unit, percentile(v, 0.99), unit,
                       v.size()});
}

/// Per-layer numbers every update workload reports the same way.
void update_layers(Results& res, const DrainLog& log, const Snapshot& a,
                   const Snapshot& b, double wall_s, double late_p99_ms,
                   std::size_t late_n) {
  res.layer("ingest.drain_busy_frac", ratio(log.busy_s, wall_s), log.drains);
  res.layer("ingest.updates_per_drain",
            ratio(static_cast<double>(log.applied),
                  static_cast<double>(log.drains)),
            log.drains);
  res.layer("ingest.queue_depth_max", static_cast<double>(log.depth_max),
            log.drains);
  res.layer("ingest.enqueue_to_install_mean_ms",
            ratio(b.latency_s - a.latency_s,
                  static_cast<double>(b.latency_n - a.latency_n)) *
                1e3,
            b.latency_n - a.latency_n);
  res.layer("ingest.replay_late_p99_ms", late_p99_ms, late_n);
  res.layer("bgp.best_changes",
            static_cast<double>(b.best_changes - a.best_changes));
  const double fast_s = b.fast_s - a.fast_s;
  const double verify_s = b.verify_s - a.verify_s;
  res.layer("sdx.fast_path_us_per_update",
            ratio(fast_s, static_cast<double>(b.fast_n - a.fast_n)) * 1e6,
            b.fast_n - a.fast_n);
  res.layer("sdx.fast_path_busy_frac", ratio(fast_s, log.busy_s), log.drains);
  res.layer("sdx.updates_per_flush",
            ratio(static_cast<double>(b.batched - a.batched),
                  static_cast<double>(b.batches - a.batches)),
            b.batches - a.batches);
  res.layer("sdx.fast_rules_added",
            static_cast<double>(b.fast_rules - a.fast_rules));
  res.layer("sdx.update_remainder_frac",
            ratio(log.busy_s - fast_s - verify_s, log.busy_s), log.drains);
}

void final_state_layers(Results& res, core::SdxRuntime& rt,
                        ingest::IngestPipeline* pipeline) {
  res.layer("sdx.flow_rules_end",
            static_cast<double>(rt.fabric().sdx_switch().table().size()));
  res.layer("dataplane.arp_bindings_end",
            static_cast<double>(rt.fabric().arp().size()));
  if (pipeline != nullptr) {
    pipeline->refresh_metrics();
    Registry t(rt);
    res.layer("ingest.sheds",
              static_cast<double>(t.counter("sdx_ingest_sheds_total")));
    res.layer("ingest.dropped",
              static_cast<double>(t.counter("sdx_ingest_dropped_total")));
  }
}

void packet_layers(Results& res, const SendLog& log, Tracer& tracer) {
  const auto frames = static_cast<double>(log.frames);
  const auto payloads = static_cast<double>(log.payloads);
  res.layer("dataplane.matched_frac",
            ratio(static_cast<double>(log.matched),
                  static_cast<double>(log.table_frames)),
            log.frames);
  res.layer("dataplane.blackholed_frac", 1.0 - ratio(frames, payloads),
            log.payloads);
  res.layer("dataplane.deliveries_per_pkt",
            ratio(static_cast<double>(log.deliveries), payloads),
            log.payloads);
  if (tracer.on()) {
    const auto split = static_cast<double>(log.split_payloads);
    const double whole_per_pkt =
        ratio(log.whole_s, static_cast<double>(log.whole_payloads));
    const double halves_per_pkt = ratio(log.router_s + log.switch_s, split);
    res.layer("dataplane.router_ns_per_pkt", ratio(log.router_s, split) * 1e9,
              log.split_payloads);
    res.layer("dataplane.switch_ns_per_frame",
              ratio(log.switch_s, static_cast<double>(log.split_frames)) * 1e9,
              log.split_frames);
    // Negative when send_batch's own work is below the noise of the two
    // per-payload means.
    res.layer("dataplane.send_remainder_frac",
              ratio(whole_per_pkt - halves_per_pkt, whole_per_pkt), log.bursts);
    tracer.attribute("dataplane.send_batch.unattributed",
                     (whole_per_pkt - halves_per_pkt) *
                         static_cast<double>(log.whole_payloads));
  }
  res.check("flow table: matched + missed == frames injected (" +
                std::to_string(log.table_frames) + " / " +
                std::to_string(log.frames) + ")",
            log.table_frames == log.frames);
}

/// Offered updates, counted as failed when never applied or when their
/// prefix's final routes disagree with the shadow RIB.
void update_checks(Results& res, core::SdxRuntime& rt,
                   ingest::IngestPipeline& pipeline, const UpdatePlan& plan,
                   std::size_t applied) {
  const std::size_t offered = plan.updates.size();
  std::size_t mismatched = 0;
  const std::size_t bad_prefixes = check_final_routes(rt, plan, mismatched);
  pipeline.refresh_metrics();
  const auto dropped = Registry(rt).counter("sdx_ingest_dropped_total");
  const std::size_t missing = offered > applied ? offered - applied : 0;
  const std::size_t failed =
      std::min(offered, missing + static_cast<std::size_t>(dropped) + mismatched);
  res.attempted += offered;
  res.failed += failed;
  res.named.push_back({"update_fail_frac",
                       ratio(static_cast<double>(failed),
                             static_cast<double>(offered)),
                       "ratio", offered});
  res.check("applied == offered (" + std::to_string(applied) + " / " +
                std::to_string(offered) + ")",
            applied == offered);
  res.check("sdx_ingest_dropped_total == 0 (" + std::to_string(dropped) + ")",
            dropped == 0);
  res.check("final routes match the shadow RIB (" +
                std::to_string(plan.shadow.size() - bad_prefixes) + " / " +
                std::to_string(plan.shadow.size()) + " touched prefixes)",
            bad_prefixes == 0);
}

void packet_checks(Results& res, const SendLog& log) {
  res.attempted += log.payloads;
  res.failed += log.wrong;
  res.named.push_back({"packet_fail_frac",
                       ratio(static_cast<double>(log.wrong),
                             static_cast<double>(log.checked)),
                       "ratio", log.checked});
  res.check("sampled deliveries match oracle_forward (" +
                std::to_string(log.checked - log.wrong) + " / " +
                std::to_string(log.checked) + " payloads)",
            log.wrong == 0 && log.checked > 0);
}

/// The phase scale: fixed counts derived from --seconds.
std::size_t scaled(double per_second, double seconds) {
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(per_second * seconds)));
}

// ---------------------------------------------------------------------------
// churn: the update path alone: single updates, then paced, then line rate.

/// Phase 0 updates per --second, each sent alone: about 0.06 s of work.
constexpr double kChurnSingleUpdates = 100;
constexpr double kChurnPacedRate = 1000;   ///< updates/s, phase 1
constexpr double kChurnPacedShare = 0.4;   ///< of --seconds
/// Phase 2 updates per --second: about 0.55 s of line-rate work each on a
/// 4-core 2 GHz x86 VM, so the three phases together last about --seconds.
constexpr double kChurnLineUpdates = 1500;
constexpr double kGroupWindow = 100e-6;  ///< seconds

/// Updates per phase. Plan updates [0, single) are phase 0's, the next
/// `paced` phase 1's, the rest phase 2's.
struct ChurnSizes {
  std::size_t single, paced, line;
};

ChurnSizes churn_sizes(const Args& args) {
  return {scaled(kChurnSingleUpdates, args.seconds),
          scaled(kChurnPacedRate * kChurnPacedShare, args.seconds),
          scaled(kChurnLineUpdates, args.seconds)};
}

/// Maps MRT peer ASNs back to \p rt's participants.
ingest::MrtReplaySource::PeerMapper peer_mapper(const core::SdxRuntime& rt) {
  std::unordered_map<net::Asn, ParticipantId> by_asn;
  for (const auto& p : rt.participants()) by_asn[p.asn] = p.id;
  return [by_asn = std::move(by_asn)](
             net::Asn as, net::Ipv4Address) -> std::optional<ParticipantId> {
    auto it = by_asn.find(as);
    if (it == by_asn.end()) return std::nullopt;
    return it->second;
  };
}

/// churn's phase 0, run on every deployment right after its set-up, so its
/// latencies are sampled across the whole run rather than one stretch of
/// it, and across as many heaps as set-ups.
struct SingleUpdates {
  std::vector<double> latency_us;  ///< every deployment's
  std::size_t applied = 0;         ///< on the latest deployment
  std::string error;

  /// Plan updates [0, n) one at a time on the control thread, onto the
  /// exchange as installed. Each is replayed into the queue and drained
  /// before the next is sent, so every drain applies exactly one update to
  /// an idle pipeline. Latency runs from the replay until drain() returns.
  void run(const UpdatePlan& plan, std::size_t n, Deployment& d) {
    auto& rt = *d.rt;
    auto& pipeline = *d.pipeline;
    ingest::MrtReplaySource source({}, peer_mapper(rt));
    Tracer untraced(false);
    DrainLog log;
    const auto start = Clock::now();
    for (std::size_t i = 0; i < n && error.empty(); ++i) {
      const auto& u = plan.updates[i];
      std::istringstream is(encode_mrt(u, rt.participant(u.from), 0));
      const auto a = Clock::now();
      const auto r = source.replay_trace(is, pipeline.queue());
      if (!r.ok() || r.updates != 1) {
        error = "single-update replay pushed " + std::to_string(r.updates) +
                " of 1";
        break;
      }
      const std::size_t k = log.drain(pipeline, untraced, rt, start,
                                      [&](std::size_t) { return a; });
      if (k != 1) error = "single-update drain applied " + std::to_string(k);
      latency_us.push_back(secs(Clock::now() - a) * 1e6);
    }
    applied = log.applied;
  }
};

void run_churn(const Args& args, Deployment& d, const UpdatePlan& plan,
               const SingleUpdates& single, Tracer& tracer, Results& res) {
  auto& rt = *d.rt;
  auto& pipeline = *d.pipeline;
  const ChurnSizes sizes = churn_sizes(args);
  const std::size_t n0 = sizes.single, n1 = sizes.paced, n2 = sizes.line;
  const std::vector<double> due = compress_schedule(plan, n0, n0 + n1,
                                                    kChurnPacedRate);
  // Phase 1 updates due within kGroupWindow of a group's first replay as
  // one group (a §4.3 burst); group g is [group_start[g], group_start[g+1])
  // of the phase.
  std::vector<std::size_t> group_start;
  for (std::size_t i = 0; i < n1; ++i) {
    if (group_start.empty() ||
        due[i] - due[group_start.back()] >= kGroupWindow) {
      group_start.push_back(i);
    }
  }
  group_start.push_back(n1);

  std::vector<std::string> records;
  records.reserve(plan.updates.size());
  for (std::size_t i = 0; i < plan.updates.size(); ++i) {
    const auto& u = plan.updates[i];
    const bool paced = i >= n0 && i < n0 + n1;
    const auto ms = paced ? static_cast<std::uint32_t>(due[i - n0] * 1e3) : 0u;
    records.push_back(encode_mrt(u, rt.participant(u.from), ms));
  }
  ingest::MrtReplaySource source({}, peer_mapper(rt));
  std::string generator_error;

  const Snapshot s0 = Snapshot::take(rt);
  DrainLog log;
  std::vector<double> late_ms;
  std::atomic<bool> generator_done{false};
  const auto start = Clock::now();
  const auto t0 = start + kLeadIn;
  auto due_at = [&](std::size_t i) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(due[i]));
  };

  // Phase 1: the trace's bursts at a mean of 1,000 updates/s. Each due
  // group replays through MrtReplaySource at line rate; groups are paced
  // against absolute due times so lateness never accumulates.
  std::thread generator([&] {
    try {
      for (std::size_t g = 0; g + 1 < group_start.size(); ++g) {
        const std::size_t i = group_start[g], j = group_start[g + 1];
        std::string group;
        for (std::size_t k = i; k < j; ++k) group += records[n0 + k];
        wait_until(due_at(i));
        const auto push = Clock::now();
        late_ms.push_back(secs(push - due_at(i)) * 1e3);
        std::istringstream is(group);
        const auto r = source.replay_trace(is, pipeline.queue());
        tracer.add("ingest.push", push, Clock::now());
        if (!r.ok() || r.updates != j - i) {
          throw std::runtime_error("replay pushed " +
                                   std::to_string(r.updates) + " of " +
                                   std::to_string(j - i));
        }
      }
    } catch (const std::exception& e) {
      generator_error = e.what();
    }
    generator_done = true;
  });
  const auto deadline = start + kPhaseDeadline;
  while (log.applied < n1 && Clock::now() < deadline) {
    if (pipeline.queue().depth() == 0) {
      if (generator_done && pipeline.queue().depth() == 0) break;
      std::this_thread::yield();
      continue;
    }
    log.drain(pipeline, tracer, rt, start, due_at);
  }
  generator.join();
  const double paced_wall = secs(Clock::now() - start);
  const std::vector<double> paced_latency = log.latency_ms;
  const std::vector<double> paced_stall_us = log.stall_us;

  // Phase 2: the rest of the plan at line rate, one replay_trace call.
  generator_done = false;
  std::string line_rate;
  for (std::size_t i = n0 + n1; i < records.size(); ++i) {
    line_rate += records[i];
  }
  const auto t2 = Clock::now();
  std::thread pusher([&] {
    std::istringstream is(line_rate);
    const auto a = Clock::now();
    const auto r = source.replay_trace(is, pipeline.queue());
    tracer.add("ingest.push", a, Clock::now());
    if (!r.ok() || r.updates != n2) generator_error = "line-rate replay short";
    generator_done = true;
  });
  Clock::time_point last_applied = t2;
  const auto now_due = [&](std::size_t) { return t2; };
  while (log.applied < n1 + n2 && Clock::now() < t2 + kPhaseDeadline) {
    if (pipeline.queue().depth() == 0) {
      if (generator_done && pipeline.queue().depth() == 0) break;
      std::this_thread::yield();
      continue;
    }
    if (log.drain(pipeline, tracer, rt, start, now_due) > 0) {
      last_applied = Clock::now();
    }
  }
  pusher.join();
  const double line_s = secs(last_applied - t2);
  const Snapshot s1 = Snapshot::take(rt);
  const double wall = secs(Clock::now() - start);

  const double rate = ratio(static_cast<double>(log.applied - n1), line_s);
  res.named.push_back({"update_rate_ups", rate, "updates/s", n2});
  // The gate's rate is phase 2's median drain: its updates per second of
  // drain() time. The median drops drains slowed by other work on the host.
  std::vector<double> per_update_s;
  for (std::size_t k = paced_stall_us.size(); k < log.stall_us.size(); ++k) {
    per_update_s.push_back(log.stall_us[k] * 1e-6 /
                           static_cast<double>(log.sizes[k]));
  }
  const double drain_rate = ratio(1.0, percentile(per_update_s, 0.5));
  res.named.push_back({"line_rate_drain_ups", drain_rate, "updates/s",
                       per_update_s.size()});
  add_latency_metrics(res, "update_latency", "ms", paced_latency);
  res.named.push_back({"install_stall_p50_ms",
                       percentile(paced_stall_us, 0.5) / 1e3, "ms",
                       paced_stall_us.size()});
  res.named.push_back({"single_update_latency_p50_ms",
                       percentile(single.latency_us, 0.5) / 1e3, "ms",
                       single.latency_us.size()});
  // The gate's latency is phase 0's, over every set-up: one update from its
  // replay until the drain() that applied it returns, with nothing queued
  // around it and the exchange as installed. Phase 1's latencies and
  // install stalls depend on how many updates each drain finds queued,
  // which the race between the generator and the control thread sets
  // differently on every run; a drain costs about the same per update
  // whatever its size, so their medians follow the batch sizes.
  res.json.push_back({"ops_per_s", drain_rate, "1/s", per_update_s.size()});
  res.json.push_back({"op_latency_p50_us", percentile(single.latency_us, 0.5),
                      "us", single.latency_us.size()});
  res.notes.push_back(std::to_string(n0) +
                      " single updates per set-up; paced phase " +
                      std::to_string(n1) + " updates in " +
                      std::to_string(paced_wall) + " s; line-rate phase " +
                      std::to_string(n2) + " updates in " +
                      std::to_string(line_s) + " s");

  // Per-layer metrics and spans cover phases 1 and 2.
  update_layers(res, log, s0, s1, wall, percentile(late_ms, 0.99),
                late_ms.size());
  final_state_layers(res, rt, &pipeline);
  res.check("update generator finished cleanly" +
                (generator_error.empty() ? "" : ": " + generator_error),
            generator_error.empty());
  res.check("single updates applied one per drain" +
                (single.error.empty() ? "" : ": " + single.error),
            single.error.empty());
  update_checks(res, rt, pipeline, plan, single.applied + log.applied);
}

// ---------------------------------------------------------------------------
// traffic: the packet path alone, closed loop.

constexpr double kTrafficBursts = 6000;  ///< bursts per --second
constexpr std::size_t kBurstPool = 1024;
constexpr std::size_t kCheckedBursts = 256;

/// traffic's bursts. A run with several set-ups sends a share of them on
/// each deployment: after every discarded set-up, and the last share on the
/// kept one. The measurement is then sampled across the whole run and
/// across as many heaps as set-ups. Sending changes no routing state, so
/// every deployment forwards the same way.
struct TrafficSends {
  std::vector<Burst> pool;
  std::size_t total = 0, check_every = 1, sent = 0;
  bool plant = false;
  SendLog log;

  TrafficSends(const Args& args, const Exchange& ex)
      : total(scaled(kTrafficBursts, args.seconds)),
        plant(args.plant_wrong_delivery) {
    pool = make_bursts(ex, args.seed, std::min(kBurstPool, total));
    check_every = std::max<std::size_t>(1, total / kCheckedBursts);
  }

  /// Sends bursts [sent, until) through \p rt, closed loop.
  void run(core::SdxRuntime& rt, std::size_t until, Tracer& tracer) {
    for (; sent < until; ++sent) {
      const std::size_t b = sent;
      const Burst& burst = pool[b % pool.size()];
      Clock::time_point a, e;
      const bool split = split_burst(tracer, b, pool.size());
      const SentBurst out = send(rt, burst, split, tracer, log, a, e);
      log.latency_us.push_back(secs(e - a) * 1e6);
      if (b % check_every == 0) {
        log.checked += burst.payloads.size();
        log.wrong += check_burst(rt, burst, out, plant);
      }
    }
  }
};

void run_traffic(Deployment& d, TrafficSends& t, Tracer& tracer,
                 Results& res) {
  auto& rt = *d.rt;
  t.run(rt, t.total, tracer);
  const SendLog& log = t.log;

  const double pps = pass_rate(log, t.pool);
  res.named.push_back({"packet_rate_mpps", pps / 1e6, "Mpps", log.payloads});
  add_latency_metrics(res, "packet_latency", "us", log.latency_us);
  res.json.push_back({"ops_per_s", pps, "1/s", log.payloads});
  res.json.push_back({"op_latency_p50_us", percentile(log.latency_us, 0.5),
                      "us", log.latency_us.size()});
  packet_layers(res, log, tracer);
  final_state_layers(res, rt, nullptr);
  packet_checks(res, log);
}

// ---------------------------------------------------------------------------
// mixed: updates over loopback TCP beside open-loop packets, one control
// thread, verification and the journal on.

constexpr double kMixedUpdateRate = 200;      ///< updates/s
constexpr double kMixedPacketRate = 100000;   ///< payloads/s
constexpr double kMixedShare = 0.9;           ///< of --seconds
constexpr std::size_t kMixedCheckEvery = 128;  ///< bursts

void run_mixed(const Args& args, const Exchange& ex, Deployment& d,
               Tracer& tracer, Results& res) {
  auto& rt = *d.rt;
  auto& pipeline = *d.pipeline;
  const double phase_s = args.seconds * kMixedShare;
  const std::size_t n_updates = scaled(kMixedUpdateRate, phase_s);
  const std::size_t n_bursts =
      scaled(kMixedPacketRate / static_cast<double>(kBurst), phase_s);
  const UpdatePlan plan = plan_updates(ex, args.seed, n_updates);
  const std::vector<double> due =
      compress_schedule(plan, 0, n_updates, kMixedUpdateRate);
  const auto pool = make_bursts(ex, args.seed, std::min(kBurstPool, n_bursts));
  const double burst_gap = static_cast<double>(kBurst) / kMixedPacketRate;

  // One BGP session per participant, over loopback into the reactor.
  std::vector<std::unique_ptr<ingest::BgpReplayClient>> clients;
  std::unordered_map<ParticipantId, std::size_t> client_of;
  for (const auto& p : rt.participants()) {
    ingest::BgpReplayClient::Options o;
    o.asn = p.asn;
    o.router_id = p.primary_port().router_ip;
    client_of[p.id] = clients.size();
    clients.push_back(std::make_unique<ingest::BgpReplayClient>(o));
    clients.back()->connect(pipeline.port());
  }
  std::vector<bgp::UpdateMessage> messages;
  for (const auto& u : plan.updates) {
    messages.push_back(to_message(u, rt.participant(u.from)));
  }

  // Oracle checks pause the workload clock: both schedules shift by the
  // time a check takes, so checking never delays a timed operation.
  std::atomic<std::int64_t> paused_ns{0};
  std::vector<std::atomic<std::int64_t>> due_ns(n_updates);
  std::vector<std::atomic<std::int64_t>> paused_at_due(n_updates);
  const auto start = Clock::now();
  const auto t0 = start + kLeadIn;
  auto shifted = [&](double offset_s) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(offset_s)) +
           std::chrono::nanoseconds(paused_ns.load());
  };

  const Snapshot s0 = Snapshot::take(rt);
  std::vector<double> late_ms;
  std::string generator_error;
  std::atomic<bool> generator_done{false};
  std::thread generator([&] {
    try {
      for (std::size_t i = 0; i < n_updates; ++i) {
        const auto at = shifted(due[i]);
        wait_until(at);
        // Re-read: a check may have paused the clock during the wait.
        const auto due_at = shifted(due[i]);
        if (Clock::now() < due_at) wait_until(due_at);
        due_ns[i] = (due_at - start).count();
        paused_at_due[i] = paused_ns.load();
        const auto a = Clock::now();
        late_ms.push_back(secs(a - due_at) * 1e3);
        clients[client_of.at(plan.updates[i].from)]->send_update(messages[i]);
        tracer.add("ingest.push", a, Clock::now());
      }
    } catch (const std::exception& e) {
      generator_error = e.what();
    }
    generator_done = true;
  });

  bool plant = args.plant_wrong_delivery;
  DrainLog dlog;
  SendLog slog;
  std::size_t delayed = 0;
  // Checks that ran while an update waited do not count against it.
  auto update_due = [&](std::size_t i) {
    return start + Clock::duration(due_ns[i].load()) +
           std::chrono::nanoseconds(paused_ns.load() - paused_at_due[i].load());
  };
  const auto deadline = start + kPhaseDeadline;
  std::size_t b = 0;
  while ((b < n_bursts || dlog.applied < n_updates) &&
         Clock::now() < deadline) {
    if (b < n_bursts) {
      const auto burst_due = shifted(static_cast<double>(b) * burst_gap);
      if (Clock::now() >= burst_due) {
        const Burst& burst = pool[b % pool.size()];
        Clock::time_point a, e;
        const SentBurst sent =
            send(rt, burst, split_burst(tracer, b, pool.size()), tracer, slog,
                 a, e);
        const double due_s = secs(burst_due - start);
        delayed += due_s >= dlog.last_start_s && due_s < dlog.last_end_s;
        slog.latency_us.push_back(secs(e - burst_due) * 1e6);
        if (b % kMixedCheckEvery == 0) {
          const auto c = Clock::now();
          slog.checked += burst.payloads.size();
          slog.wrong += check_burst(rt, burst, sent, plant);
          paused_ns += (Clock::now() - c).count();
        }
        ++b;
        continue;
      }
    }
    if (pipeline.queue().depth() > 0) {
      dlog.drain(pipeline, tracer, rt, start, update_due);
      continue;
    }
    if (b == n_bursts && generator_done && !generator_error.empty()) break;
    std::this_thread::yield();
  }
  generator.join();
  const Snapshot s1 = Snapshot::take(rt);
  const double wall = secs(Clock::now() - start) -
                      static_cast<double>(paused_ns.load()) * 1e-9;
  for (auto& c : clients) c->close();

  add_latency_metrics(res, "update_latency", "ms", dlog.latency_ms);
  add_latency_metrics(res, "packet_latency", "us", slog.latency_us);
  // The open-loop schedule sets the wall-clock rate while the control
  // thread keeps up, so the gate is a rate the program sets: payloads per
  // second of send_batch time, among the installs and the fast-path rules
  // they pile up. Updates per busy second would follow how many drains the
  // seed's bursts split into, each paying one incremental proof; the
  // install cost is gated as op_latency_p50_us instead.
  const auto ops = static_cast<double>(dlog.applied + slog.payloads);
  res.named.push_back({"completed_ops_per_s", ops / wall, "1/s",
                       dlog.applied + slog.payloads});
  res.named.push_back({"ops_per_busy_s", ratio(ops, dlog.busy_s + slog.busy_s),
                       "1/s", dlog.applied + slog.payloads});
  const double pps = pass_rate(slog, pool);
  res.named.push_back({"packet_rate_mpps", pps / 1e6, "Mpps", slog.payloads});
  res.json.push_back({"ops_per_s", pps, "1/s", slog.payloads});
  // The gate's latency is the median install stall: how long one drain
  // (with its flush, incremental proof and WAL appends) holds the control
  // thread, and with it every burst that falls due meanwhile. It moves in
  // proportion to install cost, where packet latency percentiles jump
  // between the stalled and unstalled populations of bursts.
  res.named.push_back({"install_stall_p50_ms",
                       percentile(dlog.stall_us, 0.5) / 1e3, "ms",
                       dlog.stall_us.size()});
  res.json.push_back({"op_latency_p50_us", percentile(dlog.stall_us, 0.5),
                      "us", dlog.stall_us.size()});

  update_layers(res, dlog, s0, s1, wall, percentile(late_ms, 0.99),
                late_ms.size());
  packet_layers(res, slog, tracer);
  final_state_layers(res, rt, &pipeline);
  Registry t(rt);
  const double verify_s = s1.verify_s - s0.verify_s;
  res.layer("verify.ms_per_check",
            ratio(verify_s, static_cast<double>(s1.verify_n - s0.verify_n)) *
                1e3,
            s1.verify_n - s0.verify_n);
  res.layer("verify.busy_frac", ratio(verify_s, wall), s1.verify_n - s0.verify_n);
  res.layer("verify.violations", static_cast<double>(t.violations()));
  res.layer("persist.wal_records",
            static_cast<double>(s1.wal_records - s0.wal_records));
  res.layer("persist.wal_bytes",
            static_cast<double>(s1.wal_bytes - s0.wal_bytes));
  res.layer("mixed.bursts_delayed_frac",
            ratio(static_cast<double>(delayed),
                  static_cast<double>(slog.bursts)),
            slog.bursts);

  res.check("update generator finished cleanly" +
                (generator_error.empty() ? "" : ": " + generator_error),
            generator_error.empty());
  res.check("every burst sent (" + std::to_string(b) + " / " +
                std::to_string(n_bursts) + ")",
            b == n_bursts);
  res.check("sdx_verify_violations_total == 0 for every kind (" +
                std::to_string(t.violations()) + ")",
            t.violations() == 0);
  update_checks(res, rt, pipeline, plan, dlog.applied);
  packet_checks(res, slog);
}

// ---------------------------------------------------------------------------
// Output

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void print_results(const Args& args, const Results& res) {
  for (const auto& m : res.named) {
    std::printf("metric %-26s %-16s %-9s n=%zu\n", m.name.c_str(),
                json_number(m.value).c_str(), m.unit.c_str(), m.samples);
  }
  for (const auto& m : res.json) {
    std::printf("e2e    %-26s %-16s %-9s n=%zu\n", m.name.c_str(),
                json_number(m.value).c_str(), m.unit.c_str(), m.samples);
  }
  if (args.trace) {
    for (const auto& [name, m] : res.layers) {
      std::printf("layer  %-34s %-16s %-6s n=%zu\n", name.c_str(),
                  json_number(m.value).c_str(), m.unit.c_str(), m.samples);
    }
  }
  for (const auto& n : res.notes) std::printf("note   %s\n", n.c_str());
  for (const auto& [what, ok] : res.checks) {
    std::printf("check  %-4s %s\n", ok ? "ok" : "FAIL", what.c_str());
  }
  std::string out = "{\"correct\": ";
  out += res.correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(res.attempted);
  out += ", \"failed\": " + std::to_string(res.failed);
  out += ", \"metrics\": {";
  bool first = true;
  auto emit = [&](const std::string& name, double v, const std::string& unit) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + json_number(v) +
           ", \"unit\": \"" + unit + "\"}";
  };
  if (args.trace) {
    for (const auto& [name, m] : res.layers) emit(name, m.value, m.unit);
  } else {
    for (const auto& m : res.json) emit(m.name, m.value, m.unit);
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

/// Trace runs: each layer's self time and the unattributed remainder (time
/// inside drain() or send_batch that no layer metric accounts for) set
/// beside ROADMAP's 5%-of-wall target. Not a gate.
void attribute_time(Results& res, const Tracer& tracer, double wall_s) {
  auto total = [&](const char* n) { return tracer.total_s(n); };
  const double drain = total("ingest.drain");
  const double fast = total("sdx.fast_path");
  const double verify = total("verify");
  const double drain_rest = std::max(0.0, drain - fast - verify);
  const double send_rest =
      std::max(0.0, total("dataplane.send_batch.unattributed"));
  const double busy = drain + total("dataplane.send_batch") +
                      total("dataplane.router") + total("dataplane.switch");
  std::printf("self   %-34s %.6f s\n", "ingest.push (generator thread)",
              total("ingest.push"));
  std::printf("self   %-34s %.6f s\n", "sdx.fast_path", fast);
  std::printf("self   %-34s %.6f s\n", "verify", verify);
  std::printf("self   %-34s %.6f s\n", "dataplane.router (split bursts)",
              total("dataplane.router"));
  std::printf("self   %-34s %.6f s\n", "dataplane.switch (split bursts)",
              total("dataplane.switch"));
  std::printf("self   %-34s %.6f s\n", "send_batch (whole bursts)",
              total("dataplane.send_batch"));
  std::printf("self   %-34s %.6f s\n", "drain unattributed", drain_rest);
  std::printf("self   %-34s %.6f s\n", "send_batch unattributed", send_rest);
  std::printf("self   %-34s %.6f s\n", "control thread outside calls",
              std::max(0.0, wall_s - busy));
  const double frac = ratio(drain_rest + send_rest, wall_s);
  res.layer("trace.remainder_frac", frac);
  std::printf("remainder %.2f%% of %.3f s wall; ROADMAP target < 5%%: %s\n",
              frac * 100, wall_s, frac < 0.05 ? "met" : "not met");
}

int run(const Args& args) {
  Results res;
  for (const auto& [name, unit] : kLayerMetrics) {
    res.layers[name] = {name, 0.0, unit, 0};
  }
  std::printf("# sdx_e2e workload=%s seed=%llu seconds=%g trace=%d scale=%s\n",
              args.workload_name.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, args.toy ? "toy" : "full");

  const Exchange ex = make_exchange(args.workload, args.toy);
  UpdatePlan churn_plan;
  if (args.workload == Workload::kChurn) {
    const ChurnSizes n = churn_sizes(args);
    churn_plan = plan_updates(ex, args.seed, n.single + n.paced + n.line);
  }
  std::optional<TrafficSends> traffic;
  if (args.workload == Workload::kTraffic) traffic.emplace(args, ex);
  ::malloc_trim(0);
  std::printf("note   memory before set-up: VmHWM %.1f MB, VmRSS %.1f MB\n",
              status_mb("VmHWM"), status_mb("VmRSS"));
  const std::filesystem::path work =
      std::filesystem::path(args.work_dir) /
      (args.workload_name + "-" + std::to_string(args.seed) + "-" +
       std::to_string(::getpid()));

  // Set up several times, keep the last deployment, report the medians.
  std::vector<double> setup_s, rib_s, install_s, verify_s;
  Tracer tracer(args.trace);
  Deployment d;
  SingleUpdates single;
  std::size_t installed_rules = 0;
  for (int k = 0; k < args.setups; ++k) {
    set_up(d, ex, args.workload, work / ("journal" + std::to_string(k)),
           k + 1 == args.setups ? &tracer : nullptr);
    installed_rules = d.rt->fabric().sdx_switch().table().size();
    if (args.workload == Workload::kChurn) {
      single.run(churn_plan, churn_sizes(args).single, d);
    }
    if (traffic && k + 1 < args.setups) {
      Tracer untraced(false);
      traffic->run(*d.rt, traffic->total * (k + 1) / args.setups, untraced);
    }
    setup_s.push_back(d.setup_s);
    rib_s.push_back(d.rib_load_s);
    install_s.push_back(d.install_s);
    verify_s.push_back(d.verify_full_s);
  }
  auto& rt = *d.rt;
  res.layer("bgp.rib_load_s", percentile(rib_s, 0.5), rib_s.size());
  res.layer("sdx.install_s", percentile(install_s, 0.5), install_s.size());
  if (args.workload == Workload::kMixed) {
    Registry t(rt);
    res.layer("verify.full_s", percentile(verify_s, 0.5), verify_s.size());
    res.layer("verify.classes",
              static_cast<double>(t.counter("sdx_verify_classes_total")));
    res.layer("verify.edges",
              static_cast<double>(t.counter("sdx_verify_edges_total")));
  }
  std::string each;
  for (double v : setup_s) each += " " + json_number(v);
  std::printf("note   set-ups (s):%s\n", each.c_str());
  std::printf("note   exchange: %zu participants, %zu prefixes, %zu routes, "
              "%zu flow rules after install\n",
              ex.ixp.participants.size(), ex.ixp.prefixes.size(),
              ex.routes.size(), installed_rules);

  const auto mark = Clock::now();
  { auto s = rt.telemetry().tracer.span("e2e.clock_mark"); }
  const auto phase_start = Clock::now();
  switch (args.workload) {
    case Workload::kChurn:
      run_churn(args, d, churn_plan, single, tracer, res);
      break;
    case Workload::kTraffic: run_traffic(d, *traffic, tracer, res); break;
    case Workload::kMixed: run_mixed(args, ex, d, tracer, res); break;
  }
  const double phase_wall = secs(Clock::now() - phase_start);

  const double setup_median = percentile(setup_s, 0.5);
  const double rss = status_mb("VmHWM");
  res.named.insert(res.named.begin(), {"setup_s", setup_median, "s",
                                       setup_s.size()});
  res.named.push_back({"peak_rss_mb", rss, "MB", 1});
  res.json.insert(res.json.begin(), {"setup_s", setup_median, "s",
                                     setup_s.size()});
  res.json.push_back({"peak_rss_mb", rss, "MB", 1});

  if (args.trace) {
    attribute_time(res, tracer, phase_wall);
    if (!args.trace_out.empty()) {
      double mark_us = 0;
      for (const auto& r : rt.telemetry().tracer.records()) {
        if (r.name == "e2e.clock_mark") mark_us = r.start_us;
      }
      std::ofstream out(args.trace_out);
      out << tracer.merge_chrome(rt.dump_trace(), mark, mark_us);
      std::printf("note   chrome trace written to %s\n",
                  args.trace_out.c_str());
    }
  }
  print_results(args, res);
  d.reset();
  std::filesystem::remove_all(work);
  return res.correct() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sdx_e2e: %s\n", e.what());
    return 2;
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sdx_e2e: %s\n", e.what());
    return 1;
  }
}
