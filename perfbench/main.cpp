// lds_perfbench — the repository's layered benchmark.
//
//   lds_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--work-dir DIR]
//
// --trace 0 prints the end-to-end metrics (tracing off); --trace 1 runs the
// traced pass and prints the per-layer metrics.  The last stdout line is one
// JSON object {"correct","attempted","failed","metrics"}.  Any verification
// failure (client or shard history, counter cross-check, codes output)
// exits 1 without reporting a number.  perfbench/README.md defines every
// metric.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <thread>

#include "bench.h"
#include "gf/gf256.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".bench_build/perfbench-work";
};

/// Ordered metric list printed as the human table and the JSON line.
struct Metrics {
  struct Entry {
    std::string name, unit, note;
    double value;
    bool in_json;  ///< false = printed in the table only
  };
  std::vector<Entry> entries;
  void add(std::string name, double value, std::string unit,
           std::string note = "", bool in_json = true) {
    entries.push_back({std::move(name), std::move(unit), std::move(note),
                       value, in_json});
  }
};

/// Counters of one quiesced service, read through its public accessors.
struct ServiceCounters {
  double puts = 0, coalesced = 0, rejected = 0, batch_size_mean = 0;
  double write_data = 0, write_msgs = 0, read_data = 0;
  double l2_bytes = 0, l1_tags_max = 0;
  double wal_appends = 0, wal_syncs = 0, wal_bytes = 0;
};

ServiceCounters collect(store::StoreService& svc) {
  ServiceCounters c;
  auto& m = svc.metrics();
  c.puts = static_cast<double>(m.counter_total("puts"));
  c.coalesced = static_cast<double>(m.counter_total("puts_coalesced"));
  c.rejected = static_cast<double>(m.counter_total("puts_rejected"));
  double batch_sum = 0, batches = 0;
  for (const auto& s : m.snapshot().shards) {
    if (const auto it = s.histograms.find("batch_size");
        it != s.histograms.end()) {
      batch_sum += it->second.mean * static_cast<double>(it->second.count);
      batches += static_cast<double>(it->second.count);
    }
  }
  c.batch_size_mean = batches > 0 ? batch_sum / batches : 0;
  for (std::size_t s = 0; s < svc.num_shards(); ++s) {
    core::LdsCluster& lds = *svc.shard_lds(s);
    const net::CostTracker& costs = lds.net().costs();
    // Paper convention: every message carries its client op's id, the
    // L1->L2 offload included.  Writes are in the shard history; all other
    // data bytes are read traffic (repair heartbeats carry none).
    double wd = 0, wm = 0;
    for (const auto& op : svc.shard_history(s).ops()) {
      if (op.kind != core::OpKind::Write) continue;
      const net::CostBucket b = costs.by_op(op.id);
      wd += static_cast<double>(b.data_bytes);
      wm += static_cast<double>(b.messages);
    }
    c.write_data += wd;
    c.write_msgs += wm;
    c.read_data += static_cast<double>(costs.total().data_bytes) - wd;
    c.l2_bytes += static_cast<double>(lds.meter().l2_bytes());
    const auto& cfg = lds.ctx().cfg;
    for (std::size_t j = 0; j < cfg.n1; ++j) {
      for (std::size_t obj = 0; obj < svc.shard_objects(s); ++obj) {
        c.l1_tags_max = std::max(
            c.l1_tags_max,
            static_cast<double>(
                lds.l1(j).list_tags(static_cast<ObjectId>(obj)).size()));
      }
    }
    for (std::size_t i = 0; i < cfg.n2; ++i) {
      if (storage::Backend* b = lds.l2(i).storage_backend()) {
        c.wal_appends += static_cast<double>(b->wal_stats().appends);
        c.wal_syncs += static_cast<double>(b->wal_stats().syncs);
        c.wal_bytes += static_cast<double>(b->wal_stats().appended_bytes);
      }
    }
  }
  return c;
}

double ratio(double a, double b) { return b > 0 ? a / b : 0; }

/// Ops/s in the last tenth of the window ÷ ops/s in the first tenth.
double decay(const LoadResult& r) {
  return ratio(static_cast<double>(r.last_tenth),
               static_cast<double>(r.first_tenth));
}

/// Tail latency.  It is printed with the end-to-end table but kept out of
/// the bounded set: on a 4-core host the tails of sub-millisecond ops moved
/// by 0.3-1.3 (quartile spread / median) between seeds, beyond any bound a
/// regression gate can use.  The traced run reports it per layer instead.
void add_tail(Metrics* m, const std::string& name, const std::vector<double>& v,
              bool in_json) {
  std::string label;
  const double t = tail(v, &label);
  m->add(name, t, "ms",
         label + " of " + std::to_string(v.size()) +
             (in_json ? "" : "; not in the bounded set"),
         in_json);
}

/// Repetitions per run: each is a fresh deployment (set-up included)
/// measured for seconds / kReps after a warm-up.
constexpr int kReps = 4;

/// One repetition: set up a fresh served deployment, drive it, verify it.
/// Latency samples are appended to `pooled`; the other metrics go to `out`.
bool run_rep(const Args& a, const Workload& w, int rep, Metrics* out,
             LoadResult* pooled) {
  reset_peak_rss();
  Deployment dep(w, a.seed, a.work_dir + "/rep-" + std::to_string(rep), true);
  if (!dep.ok()) return false;
  const LoadResult load = run_load(dep, w, mix_seed(a.seed, rep),
                                   a.seconds / kReps, nullptr, Layer::Client);
  pooled->attempted += load.attempted;
  pooled->failed += load.failed;
  pooled->first_tenth += load.first_tenth;
  pooled->last_tenth += load.last_tenth;
  pooled->get_ms.insert(pooled->get_ms.end(), load.get_ms.begin(),
                        load.get_ms.end());
  pooled->put_ms.insert(pooled->put_ms.end(), load.put_ms.begin(),
                        load.put_ms.end());
  if (!dep.finish()) return false;
  const ServiceCounters c = collect(dep.svc());
  const double v = static_cast<double>(w.value_size);

  out->add("ops_per_s", load.ops_per_s, "1/s",
           w.rate > 0 ? "open loop, offered " + std::to_string(w.rate)
                      : "closed loop");
  out->add("setup_s", dep.setup_s(), "s");
  out->add("peak_rss_mb", peak_rss_mb(), "MiB");
  out->add("write_cost", ratio(c.write_data, c.puts * v), "B/B");
  out->add("read_cost",
           ratio(c.read_data, static_cast<double>(load.all_gets) * v), "B/B");
  out->add("l2_storage_cost",
           ratio(c.l2_bytes, static_cast<double>(w.keys) * v), "B/B");
  return true;
}

/// --trace 0: end-to-end metrics, tracing off, over kReps fresh deployments
/// (set-up included).  Latency percentiles and tput_decay pool every
/// repetition's samples; every other metric is the median over them.
bool run_untraced(const Args& a, const Workload& w, Metrics* out,
                  LoadResult* pooled) {
  std::vector<Metrics> reps(kReps);
  for (int r = 0; r < kReps; ++r) {
    if (!run_rep(a, w, r, &reps[r], pooled)) return false;
  }
  const auto median_of = [&](std::size_t i) {
    std::vector<double> v;
    for (const Metrics& m : reps) v.push_back(m.entries[i].value);
    const auto& e = reps[0].entries[i];
    std::string reps_note = "median of";
    for (const double x : v) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), " %.4g", x);
      reps_note += buf;
    }
    out->add(e.name, percentile(v, 0.5), e.unit,
             reps_note + (e.note.empty() ? "" : "; " + e.note));
  };
  median_of(0);  // ops_per_s
  out->add("get_p50_ms", percentile(pooled->get_ms, 0.5), "ms");
  add_tail(out, "get_tail_ms", pooled->get_ms, false);
  out->add("put_p50_ms", percentile(pooled->put_ms, 0.5), "ms");
  add_tail(out, "put_tail_ms", pooled->put_ms, false);
  // Printed, not bounded: without a slowdown the ratio still moved by a
  // quarter between seeds (backend-large speeds up through its window).
  out->add("tput_decay", decay(*pooled), "ratio",
           "last tenth / first tenth, all repetitions; not in the bounded set",
           false);
  for (std::size_t i = 1; i < reps[0].entries.size(); ++i) median_of(i);
  return true;
}

/// --trace 1: untraced reference run, traced run, in-process replay and the
/// isolated layers; per-layer metrics.
bool run_traced(const Args& a, const Workload& w, Metrics* out,
                LoadResult* load) {
  SpanLog spans;
  const double window = a.seconds / kReps;  // the same window as one rep
  LoadResult untraced;
  {
    Deployment ref(w, a.seed, a.work_dir + "/ref", true);
    if (!ref.ok()) return false;
    untraced = run_load(ref, w, a.seed, window, nullptr, Layer::Client);
    if (!ref.finish()) return false;
  }

  constexpr std::size_t kProbes = 1000;
  Deployment dep(w, a.seed, a.work_dir + "/traced", true, true);
  if (!dep.ok()) return false;
  *load = run_load(dep, w, a.seed, window, &spans, Layer::Client);
  const std::vector<double> wire_probe =
      probe_not_found(dep, kProbes, &spans, Layer::WireProbe);
  if (wire_probe.empty() || !dep.finish()) return false;
  const ServiceCounters c = collect(dep.svc());
  const Deployment::MessageCounts mc = dep.message_counts();
  const codes::StripedCode code = dep.svc().shard_lds(0)->ctx().code;
  const auto& cfg = dep.svc().shard_lds(0)->ctx().cfg;

  LoadResult replay;
  std::vector<double> service_probe;
  {
    Deployment local(w, a.seed, a.work_dir + "/replay", false);
    if (!local.ok()) return false;
    replay = run_load(local, w, a.seed, window, &spans, Layer::Service);
    service_probe = probe_not_found(local, kProbes, &spans,
                                    Layer::ServiceProbe);
    if (service_probe.empty() || !local.finish()) return false;
    load->failed += replay.failed;
  }

  const CodesTiming ct =
      time_codes(code, cfg.n1, w.value_size, a.seed, 1.0, &spans);
  if (!ct.ok) {
    std::fprintf(stderr, "perfbench: a timed codes call returned a wrong "
                         "answer\n");
    return false;
  }
  double sync_ms = 0;
  if (w.durable) {
    sync_ms = time_storage_put(a.work_dir + "/storage",
                               code.element_size(w.value_size), a.seed, 1.0,
                               &spans);
    if (sync_ms < 0) return false;
  }

  const double v = static_cast<double>(w.value_size);
  const double gets = static_cast<double>(load->gets);
  const double ops = static_cast<double>(load->gets + load->puts);
  // Service counters span the deployment's life, warm-up included.
  const double all_gets = static_cast<double>(load->all_gets);
  add_tail(out, "client.get_tail_ms", untraced.get_ms, true);
  add_tail(out, "client.put_tail_ms", untraced.put_ms, true);
  out->add("client.tput_decay", decay(untraced), "ratio");
  out->add("loadgen.late_p99_ms", percentile(load->late_ms, 0.99), "ms",
           w.rate > 0 ? "" : "closed loop");
  out->add("cache.hit_rate", ratio(load->cache_hits, gets), "ratio");
  out->add("cache.validations_per_get", ratio(load->cache_validations, gets),
           "count");
  out->add("cache.saved_value_bytes_per_get", ratio(load->cache_saved, gets),
           "B");

  const double full_get_frame = ratio(load->get_frame_bytes, gets);
  const double validation_frame = ratio(load->validation_frame_bytes, gets);
  const double wire_bytes =
      static_cast<double>(load->put_frame_bytes) +
      (gets - static_cast<double>(load->cache_hits)) * full_get_frame +
      static_cast<double>(load->cache_validations) * validation_frame;
  out->add("wire.get_p50_ms",
           percentile(load->get_ms, 0.5) - percentile(replay.get_ms, 0.5),
           "ms");
  out->add("wire.put_p50_ms",
           percentile(load->put_ms, 0.5) - percentile(replay.put_ms, 0.5),
           "ms");
  out->add("wire.bytes_per_op", ratio(wire_bytes, ops), "B");

  out->add("service.get_p50_ms", percentile(replay.get_ms, 0.5), "ms");
  out->add("service.put_p50_ms", percentile(replay.put_ms, 0.5), "ms");
  out->add("service.batch_size_mean", c.batch_size_mean, "count");
  out->add("service.coalesced_frac", ratio(c.coalesced, c.puts), "ratio");
  out->add("service.rejected_frac", ratio(c.rejected, c.puts), "ratio");

  // Counted calls per op x the isolated unit times.
  const double encodes = ratio(static_cast<double>(mc.write_code_elem),
                               static_cast<double>(cfg.n1 * cfg.n2));
  const double codes_get_ms =
      ratio(static_cast<double>(mc.send_helper) * ct.helper_us +
                static_cast<double>(mc.resp_coded + mc.resp_nack) *
                    ct.repair_us +
                static_cast<double>(mc.regen_reads) * ct.decode_us,
            all_gets) /
      1e3;
  const double codes_put_ms = ratio(encodes * ct.encode_us, c.puts) / 1e3;

  out->add("lds.msgs_per_put", ratio(c.write_msgs, c.puts), "count");
  out->add("lds.msgs_per_get",
           ratio(static_cast<double>(mc.lds_messages) - c.write_msgs,
                 all_gets),
           "count");
  out->add("lds.regen_frac",
           ratio(static_cast<double>(mc.regen_reads), all_gets), "ratio");
  out->add("lds.l1_tags_per_object_max", c.l1_tags_max, "count");
  out->add("lds.other_ms_per_get", mean(replay.get_ms) - codes_get_ms, "ms");

  out->add("codes.encode_us", ct.encode_us, "us");
  out->add("codes.helper_us", ct.helper_us, "us");
  out->add("codes.repair_us", ct.repair_us, "us");
  out->add("codes.decode_us", ct.decode_us, "us");
  out->add("codes.ms_per_get", codes_get_ms, "ms");
  out->add("codes.ms_per_put", codes_put_ms, "ms");

  out->add("storage.appends_per_put", ratio(c.wal_appends, c.puts), "count");
  out->add("storage.syncs_per_put", ratio(c.wal_syncs, c.puts), "count");
  out->add("storage.wal_bytes_per_value_byte", ratio(c.wal_bytes, c.puts * v),
           "ratio");
  out->add("storage.sync_ms_p50", sync_ms, "ms",
           w.durable ? "this host's filesystem, not a device figure"
                     : "RAM only");

  // Self time per op of each layer.  The replay is the in-process model of
  // a client call's service part, the NotFound probes isolate the wire, and
  // codes/storage are counted calls x isolated unit times; what the parts
  // leave of the client mean is reported, not forced to zero.
  const double all_ops = static_cast<double>(replay.get_ms.size() +
                                             replay.put_ms.size());
  std::vector<double> client_ms = load->get_ms;
  client_ms.insert(client_ms.end(), load->put_ms.begin(), load->put_ms.end());
  const double client_mean = mean(client_ms);
  const double service_mean =
      ratio(mean(replay.get_ms) * static_cast<double>(replay.get_ms.size()) +
                mean(replay.put_ms) * static_cast<double>(replay.put_ms.size()),
            all_ops);
  const double codes_ms =
      ratio(codes_get_ms * gets +
                codes_put_ms * static_cast<double>(load->puts),
            ops);
  const double storage_ms =
      ratio(c.wal_appends, c.puts) * ratio(load->puts, ops) * sync_ms;
  const double wire_ms = mean(wire_probe) - mean(service_probe);
  out->add("trace.overhead", ratio(load->ops_per_s, untraced.ops_per_s), "ratio");
  out->add("trace.client.ms", client_mean, "ms");
  out->add("trace.wire.self_ms", wire_ms, "ms");
  out->add("trace.service.self_ms", service_mean - codes_ms - storage_ms,
           "ms");
  out->add("trace.codes.self_ms", codes_ms, "ms");
  out->add("trace.storage.self_ms", storage_ms, "ms");
  out->add("trace.unaccounted_frac",
           ratio(client_mean - wire_ms - service_mean, client_mean), "ratio");

  const std::string csv = a.work_dir + "/../perfbench-spans-" + w.name + ".csv";
  if (!spans.write_csv(csv)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", csv.c_str());
  }
  return true;
}

void usage() {
  std::fprintf(stderr,
               "usage: lds_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR]\nworkloads:");
  for (const auto& w : workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
}

int main_impl(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (v == nullptr) {
      usage();
      return 2;
    }
    ++i;
    if (arg == "--workload") {
      a.workload = v;
    } else if (arg == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      a.seconds = std::strtod(v, nullptr);
    } else if (arg == "--trace") {
      a.trace = std::string(v) == "1";
    } else if (arg == "--work-dir") {
      a.work_dir = v;
    } else {
      usage();
      return 2;
    }
  }
  const Workload* w = find_workload(a.workload);
  if (w == nullptr || !(a.seconds > 0)) {
    usage();
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(a.work_dir, ec);

  std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d\n",
              w->name, static_cast<unsigned long long>(a.seed), a.seconds,
              a.trace ? 1 : 0);
  std::printf("host: nproc=%u build=%s gf_isa=%s work_dir_fs=%s sync=%s\n",
              std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
              gf::isa_name(gf::active_isa()), fs_type(a.work_dir).c_str(),
              w->durable ? "always" : "none (RAM only)");

  Metrics m;
  LoadResult load;
  const CpuTimes cpu0 = read_cpu_times();
  bool correct = cross_check_costs(w->value_size, a.seed);
  if (!correct) {
    std::fprintf(stderr, "perfbench: counter cross-check FAILED\n");
  } else {
    correct = a.trace ? run_traced(a, *w, &m, &load)
                      : run_untraced(a, *w, &m, &load);
  }
  std::filesystem::remove_all(a.work_dir, ec);
  const CpuTimes cpu1 = read_cpu_times();
  // Time the hypervisor gave to other guests: a run with a large share
  // measured a contended host.
  std::printf("host: cpu_steal=%.2f%% during the run\n",
              100 * ratio(cpu1.steal - cpu0.steal, cpu1.total - cpu0.total));
  if (!correct) {
    std::fprintf(stderr, "perfbench: VERIFICATION FAILED\n");
    std::printf("{\"correct\": false, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {}}\n",
                static_cast<unsigned long long>(std::max<std::uint64_t>(
                    load.attempted, 1)),
                static_cast<unsigned long long>(load.failed));
    return 1;
  }

  for (const auto& e : m.entries) {
    std::printf("  %-36s %14.6f %-6s %s\n", e.name.c_str(), e.value,
                e.unit.c_str(), e.note.c_str());
  }
  std::string json = "{\"correct\": true, \"attempted\": " +
                     std::to_string(load.attempted) +
                     ", \"failed\": " + std::to_string(load.failed) +
                     ", \"metrics\": {";
  const char* sep = "\"";
  for (const auto& e : m.entries) {
    if (!e.in_json) continue;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g",
                  std::isfinite(e.value) ? e.value : 0.0);
    json += sep + e.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
            e.unit + "\"}";
    sep = ", \"";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::main_impl(argc, argv); }
