// Shared declarations of the layered LDS benchmark (perfbench/).
//
// One process hosts the served StoreService exactly as tools/lds_served.cpp
// builds it (Parallel engine, 2 shards, 2 lanes, listen(0) with one net
// thread, default LDS/PM-MBR geometry n1=6 f1=1 n2=8 f2=2) and drives it
// through store::Client::connect over loopback TCP.  Because the service is
// in-process, every layer's counters are read through the public accessors
// after a quiesce.  See perfbench/README.md for the metric definitions.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/slice.h"
#include "harness/workload.h"
#include "lds/history.h"
#include "store/client.h"
#include "store/store_service.h"

namespace perfbench {

using namespace lds;

/// One traffic mix.  Every field is fixed here; only the seed varies.
struct Workload {
  const char* name;
  double rate;  ///< open loop: total offered ops/s (Poisson); 0 = closed
  std::size_t clients;  ///< load threads, one client + one connection each
  std::size_t value_size;
  double read_fraction;
  double zipf_theta;  ///< 0 = uniform
  std::size_t keys;   ///< preloaded in setup
  bool cache;         ///< client read cache at ttl=0
  bool durable;       ///< data_dir with SyncPolicy::Always
};

const Workload* find_workload(const std::string& name);
const std::vector<Workload>& workloads();

/// The service options lds_served uses by default, for `w`.
store::StoreOptions service_options(const Workload& w,
                                    const std::string& data_dir);

/// `w`'s key popularity model (keys, Zipf skew, mix, value size).
harness::WorkloadModel workload_model(const Workload& w);

double now_s();

/// `n` pseudo-random bytes from `rng` (8 bytes per draw).
Bytes make_value(Rng& rng, std::size_t n);

/// Exact order statistic (linear interpolation) of an unsorted sample.
double percentile(std::vector<double> v, double p);
double mean(const std::vector<double>& v);

/// The highest of p99.9, p99 and p90 with at least 50 samples beyond it
/// (p50 when even p90 has fewer).  `label` names the one chosen.
double tail(const std::vector<double>& v, std::string* label);

// ---- spans -------------------------------------------------------------------

/// Layers the benchmark's own spans are recorded in.
enum class Layer : std::uint8_t {
  Client,         ///< one store::Client call over TCP (traced remote run)
  Service,        ///< one StoreService call in the in-process replay
  WireProbe,      ///< NotFound get over TCP (wire + dispatch only)
  ServiceProbe,   ///< NotFound get in-process
  CodesEncode,
  CodesHelper,
  CodesRepair,
  CodesDecode,
  StoragePut,     ///< backend put + fdatasync
};
const char* layer_name(Layer l);

struct Span {
  std::uint64_t id = 0;  ///< op id; spans of one op share it
  Layer layer = Layer::Client;
  bool read = false;
  double start = 0, end = 0;  ///< seconds, steady clock
};

/// In-memory span store: each recording thread appends to its own buffer
/// (registered once under the lock), so recording never contends.
class SpanLog {
 public:
  std::vector<Span>* buffer();
  std::vector<Span> all() const;
  std::uint64_t next_id() { return next_id_++; }
  /// Write every span as CSV (id,layer,kind,start_s,end_s).
  bool write_csv(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<std::vector<Span>>> buffers_;
  std::atomic<std::uint64_t> next_id_{1};
};

// ---- client-observed history -----------------------------------------------

/// Every op a client saw complete, for check_atomicity and
/// verify_read_freshness (wall-clock seconds since the deployment began).
class ClientHistory {
 public:
  void record(core::OpKind kind, const std::string& key, NodeId client,
              double invoked, double responded, Tag tag, Value value);
  /// Run both verifiers; prints the violation and returns false on failure.
  bool verify(const char* who) const;

 private:
  mutable std::mutex mu_;
  core::History history_;
  std::unordered_map<std::string, ObjectId> objects_;
  std::uint32_t seq_ = 0;
};

// ---- deployment ---------------------------------------------------------------

/// A fresh service plus its connected load clients.  Construction is the
/// set-up the benchmark times: service construction (durable open),
/// listen, preload of every key, and connecting the load clients.
class Deployment {
 public:
  /// `remote` = listen and connect over TCP; otherwise the clients are
  /// in-process store::Clients on the same service (the replay).  `count`
  /// installs per-shard LDS message counters before any traffic.
  Deployment(const Workload& w, std::uint64_t seed, std::string data_dir,
             bool remote, bool count = false);
  ~Deployment();
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  bool ok() const { return ok_; }
  double setup_s() const { return setup_s_; }
  store::StoreService& svc() { return *svc_; }
  store::Client& client(std::size_t i) { return *clients_.at(i); }
  std::size_t num_clients() const { return clients_.size(); }
  ClientHistory& history() { return history_; }
  double t0() const { return t0_; }

  struct MessageCounts {
    std::uint64_t lds_messages = 0, write_code_elem = 0, send_helper = 0,
                  resp_coded = 0, resp_nack = 0, regen_reads = 0;
  };
  MessageCounts message_counts() const;

  /// Close the clients, stop listening, quiesce and verify every shard
  /// history plus the client-observed history.  False on any violation.
  bool finish();

 private:
  struct ShardCounters;
  void count_messages();

  const Workload& w_;
  std::string data_dir_;
  bool remote_;
  bool ok_ = false;
  double setup_s_ = 0;
  double t0_ = 0;
  ClientHistory history_;
  std::unique_ptr<store::StoreService> svc_;
  std::vector<std::unique_ptr<store::Client>> clients_;
  std::vector<std::unique_ptr<ShardCounters>> counters_;
};

// ---- load -------------------------------------------------------------------

struct LoadResult {
  std::vector<double> get_ms, put_ms;
  std::vector<double> late_ms;     ///< open loop: send time - due time
  std::uint64_t attempted = 0, failed = 0;
  std::uint64_t gets = 0, puts = 0;          ///< in the measured window
  std::uint64_t all_gets = 0;                ///< warm-up included
  double ops_per_s = 0;
  /// Ops completed in the first and the last tenth of the window.
  std::uint64_t first_tenth = 0, last_tenth = 0;
  /// Exact codec frame bytes of every request + reply (see load.cpp).
  std::uint64_t put_frame_bytes = 0, get_frame_bytes = 0,
                validation_frame_bytes = 0;
  /// Summed client read-cache counters.
  std::uint64_t cache_hits = 0, cache_validations = 0, cache_saved = 0;
};

/// Drive `dep`'s clients with `w` for `seconds`; ops come from per-client
/// generators seeded by `seed`, so the remote run and the in-process
/// replay see the same stream.  Spans go to `spans` (null = untraced).
LoadResult run_load(Deployment& dep, const Workload& w, std::uint64_t seed,
                    double seconds, SpanLog* spans, Layer layer);

/// `n` sequential gets of never-written keys on client 0: the op returns
/// NotFound from the service without touching the protocol.
std::vector<double> probe_not_found(Deployment& dep, std::size_t n,
                                    SpanLog* spans, Layer layer);

// ---- isolated layers -----------------------------------------------------------

struct CodesTiming {
  double encode_us = 0, helper_us = 0, repair_us = 0, decode_us = 0;
  bool ok = false;  ///< every output matched the encode_value reference
};
/// Median per-call time of each striped PM-MBR call at `value_size`, timed
/// alone through `code` for about `budget_s`; every output is checked.
CodesTiming time_codes(const codes::StripedCode& code, std::size_t n1,
                       std::size_t value_size, std::uint64_t seed,
                       double budget_s, SpanLog* spans);

/// Median DurableBackend put (SyncPolicy::Always) of an `element_size`
/// element in a fresh directory under `dir`; < 0 on I/O failure.
double time_storage_put(const std::string& dir, std::size_t element_size,
                        std::uint64_t seed, double budget_s, SpanLog* spans);

/// One-client sequential pass per geometry: measured write, read and L2
/// storage cost must match Lemma V.2/V.3 within stripe padding.
bool cross_check_costs(std::size_t value_size, std::uint64_t seed);

/// Filesystem type name of `path` (statfs magic), "unknown" otherwise.
std::string fs_type(const std::string& path);

/// Host CPU time (all states) and the part a hypervisor stole, in ticks.
struct CpuTimes {
  double total = 0, steal = 0;
};
CpuTimes read_cpu_times();

/// Return freed heap to the OS and restart the peak-RSS high-water mark,
/// so peak_rss_mb() covers only what runs afterwards.
void reset_peak_rss();
/// Peak resident set size of this process since the last reset, MiB.
double peak_rss_mb();

}  // namespace perfbench
