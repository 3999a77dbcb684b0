// Served-ledger benchmark program. One run: set up a durable served ledger
// several times (median reported), then drive it from 4 verifying clients
// over the unix socket through an open-loop phase (Poisson arrivals,
// latency from the scheduled arrival) and a closed-loop phase (the same
// mix back to back), time the op classes the mix lacks with an unloaded
// probe, audit the whole ledger from a fresh client, read back every
// admin target, and restart the ledger from disk. Prints one JSON object
// as the last line of stdout.
//
//   servebench --workload ingest|audit_read|mixed --seed N --seconds S
//              --trace 0|1 [--smoke] [--workdir DIR]
//
// --trace 0 reports the end-to-end metrics; --trace 1 reruns the same
// flow with the tracing plumbing of trace.h and reports per-layer ones.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "audit/remote_audit.h"
#include "client/ledger_client.h"
#include "host.h"
#include "inputs.h"
#include "net/socket_transport.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "trace.h"

namespace servebench {
namespace {

namespace fs = std::filesystem;

/// Stale-root retries before a verified op counts as failed.
constexpr int kMaxRefreshRetries = 32;
/// Share of --seconds given to the open-loop phase; the closed loop gets
/// the rest.
constexpr double kOpenShare = 0.6;
/// Unmeasured ops per client before the open-loop phase.
constexpr int kWarmOpsPerClient = 25;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string workdir = ".bench_build";
};

/// Ends the run without a result. _Exit: client threads may still be
/// running, so static destructors must not.
[[noreturn]] void Die(const std::string& why) {
  std::fflush(stdout);
  std::fprintf(stderr, "servebench: %s\n", why.c_str());
  std::fflush(stderr);
  std::_Exit(2);
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Die("missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") {
      args->workload = value();
    } else if (a == "--seed") {
      args->seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      args->seconds = std::atof(value().c_str());
    } else if (a == "--trace") {
      args->trace = value() == "1";
    } else if (a == "--smoke") {
      args->smoke = true;
    } else if (a == "--workdir") {
      args->workdir = value();
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0;
}

double Pct(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

double Median(const std::vector<double>& v) { return Pct(v, 50); }

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// User and system CPU time (µs) of the whole process, clients and server.
struct CpuUs {
  double user = 0;
  double sys = 0;
};
CpuUs ProcessCpuUs() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  auto us = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) * 1e6 + static_cast<double>(t.tv_usec);
  };
  return {us(ru.ru_utime), us(ru.ru_stime)};
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// ---------------------------------------------------------------------------
// The benchmark's own record of the ledger, kept apart from the program:
// who wrote each jsn (so its payload can be regenerated from the seed),
// which jsns were occulted or purged, and how many journals exist.
// ---------------------------------------------------------------------------

class Tally {
 public:
  void Reset(const std::vector<PreloadEntry>& plan) {
    std::lock_guard<std::mutex> lock(mu_);
    origin_.assign(plan.size() + 1, std::nullopt);
    for (size_t i = 0; i < plan.size(); ++i) origin_[i + 1] = plan[i].origin;
    occulted_.clear();
    purged_before_ = 0;
    journals_ = plan.size() + 1;  // + genesis
    payload_bytes_ = plan.size() * kPayloadBytes;
  }

  void Appended(uint64_t jsn, const Origin& origin) {
    std::lock_guard<std::mutex> lock(mu_);
    if (origin_.size() <= jsn) origin_.resize(jsn + 1);
    origin_[jsn] = origin;
    ++journals_;
    payload_bytes_ += kPayloadBytes;
  }
  void Occulted(uint64_t jsn) {
    std::lock_guard<std::mutex> lock(mu_);
    occulted_.push_back(jsn);
    ++journals_;  // the occult journal
  }
  void Purged(uint64_t before) {
    std::lock_guard<std::mutex> lock(mu_);
    purged_before_ = before;
    journals_ += 2;  // pseudo-genesis + purge journal
  }

  /// What a read of `jsn` must return: NotFound when purged, an occulted
  /// journal with no payload, or exactly the regenerated payload.
  std::string Check(uint64_t seed, const Journal& j) const {
    std::lock_guard<std::mutex> lock(mu_);
    if (j.jsn < purged_before_) return "purged journal served";
    const bool occulted = std::find(occulted_.begin(), occulted_.end(),
                                    j.jsn) != occulted_.end();
    if (occulted) {
      return j.occulted && j.payload.empty() ? "" : "occulted payload served";
    }
    if (j.jsn >= origin_.size() || !origin_[j.jsn].has_value()) {
      return "read of a journal the benchmark did not write";
    }
    if (j.occulted) return "journal served occulted but never occulted";
    return j.payload == Payload(seed, *origin_[j.jsn]) ? ""
                                                       : "payload mismatch";
  }

  uint64_t journals() const { std::lock_guard<std::mutex> l(mu_); return journals_; }
  uint64_t payload_bytes() const { std::lock_guard<std::mutex> l(mu_); return payload_bytes_; }
  uint64_t purged_before() const { std::lock_guard<std::mutex> l(mu_); return purged_before_; }
  std::vector<uint64_t> occulted() const { std::lock_guard<std::mutex> l(mu_); return occulted_; }

 private:
  mutable std::mutex mu_;
  std::vector<std::optional<Origin>> origin_;
  std::vector<uint64_t> occulted_;
  uint64_t purged_before_ = 0;
  uint64_t journals_ = 0;
  uint64_t payload_bytes_ = 0;
};

// ---------------------------------------------------------------------------
// Per-op outcomes
// ---------------------------------------------------------------------------

struct Sample {
  OpKind kind;
  Phase phase;
  double latency_us;  ///< from scheduled arrival (open loop) or send
  double late_us;     ///< open loop: send − scheduled arrival
  bool failed;
};

struct AdminSample {
  OpKind kind;
  Phase phase;
  uint64_t end_us;
  uint64_t held_us;  ///< time the op held the ledger mutex
};

uint64_t CounterValue(const obs::MetricsSnapshot& snap, const char* name) {
  for (const auto& [n, v] : snap.counters) {
    if (n == name) return v;
  }
  return 0;
}

int64_t GaugeValue(const obs::MetricsSnapshot& snap, const char* name) {
  for (const auto& [n, v] : snap.gauges) {
    if (n == name) return v;
  }
  return 0;
}

/// Cumulative counts read at phase boundaries; deltas give per-phase work.
struct Counters {
  double journals = 0;
  double blocks = 0;
  double write_bytes = 0;
  double cache_hits = 0;
  double cache_misses = 0;
  double cache_evictions = 0;
  double overwrites = 0;

  Counters operator-(const Counters& o) const {
    return {journals - o.journals, blocks - o.blocks, write_bytes - o.write_bytes,
            cache_hits - o.cache_hits, cache_misses - o.cache_misses,
            cache_evictions - o.cache_evictions, overwrites - o.overwrites};
  }
  Counters operator+(const Counters& o) const {
    return {journals + o.journals, blocks + o.blocks, write_bytes + o.write_bytes,
            cache_hits + o.cache_hits, cache_misses + o.cache_misses,
            cache_evictions + o.cache_evictions, overwrites + o.overwrites};
  }
};

/// A named figure with its unit.
struct Figure {
  std::string name;
  double value;
  std::string unit;
};

/// One verifying client: its own connection, identity and nonce space.
struct Client {
  std::unique_ptr<SocketTransport> socket;
  std::unique_ptr<TracedTransport> traced;
  std::unique_ptr<LedgerClient> client;
  SpanBuffer* spans = nullptr;
  uint32_t author = 0;
  uint64_t nonce = 0;  ///< the nonce the next AppendVerified signs
  std::vector<Sample> samples;
  std::vector<AdminSample> admin;
};

class Bench {
 public:
  Bench(const Args& args, const WorkloadSpec& spec)
      : args_(args),
        spec_(spec),
        scale_(args.smoke ? Scale::Smoke() : Scale::Default()) {}

  int Run();

 private:
  std::string RunDir() const {
    return args_.workdir + "/servebench-" + std::to_string(::getpid());
  }
  Env* env() { return args_.trace ? counting_env_.get() : Env::Default(); }
  void SetPhase(Phase p) { tracer_.SetPhase(p); }
  Phase phase() const { return tracer_.phase(); }

  void SetUpOnce(int rep, std::vector<double>* setup_s,
                 std::vector<double>* recover_s, std::vector<double>* join_s);
  void ConnectClients();
  void DisconnectClients();
  Status JoinClient(Client* c);

  Status Audited(Client* c, const std::function<Status()>& op);
  void RunOp(Client* c, const Op& op, uint64_t scheduled_us);
  Status DoAppend(Client* c, const Op& op);
  Status DoRead(Client* c, uint64_t jsn);
  Status DoRange(Client* c, const Op& op);
  Status DoOccult(Client* c);
  Status DoPurge(Client* c);
  void Mismatch(const std::string& what);

  void WarmUp();
  double OpenLoop();
  double ClosedLoop();
  /// Times, on the otherwise idle server, the op classes the workload's
  /// mix lacks, so every workload reports every class. Admin ops run
  /// after the final audit, which cannot pass over purged journals.
  void Probe();
  void ProbeAdmin();
  Counters TakeCounters();
  double FinalAudit();
  void ReadBack();
  void RecoverCheck();
  uint64_t StoredBytes() const;

  void CryptoUnitCosts();
  void EmitEndToEnd();
  void EmitPerLayer();
  std::vector<Figure> UngatedFigures();
  void PrintUngated(bool traced);

  Args args_;
  WorkloadSpec spec_;
  Scale scale_;
  Cast cast_;
  Tally tally_;
  Tracer tracer_;
  std::unique_ptr<CountingEnv> counting_env_;
  std::unique_ptr<RequestLogDrain> drain_;

  std::vector<PreloadEntry> plan_;
  std::vector<ClientTransaction> preload_txs_;
  Targets targets_;
  SystemClock clock_;
  std::unique_ptr<ServedLedger> host_;
  std::string socket_path_;
  std::vector<std::unique_ptr<Client>> clients_;
  RecoveryInfo recovery_info_;

  std::atomic<uint64_t> next_vault_{0};
  std::vector<uint64_t> vault_order_;
  std::mutex purge_mu_;
  uint64_t purges_ = 0;

  std::mutex mismatch_mu_;
  uint64_t mismatches_ = 0;
  bool correct_ = true;

  bool InMix(OpKind k) const {
    return std::count(spec_.mix.round.begin(), spec_.mix.round.end(), k) > 0;
  }

  // Window of the measured phases and counter snapshots around serving.
  uint64_t measured_start_us_ = 0;
  uint64_t measured_end_us_ = 0;
  /// Counters over the serving phases (warm-up to probes; the final
  /// audit between the probes is left out).
  Counters serving_;
  double audit_delta_s_ = 0;
  uint64_t audit_journals_ = 0;
  double crypto_sign_us_ = 0, crypto_verify_us_ = 0, crypto_batch_us_ = 0;

  // Outcomes gathered from every client before they disconnect.
  std::vector<Sample> samples_;
  std::vector<AdminSample> admin_;
  std::string metrics_json_;
  /// Read when the open loop ends: process user and system CPU time
  /// (clients and server) per completed op, peak resident memory since
  /// start, and on-disk bytes per payload byte of the served ledger.
  double cpu_user_us_per_op_ = 0;
  /// Medians over the set-ups, closed-loop capacity and final-audit rate.
  double setup_s_ = 0, recover_s_ = 0, join_s_ = 0;
  double capacity_ = 0, audit_js_ = 0;
  double cpu_sys_us_per_op_ = 0;
  double peak_rss_mb_ = 0;
  double stored_ratio_ = 0;
  /// Proof-cache resident size when the probes end.
  double cache_resident_mb_ = 0;
};

void Bench::Mismatch(const std::string& what) {
  std::lock_guard<std::mutex> lock(mismatch_mu_);
  if (mismatches_++ < 5) std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  correct_ = false;
}

// --- set-up ----------------------------------------------------------------

Status Bench::JoinClient(Client* c) {
  ScopedSpan span(c->spans, "refresh");
  return c->client->RefreshTrustedRoots();
}

void Bench::ConnectClients() {
  clients_.clear();
  for (int i = 0; i < kClients; ++i) {
    auto c = std::make_unique<Client>();
    SocketTransport::Options topts;
    topts.trace_sample_every = args_.trace ? 1 : 0;
    c->socket = std::make_unique<SocketTransport>(host_->address(), kUri, topts);
    LedgerTransport* transport = c->socket.get();
    if (args_.trace) {
      c->spans = tracer_.NewBuffer();
      c->traced = std::make_unique<TracedTransport>(c->socket.get(), c->spans);
      transport = c->traced.get();
    }
    LedgerClient::Options copts;
    copts.lsp_key = cast_.lsp.public_key();
    copts.fractal_height = kFractalHeight;
    c->author = static_cast<uint32_t>(cast_.writers.size() + i);
    c->client = std::make_unique<LedgerClient>(transport, cast_.clients[i], copts);
    clients_.push_back(std::move(c));
  }
}

void Bench::DisconnectClients() { clients_.clear(); }

void Bench::SetUpOnce(int rep, std::vector<double>* setup_s,
                      std::vector<double>* recover_s,
                      std::vector<double>* join_s) {
  const std::string dir = RunDir() + "/ledger-" + std::to_string(rep);
  fs::create_directories(dir);
  socket_path_ = RunDir() + "/s" + std::to_string(rep) + ".sock";
  const uint64_t t0 = NowUs();
  host_ = std::make_unique<ServedLedger>(kUri, dir, env(), &clock_, cast_.lsp,
                                         &cast_.registry);
  Status s = host_->Create();
  if (!s.ok()) Die("create: " + s.ToString());
  const size_t before_ckpt = preload_txs_.size() - scale_.tail;
  std::vector<uint64_t> jsns, tail_jsns;
  s = host_->Preload({preload_txs_.data(), before_ckpt}, &jsns);
  if (s.ok()) s = host_->Checkpoint();
  if (s.ok()) {
    s = host_->Preload({preload_txs_.data() + before_ckpt, scale_.tail},
                       &tail_jsns);
  }
  if (!s.ok()) Die("preload: " + s.ToString());
  const uint64_t loaded = NowUs();
  jsns.insert(jsns.end(), tail_jsns.begin(), tail_jsns.end());
  for (size_t i = 0; i < jsns.size(); ++i) {
    if (jsns[i] != i + 1) Die("preload assigned an unexpected jsn");
  }
  // The benchmark's own pass over the server timestamps is input making,
  // not set-up: the clock stops for it.
  std::vector<Timestamp> ts;
  s = host_->ServerTimestamps(&ts);
  if (!s.ok()) Die("timestamps: " + s.ToString());
  targets_.windows = MakeWindows(plan_, ts, scale_);

  const uint64_t t1 = NowUs();
  s = host_->Recover(&recovery_info_);
  const uint64_t recovered = NowUs();
  recover_s->push_back(static_cast<double>(recovered - t1) / 1e6);
  if (!s.ok()) Die("recover: " + s.ToString());
  if (!recovery_info_.used_checkpoint) Die("recovery did not use the checkpoint");
  s = host_->Serve(socket_path_);
  if (!s.ok()) Die("serve: " + s.ToString());
  ConnectClients();
  for (auto& c : clients_) {
    const uint64_t j0 = NowUs();
    s = JoinClient(c.get());
    join_s->push_back(static_cast<double>(NowUs() - j0) / 1e6);
    if (!s.ok()) Die("client join: " + s.ToString());
  }
  const double setup = static_cast<double>((loaded - t0) + (NowUs() - t1)) / 1e6;
  setup_s->push_back(setup);
  std::fprintf(stderr, "  setup %d: %.2f s (load %.2f, recover %.3f, "
               "last join %.3f)\n", rep, setup,
               static_cast<double>(loaded - t0) / 1e6, recover_s->back(),
               join_s->back());
}

// --- ops -------------------------------------------------------------------

/// Runs a verified read op, re-pinning roots when a write moved them. A
/// verification failure is a breach only if the ledger was quiescent
/// around it (two refreshes in a row that did not advance); one that
/// keeps racing writers past kMaxRefreshRetries counts as failed.
Status Bench::Audited(Client* c, const std::function<Status()>& op) {
  Status st = op();
  int quiescent = 0;
  for (int attempt = 0; st.IsVerificationFailed(); ++attempt) {
    if (attempt >= kMaxRefreshRetries) {
      return Status::Unavailable("stale roots: refresh retries exhausted");
    }
    bool advanced = false;
    Status refresh;
    {
      ScopedSpan span(c->spans, "refresh");
      refresh = c->client->RefreshTrustedRoots(&advanced);
    }
    if (!refresh.ok()) return refresh;
    if (!advanced && ++quiescent >= 2) return st;
    if (advanced) quiescent = 0;
    st = op();
  }
  return st;
}

Status Bench::DoAppend(Client* c, const Op& op) {
  const Origin origin{c->author, c->nonce++};
  uint64_t jsn = 0;
  Status s = c->client->AppendVerified(Payload(args_.seed, origin),
                                       {MainClue(op.target)}, &jsn);
  if (s.ok()) tally_.Appended(jsn, origin);
  return s;
}

Status Bench::DoRead(Client* c, uint64_t jsn) {
  Journal j;
  Status s = Audited(c, [&] { return c->client->FetchAndVerifyJournal(jsn, &j); });
  if (s.ok()) {
    std::string bad = tally_.Check(args_.seed, j);
    if (!bad.empty()) Mismatch("read jsn " + std::to_string(jsn) + ": " + bad);
  }
  return s;
}

Status Bench::DoRange(Client* c, const Op& op) {
  const Window& w = targets_.windows[op.clue][op.window];
  std::vector<Journal> got;
  Status s = Audited(c, [&] {
    return c->client->BatchAuditRange(w.clue, w.from, w.to, &got);
  });
  if (!s.ok()) return s;
  const uint64_t purged = tally_.purged_before();
  std::vector<uint64_t> want;
  for (uint64_t jsn : w.jsns) {
    if (jsn >= purged) want.push_back(jsn);
  }
  std::vector<uint64_t> have;
  for (const Journal& j : got) {
    have.push_back(j.jsn);
    std::string bad = tally_.Check(args_.seed, j);
    if (!bad.empty()) Mismatch("range jsn " + std::to_string(j.jsn) + ": " + bad);
  }
  if (have != want) Mismatch("range " + w.clue + " returned other jsns");
  return s;
}

Status Bench::DoOccult(Client* c) {
  const uint64_t k = next_vault_.fetch_add(1);
  if (k >= vault_order_.size()) Die("occult pool exhausted");
  const uint64_t jsn = vault_order_[k];
  std::vector<Endorsement> endorsements = cast_.OccultEndorsements(jsn);
  uint64_t held = 0;
  Status s = host_->Occult(jsn, endorsements, &held);
  c->admin.push_back({OpKind::kOccult, phase(), NowUs(), held});
  if (s.ok()) tally_.Occulted(jsn);
  return s;
}

Status Bench::DoPurge(Client* c) {
  // Purges advance one boundary, so they are issued in order.
  std::lock_guard<std::mutex> lock(purge_mu_);
  const uint64_t before = 1 + scale_.purge_step * (purges_ + 1);
  if (before > scale_.purge_region + 1) Die("purge region exhausted");
  std::vector<Endorsement> endorsements = cast_.PurgeEndorsements(before);
  uint64_t held = 0;
  Status s = host_->Purge(before, endorsements, &held);
  c->admin.push_back({OpKind::kPurge, phase(), NowUs(), held});
  if (s.ok()) {
    ++purges_;
    tally_.Purged(before);
  }
  return s;
}

void Bench::RunOp(Client* c, const Op& op, uint64_t scheduled_us) {
  const uint64_t start = NowUs();
  if (scheduled_us == 0) scheduled_us = start;
  Status s;
  {
    ScopedSpan span(c->spans, OpKindName(op.kind), /*is_op=*/true);
    switch (op.kind) {
      case OpKind::kAppend: s = DoAppend(c, op); break;
      case OpKind::kRead: s = DoRead(c, op.target); break;
      case OpKind::kRange: s = DoRange(c, op); break;
      case OpKind::kOccult: s = DoOccult(c); break;
      case OpKind::kPurge: s = DoPurge(c); break;
    }
  }
  const uint64_t end = NowUs();
  if (s.IsCorruption() || s.IsVerificationFailed()) {
    Die(std::string("integrity failure on ") + OpKindName(op.kind) + ": " +
        s.ToString());
  }
  if (!s.ok()) {
    static std::atomic<int> reported{0};
    if (reported++ < 5) {
      std::fprintf(stderr, "op %s failed: %s\n", OpKindName(op.kind),
                   s.ToString().c_str());
    }
  }
  c->samples.push_back({op.kind, phase(),
                        static_cast<double>(end - std::min(end, scheduled_us)),
                        static_cast<double>(start - std::min(start, scheduled_us)),
                        !s.ok()});
}

// --- phases ----------------------------------------------------------------

void Bench::WarmUp() {
  SetPhase(Phase::kWarm);
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      OpStream ops(args_.seed * 131 + 7 + static_cast<uint64_t>(i), spec_.mix,
                   &targets_);
      const int n = args_.smoke ? 2 : kWarmOpsPerClient;
      for (int k = 0; k < n; ++k) RunOp(clients_[i].get(), ops.Next(), 0);
    });
  }
  for (std::thread& t : threads) t.join();
}

/// Open loop: one Poisson schedule of whole mix rounds, each arrival taken
/// by whichever client is free; latency runs from the scheduled arrival.
double Bench::OpenLoop() {
  const size_t round = spec_.mix.round.size();
  const size_t expected = static_cast<size_t>(
      spec_.offered_per_sec * args_.seconds * kOpenShare);
  const std::vector<uint64_t> arrivals =
      PoissonSchedule(args_.seed, spec_.offered_per_sec,
                      std::max<size_t>(1, expected / round) * round);
  OpStream stream(args_.seed * 131 + 1, spec_.mix, &targets_);
  std::vector<Op> ops;
  for (size_t i = 0; i < arrivals.size(); ++i) ops.push_back(stream.Next());

  SetPhase(Phase::kOpen);
  std::atomic<size_t> next{0};
  const uint64_t t0 = NowUs() + 10'000;
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      for (size_t k = next++; k < ops.size(); k = next++) {
        const uint64_t due = t0 + arrivals[k];
        const uint64_t now = NowUs();
        if (now < due) std::this_thread::sleep_for(std::chrono::microseconds(due - now));
        RunOp(clients_[i].get(), ops[k], due);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return static_cast<double>(NowUs() - t0) / 1e6;
}

/// Closed loop: every client issues the mix back to back, finishing its
/// current round after the deadline. Returns completed ops per second.
double Bench::ClosedLoop() {
  SetPhase(Phase::kClosed);
  const uint64_t t0 = NowUs();
  const uint64_t deadline =
      t0 + static_cast<uint64_t>(args_.seconds * (1 - kOpenShare) * 1e6);
  const size_t round = spec_.mix.round.size();
  std::atomic<uint64_t> completed{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      OpStream ops(args_.seed * 131 + 100 + static_cast<uint64_t>(i),
                   spec_.mix, &targets_);
      Client* c = clients_[i].get();
      for (size_t n = 0; n % round != 0 || NowUs() < deadline; ++n) {
        RunOp(c, ops.Next(), 0);
        if (!c->samples.back().failed) ++completed;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return static_cast<double>(completed.load()) /
         (static_cast<double>(NowUs() - t0) / 1e6);
}

void Bench::Probe() {
  SetPhase(Phase::kProbe);
  Client* c = clients_[0].get();
  OpStream stream(args_.seed * 131 + 200,
                  Mix{{OpKind::kAppend, OpKind::kRead, OpKind::kRange}},
                  &targets_);
  Targets main_reads = targets_;
  main_reads.read_lo = scale_.purge_region + scale_.vault + 1;
  OpStream reads(args_.seed * 131 + 201, Mix{{OpKind::kRead}}, &main_reads);
  for (OpKind kind : {OpKind::kRead, OpKind::kRange, OpKind::kAppend}) {
    if (InMix(kind)) continue;
    for (int n = 0; n < scale_.probe_ops;) {
      Op op = kind == OpKind::kRead ? reads.Next() : stream.Next();
      if (op.kind != kind) continue;
      RunOp(c, op, 0);
      ++n;
    }
  }
}

void Bench::ProbeAdmin() {
  if (InMix(OpKind::kOccult)) return;
  SetPhase(Phase::kProbe);
  for (int n = 0; n < scale_.probe_admin_ops; ++n) {
    Op op;
    op.kind = n % 5 == 4 ? OpKind::kPurge : OpKind::kOccult;
    RunOp(clients_[0].get(), op, 0);
  }
}

Counters Bench::TakeCounters() {
  Counters c;
  const Roots roots = host_->LiveRoots();
  c.journals = static_cast<double>(roots.journals);
  c.blocks = static_cast<double>(host_->SealedBlocks());
  if (counting_env_) {
    c.write_bytes = static_cast<double>(counting_env_->write_bytes());
  }
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::Default().Snapshot();
  c.cache_hits = CounterValue(snap, obs::names::kProofCacheHitsTotal);
  c.cache_misses = CounterValue(snap, obs::names::kProofCacheMissesTotal);
  c.cache_evictions = CounterValue(snap, obs::names::kProofCacheEvictionsTotal);
  c.overwrites = CounterValue(snap, obs::names::kStorageOverwritesTotal);
  return c;
}

/// A fresh client audits the whole ledger; its journal count must equal
/// the benchmark's own tally. Returns journals audited per second.
double Bench::FinalAudit() {
  SetPhase(Phase::kAudit);
  SocketTransport socket(host_->address(), kUri,
                         SocketTransport::Options{.trace_sample_every =
                                                      args_.trace ? 1u : 0u});
  SpanBuffer* spans = args_.trace ? tracer_.NewBuffer() : nullptr;
  std::unique_ptr<TracedTransport> traced;
  LedgerTransport* transport = &socket;
  if (spans != nullptr) {
    traced = std::make_unique<TracedTransport>(&socket, spans);
    transport = traced.get();
  }
  RemoteAuditOptions options;
  options.lsp_key = cast_.lsp.public_key();
  options.fractal_height = kFractalHeight;
  // audit_read verifies every journal (fetch, digests, signature, fam
  // proof); the writing workloads audit by full delta replay. A
  // per-journal audit also cannot pass a purged journal (NotFound), and
  // mixed purges during its measured phases.
  options.verify_journals = spec_.name == "audit_read";
  RemoteAuditReport report;
  const uint64_t t0 = NowUs();
  Status s;
  {
    ScopedSpan span(spans, "remote_audit");
    s = RemoteAudit(transport, options, &report);
  }
  const double secs = static_cast<double>(NowUs() - t0) / 1e6;
  if (!s.ok() || !report.passed) {
    Mismatch("final RemoteAudit failed: " + s.ToString() + " " +
             report.failure_reason);
  }
  if (report.journal_count != tally_.journals()) {
    Mismatch("final RemoteAudit covers " + std::to_string(report.journal_count) +
             " journals, the benchmark acknowledged " +
             std::to_string(tally_.journals()));
  }
  audit_journals_ = report.journal_count;
  return static_cast<double>(report.journal_count) / secs;
}

/// Every occulted journal reads back occulted (and still verifies);
/// every purged jsn answers NotFound.
void Bench::ReadBack() {
  SetPhase(Phase::kCheck);
  Client* c = clients_[0].get();
  for (uint64_t jsn : tally_.occulted()) {
    Journal j;
    Status s = Audited(c, [&] { return c->client->FetchAndVerifyJournal(jsn, &j); });
    if (!s.ok() || !j.occulted || !j.payload.empty()) {
      Mismatch("occulted jsn " + std::to_string(jsn) + " did not read back occulted");
    }
  }
  for (uint64_t jsn = 0; jsn < tally_.purged_before(); ++jsn) {
    Journal j;
    Status s = c->socket->GetJournal(jsn, &j);
    if (!s.IsNotFound()) {
      Mismatch("purged jsn " + std::to_string(jsn) + " answered " + s.ToString());
    }
  }
}

/// Close the served ledger and recover it from disk: every acknowledged
/// write must survive, so the recovered roots equal the live ones.
void Bench::RecoverCheck() {
  SetPhase(Phase::kCheck);
  DisconnectClients();
  const Roots live = host_->LiveRoots();
  RecoveryInfo info;
  Status s = host_->Recover(&info);
  if (!s.ok()) {
    Mismatch("recovery after the run failed: " + s.ToString());
    return;
  }
  if (!(host_->LiveRoots() == live)) Mismatch("recovered roots differ from live roots");
  if (live.journals != tally_.journals()) Mismatch("journal count differs from tally");
}

uint64_t Bench::StoredBytes() const {
  uint64_t bytes = 0;
  const std::string dir =
      RunDir() + "/ledger-" + std::to_string(scale_.setups - 1);
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) bytes += e.file_size();
  }
  return bytes;
}

void Bench::CryptoUnitCosts() {
  const size_t n = std::min<size_t>(256, preload_txs_.size());
  std::vector<Digest> hashes;
  for (size_t i = 0; i < n; ++i) hashes.push_back(preload_txs_[i].RequestHash());
  const KeyPair& key = cast_.writers[0];
  uint64_t t0 = NowUs();
  std::vector<Signature> sigs;
  for (const Digest& h : hashes) sigs.push_back(key.Sign(h));
  crypto_sign_us_ = static_cast<double>(NowUs() - t0) / static_cast<double>(n);
  t0 = NowUs();
  size_t ok = 0;
  for (size_t i = 0; i < n; ++i) {
    ok += VerifySignature(key.public_key(), hashes[i], sigs[i]) ? 1 : 0;
  }
  crypto_verify_us_ = static_cast<double>(NowUs() - t0) / static_cast<double>(n);
  std::vector<VerifyJob> jobs;
  for (size_t i = 0; i < n; ++i) {
    jobs.push_back({&key.public_key(), &hashes[i], &sigs[i],
                    cast_.registry.FindVerifyContext(key.public_key())});
  }
  t0 = NowUs();
  std::vector<uint8_t> results = VerifyBatch(jobs);
  crypto_batch_us_ = static_cast<double>(NowUs() - t0) / static_cast<double>(n);
  for (uint8_t r : results) ok += r ? 1 : 0;
  if (ok != 2 * n) Mismatch("crypto unit-cost inputs failed to verify");
}

// --- reporting ---------------------------------------------------------------

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

class MetricsJson {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + name + "\": {\"value\": " + Num(value) + ", \"unit\": \"" +
             unit + "\"}";
    std::fprintf(stderr, "  %-44s %14s %s\n", name.c_str(), Num(value).c_str(),
                 unit.c_str());
  }
  const std::string& body() const { return body_; }

 private:
  std::string body_;
};


std::vector<Figure> Bench::UngatedFigures() {
  // Latency of a class: its open-loop samples when the mix has it, else
  // the unloaded probe's.
  auto latencies = [&](std::initializer_list<OpKind> kinds) {
    const Phase from = InMix(*kinds.begin()) ? Phase::kOpen : Phase::kProbe;
    std::vector<double> v;
    for (const Sample& s : samples_) {
      if (s.phase == from && !s.failed &&
          std::find(kinds.begin(), kinds.end(), s.kind) != kinds.end()) {
        v.push_back(s.latency_us);
      }
    }
    return v;
  };
  std::vector<double> open_all;
  for (const Sample& s : samples_) {
    if (s.phase == Phase::kOpen && !s.failed) open_all.push_back(s.latency_us);
  }
  for (auto [name, kind] : {std::pair{"append", OpKind::kAppend},
                            std::pair{"read", OpKind::kRead},
                            std::pair{"range", OpKind::kRange}}) {
    std::vector<double> v = latencies({kind});
    std::fprintf(stderr, "  %-6s %s: %zu samples, p50 %.0f us", name,
                 InMix(kind) ? "open loop" : "probe", v.size(), Pct(v, 50));
    if (v.size() >= 1000) std::fprintf(stderr, ", p99 %.0f us", Pct(v, 99));
    std::fprintf(stderr, "\n");
  }
  return {
      {"append_p50_us", Median(latencies({OpKind::kAppend})), "us"},
      {"read_p50_us", Median(latencies({OpKind::kRead})), "us"},
      {"range_p50_us", Median(latencies({OpKind::kRange})), "us"},
      {"admin_p50_us", Median(latencies({OpKind::kOccult, OpKind::kPurge})),
       "us"},
      {"op_p99_us", Pct(open_all, 99), "us"},
      {"recover_s", recover_s_, "s"},
      {"client_join_s", join_s_, "s"},
      {"capacity_ops_s", capacity_, "ops/s"},
      {"full_audit_journals_s", audit_js_, "journals/s"},
      {"cpu_sys_us_per_op", cpu_sys_us_per_op_, "us"},
  };
}

void Bench::EmitEndToEnd() {
  MetricsJson m;
  m.Add("setup_s", setup_s_, "s");
  m.Add("cpu_user_us_per_op", cpu_user_us_per_op_, "us");
  m.Add("stored_bytes_per_payload_byte", stored_ratio_, "ratio");
  m.Add("peak_rss_mb", peak_rss_mb_, "MB");
  metrics_json_ = m.body();
  PrintUngated(false);
}

/// Latency and throughput swing by more than any bound the benchmark can
/// hold on a shared host (see README); both runs print them to stderr and
/// gate them nowhere. The traced run adds its user CPU per op, which set
/// against the untraced run's gives the tracing overhead.
void Bench::PrintUngated(bool traced) {
  std::fprintf(stderr, "  not gated:\n");
  std::vector<Figure> figures = UngatedFigures();
  if (traced) figures.push_back({"cpu_user_us_per_op", cpu_user_us_per_op_, "us"});
  for (const Figure& f : figures) {
    std::fprintf(stderr, "  %-44s %14s %s\n", f.name.c_str(),
                 Num(f.value).c_str(), f.unit.c_str());
  }
}

void Bench::EmitPerLayer() {
  const std::vector<Span> spans = tracer_.AllSpans();
  const auto& server = drain_->records();
  // A record overwritten before a drain leaves its RPC without server
  // times, which would bias every stitched figure.
  if (drain_->lost() > 0) {
    Mismatch("request log: " + std::to_string(drain_->lost()) +
             " records overwritten before a drain");
  }
  auto measured = [&](uint64_t t) {
    return t >= measured_start_us_ && t < measured_end_us_;
  };
  auto serving = [](Phase p) {
    return p == Phase::kWarm || p == Phase::kOpen || p == Phase::kClosed ||
           p == Phase::kProbe;
  };
  // Ops and their RPC time.
  std::unordered_map<uint64_t, uint64_t> rpc_us_of_op, rpcs_of_op;
  std::map<std::string, std::vector<double>> rtt, exec;
  std::vector<double> queue, transport, refresh_us;
  uint64_t op_refreshes = 0;
  for (const Span& s : spans) {
    if (std::strcmp(s.name, "refresh") == 0) {
      refresh_us.push_back(static_cast<double>(s.dur_us));
      if (s.op != 0) ++op_refreshes;
      continue;
    }
    if (!s.rpc) continue;
    if (s.op != 0) {
      rpc_us_of_op[s.op] += s.dur_us;
      ++rpcs_of_op[s.op];
    }
    if (s.phase == Phase::kAudit || s.phase == Phase::kCheck) continue;
    rtt[s.name].push_back(static_cast<double>(s.dur_us));
    auto it = server.find(s.trace_id);
    if (it == server.end()) continue;
    exec[s.name].push_back(static_cast<double>(it->second.exec_us));
    if (measured(s.start_us)) {
      transport.push_back(static_cast<double>(s.dur_us) -
                          static_cast<double>(it->second.queue_us) -
                          static_cast<double>(it->second.exec_us));
    }
  }
  // Ledger-mutex busy time: the union of execution intervals. A worker's
  // exec_us includes waiting for the mutex, but it only waits while
  // another holder keeps the mutex busy, so the union is the held time.
  std::vector<std::pair<uint64_t, uint64_t>> held;
  for (const auto& [id, r] : server) {
    if (!measured(r.start_us)) continue;
    queue.push_back(static_cast<double>(r.queue_us));
    const uint64_t begin = r.start_us + r.queue_us;
    held.emplace_back(begin, begin + r.exec_us);
  }
  std::map<std::string, std::vector<double>> self_us;
  std::map<std::string, std::pair<uint64_t, uint64_t>> rpcs_per;  // ops, rpcs
  uint64_t verified_ops = 0;
  for (const Span& s : spans) {
    if (s.id != s.op) continue;  // client op spans only
    self_us[s.name].push_back(static_cast<double>(s.dur_us) -
                              static_cast<double>(rpc_us_of_op[s.id]));
    auto& [ops, rpcs] = rpcs_per[s.name];
    ++ops;
    rpcs += rpcs_of_op[s.id];
    if (std::strcmp(s.name, "read") == 0 || std::strcmp(s.name, "range") == 0) {
      ++verified_ops;
    }
  }
  std::vector<double> occult_us, purge_us;
  uint64_t admin_ops = 0;
  for (const AdminSample& a : admin_) {
    (a.kind == OpKind::kOccult ? occult_us : purge_us)
        .push_back(static_cast<double>(a.held_us));
    if (serving(a.phase)) ++admin_ops;
    // Admin calls hold the same mutex the workers execute under.
    if (measured(a.end_us)) held.emplace_back(a.end_us - a.held_us, a.end_us);
  }
  std::sort(held.begin(), held.end());
  double busy_us = 0;
  uint64_t covered = 0;  // end of the union so far
  for (auto [begin, end] : held) {
    begin = std::max({begin, covered, measured_start_us_});
    end = std::min(end, measured_end_us_);
    if (end > begin) busy_us += static_cast<double>(end - begin);
    covered = std::max(covered, end);
  }
  std::vector<double> late;
  uint64_t serving_ops = 0;
  for (const Sample& s : samples_) {
    if (s.phase == Phase::kOpen) late.push_back(s.late_us);
    if (serving(s.phase)) ++serving_ops;
  }
  // Final audit: delta replay runs from the GetDelta call to the first
  // per-journal fetch; each journal's verification spans consecutive
  // GetJournal starts.
  double delta_replay_s = 0;
  std::vector<double> journal_verify_us;
  {
    uint64_t delta_start = 0, audit_end = 0, prev_journal = 0;
    for (const Span& s : spans) {
      if (s.phase != Phase::kAudit) continue;
      if (std::strcmp(s.name, "remote_audit") == 0) {
        audit_end = s.start_us + s.dur_us;
      } else if (std::strcmp(s.name, "GetDelta") == 0) {
        delta_start = s.start_us;
      } else if (std::strcmp(s.name, "GetJournal") == 0) {
        if (prev_journal == 0) {
          delta_replay_s = static_cast<double>(s.start_us - delta_start) / 1e6;
        } else {
          journal_verify_us.push_back(static_cast<double>(s.start_us - prev_journal));
        }
        prev_journal = s.start_us;
      }
    }
    if (prev_journal == 0 && delta_start != 0) {
      delta_replay_s = static_cast<double>(audit_end - delta_start) / 1e6;
    }
  }
  std::vector<double> fsync_us;
  for (const auto& [p, us] : counting_env_->sync_us()) {
    if (serving(p)) fsync_us.push_back(us);
  }
  const double journals = serving_.journals;
  const double hits = serving_.cache_hits;
  const double misses = serving_.cache_misses;
  auto p50_of = [&](const char* name) { return Median(self_us[name]); };
  auto per_op = [&](const char* name) {
    return Ratio(static_cast<double>(rpcs_per[name].second),
                 static_cast<double>(rpcs_per[name].first));
  };

  MetricsJson m;
  m.Add("loadgen.late_us_p99", Pct(late, 99), "us");
  m.Add("client.append_self_us_p50", p50_of("append"), "us");
  m.Add("client.read_self_us_p50", p50_of("read"), "us");
  m.Add("client.range_self_us_p50", p50_of("range"), "us");
  m.Add("client.refreshes_per_verified_op",
        Ratio(static_cast<double>(op_refreshes), static_cast<double>(verified_ops)),
        "count");
  m.Add("client.refresh_us_p50", Median(refresh_us), "us");
  m.Add("crypto.sign_us", crypto_sign_us_, "us");
  m.Add("crypto.verify_us", crypto_verify_us_, "us");
  m.Add("crypto.verify_batch_us_per_sig", crypto_batch_us_, "us");
  m.Add("net.rpcs_per_op.append", per_op("append"), "count");
  m.Add("net.rpcs_per_op.read", per_op("read"), "count");
  m.Add("net.rpcs_per_op.range", per_op("range"), "count");
  for (const char* rpc : {"AppendTx", "GetReceipt", "GetJournal", "GetProof",
                          "ProveClueRange", "GetCommitment", "GetDelta"}) {
    m.Add(std::string("net.rtt_us_p50.") + rpc, Median(rtt[rpc]), "us");
    m.Add(std::string("net.exec_us_p50.") + rpc, Median(exec[rpc]), "us");
  }
  m.Add("net.queue_us_p50", Pct(queue, 50), "us");
  m.Add("net.queue_us_p99", Pct(queue, 99), "us");
  m.Add("net.transport_us_p50", Pct(transport, 50), "us");
  m.Add("net.exec_busy_frac",
        Ratio(busy_us, static_cast<double>(measured_end_us_ - measured_start_us_)),
        "ratio");
  m.Add("ledger.journals_per_block", Ratio(journals, serving_.blocks), "count");
  m.Add("ledger.occult_us_p50", Median(occult_us), "us");
  m.Add("ledger.purge_us_p50", Median(purge_us), "us");
  m.Add("ledger.recover_tail_journals",
        static_cast<double>(recovery_info_.tail_journals), "count");
  m.Add("storage.fsyncs_per_journal",
        Ratio(static_cast<double>(fsync_us.size()), journals), "count");
  m.Add("storage.fsync_us_p50", Pct(fsync_us, 50), "us");
  m.Add("storage.fsync_us_p99", Pct(fsync_us, 99), "us");
  m.Add("storage.write_bytes_per_journal",
        Ratio(serving_.write_bytes, journals),
        "bytes");
  m.Add("storage.overwrites_per_admin_op",
        Ratio(serving_.overwrites, static_cast<double>(admin_ops)),
        "count");
  m.Add("accum.proof_cache_hit_ratio", Ratio(hits, hits + misses), "ratio");
  m.Add("accum.proof_cache_resident_mb", cache_resident_mb_, "MB");
  m.Add("accum.proof_cache_evictions_per_kop",
        Ratio(1000.0 * serving_.cache_evictions,
              static_cast<double>(serving_ops)),
        "count");
  m.Add("audit.delta_replay_s", delta_replay_s, "s");
  m.Add("audit.journal_verify_us_p50", Median(journal_verify_us), "us");
  metrics_json_ = m.body();
  PrintUngated(true);

  const std::string path = args_.workdir + "/servebench-spans-" + spec_.name +
                           "-" + std::to_string(args_.seed) + ".json";
  if (!WriteSpansJson(path, spans, server)) Die("cannot write " + path);
  std::fprintf(stderr, "  spans: %zu written to %s\n", spans.size(), path.c_str());
}

int Bench::Run() {
  fs::create_directories(RunDir());
  if (args_.trace) {
    counting_env_ = std::make_unique<CountingEnv>(Env::Default());
    counting_env_->set_phase_source(tracer_.phase_source());
  }
  SetPhase(Phase::kSetup);
  plan_ = MakePreload(args_.seed, scale_);
  const uint64_t sign0 = NowUs();
  preload_txs_ = SignPreload(args_.seed, cast_, plan_);
  std::fprintf(stderr, "servebench: %s seed %" PRIu64 ", %zu preload journals "
               "signed in %.2f s\n", spec_.name.c_str(), args_.seed,
               preload_txs_.size(), static_cast<double>(NowUs() - sign0) / 1e6);
  if (args_.trace) CryptoUnitCosts();

  targets_.clue_of_rank = HotClueOrder(args_.seed, scale_.clues);
  targets_.read_lo = spec_.reads_span_preload
                         ? 1
                         : scale_.purge_region + scale_.vault + 1;
  targets_.read_hi = scale_.preload();
  vault_order_.clear();
  for (uint64_t i = 0; i < scale_.vault; ++i) {
    vault_order_.push_back(scale_.purge_region + 1 + i);
  }
  {
    Random rng(args_.seed * 977 + 5);
    for (size_t i = vault_order_.size(); i > 1; --i) {
      std::swap(vault_order_[i - 1], vault_order_[rng.Uniform(i)]);
    }
  }

  std::vector<double> setup_s, recover_s, join_s;
  for (int rep = 0; rep < scale_.setups; ++rep) {
    if (host_ != nullptr) {
      DisconnectClients();
      host_->Close();
      host_.reset();
      fs::remove_all(RunDir() + "/ledger-" + std::to_string(rep - 1));
    }
    if (args_.trace) obs::RequestLog::Default().Clear();
    SetUpOnce(rep, &setup_s, &recover_s, &join_s);
  }
  setup_s_ = Median(setup_s);
  recover_s_ = Median(recover_s);
  join_s_ = Median(join_s);
  tally_.Reset(plan_);
  if (args_.trace) drain_ = std::make_unique<RequestLogDrain>();

  const Counters serving_start = TakeCounters();

  WarmUp();
  measured_start_us_ = NowUs();
  // CPU, memory and storage are read over the open loop: its work is fixed
  // by the seed, while the closed loop's grows with the host's speed.
  const CpuUs cpu0 = ProcessCpuUs();
  const double open_s = OpenLoop();
  const CpuUs cpu1 = ProcessCpuUs();
  uint64_t open_ok = 0;
  for (const auto& c : clients_) {
    for (const Sample& s : c->samples) open_ok += s.phase == Phase::kOpen && !s.failed;
  }
  const double ops = static_cast<double>(std::max<uint64_t>(open_ok, 1));
  cpu_user_us_per_op_ = (cpu1.user - cpu0.user) / ops;
  cpu_sys_us_per_op_ = (cpu1.sys - cpu0.sys) / ops;
  peak_rss_mb_ = PeakRssMb();
  stored_ratio_ = static_cast<double>(StoredBytes()) /
                  static_cast<double>(tally_.payload_bytes());
  capacity_ = ClosedLoop();
  measured_end_us_ = NowUs();
  Probe();
  serving_ = TakeCounters() - serving_start;
  cache_resident_mb_ =
      static_cast<double>(GaugeValue(obs::MetricsRegistry::Default().Snapshot(),
                                     obs::names::kProofCacheResidentBytes)) /
      (1 << 20);
  audit_js_ = FinalAudit();
  const Counters admin_start = TakeCounters();
  ProbeAdmin();
  serving_ = serving_ + (TakeCounters() - admin_start);
  ReadBack();
  if (drain_) drain_->Stop();
  for (const auto& c : clients_) {
    samples_.insert(samples_.end(), c->samples.begin(), c->samples.end());
    admin_.insert(admin_.end(), c->admin.begin(), c->admin.end());
  }
  RecoverCheck();
  host_->Close();

  // Attempted / failed per op class, and generator lateness.
  uint64_t attempted = 0, failed = 0;
  std::map<std::string, std::pair<uint64_t, uint64_t>> by_class;
  std::vector<double> late;
  for (const Sample& s : samples_) {
    if (s.phase == Phase::kWarm) continue;
    ++attempted;
    failed += s.failed ? 1 : 0;
    auto& [a, f] = by_class[OpKindName(s.kind)];
    ++a;
    f += s.failed ? 1 : 0;
    if (s.phase == Phase::kOpen) late.push_back(s.late_us);
  }
  for (const auto& [name, af] : by_class) {
    std::fprintf(stderr, "  ops %-8s attempted %8" PRIu64 " failed %" PRIu64 "\n",
                 name.c_str(), af.first, af.second);
  }
  std::fprintf(stderr, "  open loop %.2f s, generator lateness p50 %.0f us p99 %.0f us\n",
               open_s, Pct(late, 50), Pct(late, 99));
  // Every workload is built so that no op fails; one that does is a fault.
  if (failed > 0) Mismatch(std::to_string(failed) + " ops failed");

  if (args_.trace) {
    EmitPerLayer();
  } else {
    EmitEndToEnd();
  }
  fs::remove_all(RunDir());
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {%s}}\n",
              correct_ ? "true" : "false", attempted, failed,
              metrics_json_.c_str());
  return 0;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  using namespace servebench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: servebench --workload ingest|audit_read|mixed "
                 "--seed N --seconds S --trace 0|1 [--smoke] [--workdir DIR]\n");
    return 2;
  }
  WorkloadSpec spec;
  if (!FindWorkload(args.workload, &spec)) {
    std::fprintf(stderr, "servebench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  if (args.smoke) spec.offered_per_sec = std::min(spec.offered_per_sec, 200.0);
  Bench bench(args, spec);
  return bench.Run();
}
