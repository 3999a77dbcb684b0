#include "inputs.h"

#include <algorithm>
#include <thread>

#include "crypto/hash.h"
#include "ledger/ledger.h"

namespace servebench {

namespace {

constexpr int kWriters = 4;
/// Clue families of the purge region and the vault: these journals are
/// admin targets, so reads and range windows of a mixed run avoid them.
constexpr uint64_t kSideClues = 64;

uint64_t Mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

template <typename T>
void Shuffle(std::vector<T>* v, Random* rng) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng->Uniform(i)]);
  }
}

}  // namespace

Scale Scale::Smoke() {
  Scale s;
  s.purge_region = 256;
  s.vault = 256;
  s.clues = 64;
  s.per_clue = 8;
  s.tail = 64;
  s.window = 4;
  s.setups = 2;
  s.probe_ops = 8;
  s.probe_admin_ops = 5;
  return s;
}

Cast::Cast() {
  registry.Register(ca.Certify("lsp", lsp.public_key(), Role::kLsp));
  registry.Register(ca.Certify("dba", dba.public_key(), Role::kDba));
  registry.Register(
      ca.Certify("regulator", regulator.public_key(), Role::kRegulator));
  for (int i = 0; i < kWriters; ++i) {
    writers.push_back(
        KeyPair::FromSeedString("servebench-writer-" + std::to_string(i)));
    registry.Register(ca.Certify("writer-" + std::to_string(i),
                                 writers.back().public_key(), Role::kUser));
  }
  for (int i = 0; i < kClients; ++i) {
    clients.push_back(
        KeyPair::FromSeedString("servebench-client-" + std::to_string(i)));
    registry.Register(ca.Certify("client-" + std::to_string(i),
                                 clients.back().public_key(), Role::kUser));
  }
}

const KeyPair& Cast::Author(uint32_t author) const {
  return author < writers.size() ? writers[author]
                                 : clients[author - writers.size()];
}

std::vector<Endorsement> Cast::OccultEndorsements(uint64_t jsn) const {
  Digest req = Ledger::OccultRequestHash(kUri, jsn);
  return {{dba.public_key(), dba.Sign(req)},
          {regulator.public_key(), regulator.Sign(req)}};
}

std::vector<Endorsement> Cast::PurgeEndorsements(uint64_t before_jsn) const {
  Digest req = Ledger::PurgeRequestHash(kUri, before_jsn);
  std::vector<Endorsement> out = {{dba.public_key(), dba.Sign(req)}};
  for (const KeyPair& w : writers) out.push_back({w.public_key(), w.Sign(req)});
  return out;
}

Bytes Payload(uint64_t seed, const Origin& origin) {
  Random rng(Mix64(seed ^ Mix64((uint64_t{origin.author} << 48) ^
                                origin.nonce)));
  return rng.NextBytes(kPayloadBytes);
}

std::string MainClue(uint64_t k) { return "c-" + std::to_string(k); }

std::vector<PreloadEntry> MakePreload(uint64_t seed, const Scale& scale) {
  Random rng(Mix64(seed + 1));
  std::vector<PreloadEntry> plan;
  plan.reserve(scale.preload());
  uint64_t nonces[kWriters] = {};
  auto add = [&](std::string clue) {
    uint32_t author = static_cast<uint32_t>(plan.size() % kWriters);
    plan.push_back({{author, nonces[author]++}, std::move(clue)});
  };
  for (uint64_t i = 0; i < scale.purge_region; ++i) {
    add("old-" + std::to_string(i % kSideClues));
  }
  for (uint64_t i = 0; i < scale.vault; ++i) {
    add("vault-" + std::to_string(i % kSideClues));
  }
  std::vector<uint32_t> main_clues(scale.main());
  for (uint64_t i = 0; i < main_clues.size(); ++i) {
    main_clues[i] = static_cast<uint32_t>(i % scale.clues);
  }
  Shuffle(&main_clues, &rng);
  for (uint32_t k : main_clues) add(MainClue(k));
  return plan;
}

std::vector<ClientTransaction> SignPreload(
    uint64_t seed, const Cast& cast, const std::vector<PreloadEntry>& plan) {
  std::vector<ClientTransaction> txs(plan.size());
  auto sign = [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      ClientTransaction& tx = txs[i];
      tx.ledger_uri = kUri;
      tx.clues = {plan[i].clue};
      tx.payload = Payload(seed, plan[i].origin);
      tx.nonce = plan[i].origin.nonce;
      tx.Sign(cast.Author(plan[i].origin.author));
    }
  };
  std::vector<std::thread> threads;
  const size_t per = (plan.size() + kClients - 1) / kClients;
  for (int t = 0; t < kClients; ++t) {
    size_t lo = std::min(plan.size(), per * static_cast<size_t>(t));
    threads.emplace_back(sign, lo, std::min(plan.size(), lo + per));
  }
  for (std::thread& t : threads) t.join();
  return txs;
}

std::vector<std::vector<Window>> MakeWindows(
    const std::vector<PreloadEntry>& plan, const std::vector<Timestamp>& ts,
    const Scale& scale) {
  // Lineage of every main clue in jsn order (preload entry i is jsn i+1).
  std::vector<std::vector<uint64_t>> lineage(scale.clues);
  const uint64_t main_lo = scale.purge_region + scale.vault;
  for (uint64_t i = main_lo; i < plan.size(); ++i) {
    uint64_t k = std::stoull(plan[i].clue.substr(2));
    lineage[k].push_back(i + 1);
  }
  std::vector<std::vector<Window>> windows(scale.clues);
  for (uint64_t k = 0; k < scale.clues; ++k) {
    const std::vector<uint64_t>& jsns = lineage[k];
    for (size_t at = 0; at + scale.window <= jsns.size(); at += scale.window) {
      Window w;
      w.clue = MainClue(k);
      w.from = ts[jsns[at]];
      w.to = ts[jsns[at + scale.window - 1]] + 1;
      // Equal server timestamps can pull a neighbour into the window; the
      // expected set is whatever the clue's lineage holds in [from, to).
      for (uint64_t jsn : jsns) {
        if (ts[jsn] >= w.from && ts[jsn] < w.to) w.jsns.push_back(jsn);
      }
      windows[k].push_back(std::move(w));
    }
  }
  return windows;
}

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kAppend: return "append";
    case OpKind::kRead: return "read";
    case OpKind::kRange: return "range";
    case OpKind::kOccult: return "occult";
    case OpKind::kPurge: return "purge";
  }
  return "?";
}

bool FindWorkload(const std::string& name, WorkloadSpec* out) {
  auto rep = [](std::vector<OpKind>* v, OpKind k, int n) {
    v->insert(v->end(), static_cast<size_t>(n), k);
  };
  WorkloadSpec w;
  w.name = name;
  if (name == "ingest") {
    rep(&w.mix.round, OpKind::kAppend, 20);
    w.offered_per_sec = 100;
  } else if (name == "audit_read") {
    rep(&w.mix.round, OpKind::kRead, 14);
    rep(&w.mix.round, OpKind::kRange, 6);
    w.offered_per_sec = 500;
    w.reads_span_preload = true;
  } else if (name == "mixed") {
    // bench_load's mixed profile, with its raw and verified reads (25 + 20)
    // both verified, since every read of the served ledger is.
    rep(&w.mix.round, OpKind::kAppend, 40);
    rep(&w.mix.round, OpKind::kRead, 45);
    rep(&w.mix.round, OpKind::kRange, 10);
    rep(&w.mix.round, OpKind::kOccult, 4);
    rep(&w.mix.round, OpKind::kPurge, 1);
    w.offered_per_sec = 150;
  } else {
    return false;
  }
  *out = std::move(w);
  return true;
}

std::vector<uint32_t> HotClueOrder(uint64_t seed, uint64_t clues) {
  Random rng(Mix64(seed + 2));
  std::vector<uint32_t> order(clues);
  for (uint64_t i = 0; i < clues; ++i) order[i] = static_cast<uint32_t>(i);
  Shuffle(&order, &rng);
  return order;
}

OpStream::OpStream(uint64_t seed, const Mix& mix, const Targets* targets)
    : rng_(Mix64(seed)),
      zipf_(targets->clue_of_rank.size(), kZipfSkew),
      mix_(mix),
      targets_(targets) {}

Op OpStream::Next() {
  if (at_ == round_.size()) {
    round_ = mix_.round;
    Shuffle(&round_, &rng_);
    at_ = 0;
  }
  Op op;
  op.kind = round_[at_++];
  const uint32_t clue = targets_->clue_of_rank[zipf_.Next(&rng_)];
  switch (op.kind) {
    case OpKind::kAppend:
      op.target = clue;
      break;
    case OpKind::kRead:
      op.target = targets_->read_lo +
                  rng_.Uniform(targets_->read_hi - targets_->read_lo + 1);
      break;
    case OpKind::kRange:
      op.clue = clue;
      op.window = static_cast<uint32_t>(
          rng_.Uniform(targets_->windows[clue].size()));
      break;
    default:
      break;
  }
  return op;
}

std::vector<uint64_t> PoissonSchedule(uint64_t seed, double rate,
                                      size_t count) {
  Random rng(Mix64(seed + 3));
  std::vector<uint64_t> arrivals;
  double t = 0;
  while (arrivals.size() < count) {
    t += rng.NextExponential(1e6 / rate);
    arrivals.push_back(static_cast<uint64_t>(t));
  }
  return arrivals;
}

}  // namespace servebench
