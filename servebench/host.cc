#include "host.h"

#include <algorithm>
#include <chrono>

namespace servebench {

namespace {

/// Preload group size: one PrevalidateBatch (shared batched ECDSA) and one
/// group commit (one data fsync + one watermark fsync) per chunk.
constexpr size_t kPreloadChunk = 256;

uint64_t NowUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

ServedLedger::ServedLedger(std::string uri, std::string dir, Env* env,
                           Clock* clock, KeyPair lsp,
                           const MemberRegistry* members)
    : uri_(std::move(uri)),
      dir_(std::move(dir)),
      env_(env),
      clock_(clock),
      lsp_(std::move(lsp)),
      members_(members) {}

ServedLedger::~ServedLedger() { Close(); }

LedgerOptions ServedLedger::Options() const {
  LedgerOptions options;
  options.fractal_height = kFractalHeight;
  options.block_capacity = kBlockCapacity;
  return options;
}

LedgerStorage ServedLedger::Storage() const {
  return LedgerStorage{journals_.get(), blocks_.get(), checkpoints_.get()};
}

Status ServedLedger::OpenStores() {
  LEDGERDB_RETURN_IF_ERROR(
      FileStreamStore::Open(env_, dir_ + "/journals.log", &journals_));
  LEDGERDB_RETURN_IF_ERROR(
      FileStreamStore::Open(env_, dir_ + "/blocks.log", &blocks_));
  checkpoints_ = std::make_unique<CheckpointStore>(env_, dir_ + "/ckpt");
  return Status::OK();
}

Status ServedLedger::Create() {
  LEDGERDB_RETURN_IF_ERROR(OpenStores());
  ledger_ = std::make_unique<Ledger>(uri_, Options(), clock_, lsp_, members_,
                                     Storage());
  return ledger_->init_status();
}

Status ServedLedger::Preload(std::span<const ClientTransaction> txs,
                             std::vector<uint64_t>* jsns) {
  if (ledger_ == nullptr || server_ != nullptr) {
    return Status::InvalidArgument("preload needs an open, unserved ledger");
  }
  jsns->clear();
  jsns->reserve(txs.size());
  std::vector<const ClientTransaction*> ptrs;
  std::vector<Ledger::PrevalidatedTx> prepared;
  std::vector<Status> statuses;
  std::vector<uint64_t> group_jsns;
  for (size_t at = 0; at < txs.size(); at += kPreloadChunk) {
    const size_t n = std::min(kPreloadChunk, txs.size() - at);
    ptrs.clear();
    for (size_t i = 0; i < n; ++i) ptrs.push_back(&txs[at + i]);
    prepared.assign(n, Ledger::PrevalidatedTx{});
    statuses.assign(n, Status::OK());
    ledger_->PrevalidateBatch(ptrs, prepared.data(), statuses.data());
    for (const Status& s : statuses) LEDGERDB_RETURN_IF_ERROR(s);
    LEDGERDB_RETURN_IF_ERROR(ledger_->CommitPrevalidatedGroup(
        std::move(prepared), &group_jsns, &statuses));
    for (const Status& s : statuses) LEDGERDB_RETURN_IF_ERROR(s);
    jsns->insert(jsns->end(), group_jsns.begin(), group_jsns.end());
  }
  return Status::OK();
}

Status ServedLedger::Checkpoint() {
  Status s;
  With([&](Ledger* ledger) { s = ledger->WriteCheckpoint(); });
  return s;
}

Status ServedLedger::ServerTimestamps(std::vector<Timestamp>* out) const {
  if (ledger_ == nullptr || server_ != nullptr) {
    return Status::InvalidArgument("timestamps are read before serving");
  }
  out->assign(ledger_->NumJournals(), 0);
  for (uint64_t jsn = 0; jsn < out->size(); ++jsn) {
    Journal journal;
    LEDGERDB_RETURN_IF_ERROR(ledger_->GetJournal(jsn, &journal));
    (*out)[jsn] = journal.server_ts;
  }
  return Status::OK();
}

void ServedLedger::Close() {
  if (server_ != nullptr) server_->Stop();
  server_.reset();
  ledger_.reset();
  checkpoints_.reset();
  blocks_.reset();
  journals_.reset();
}

Status ServedLedger::Recover(RecoveryInfo* info) {
  Close();
  LEDGERDB_RETURN_IF_ERROR(OpenStores());
  return Ledger::Recover(uri_, Options(), clock_, lsp_, members_, Storage(),
                         &ledger_, info);
}

Status ServedLedger::Serve(const std::string& socket_path) {
  if (ledger_ == nullptr) return Status::InvalidArgument("no ledger to serve");
  LedgerServer::Options options;
  options.unix_path = socket_path;
  server_ = std::make_unique<LedgerServer>(ledger_.get(), options);
  Status s = server_->Start();
  if (!s.ok()) server_.reset();
  return s;
}

void ServedLedger::With(const std::function<void(Ledger*)>& fn) {
  if (server_ != nullptr) {
    server_->WithLedger(fn);
  } else {
    fn(ledger_.get());
  }
}

Status ServedLedger::Occult(uint64_t jsn,
                            const std::vector<Endorsement>& endorsements,
                            uint64_t* held_us) {
  Status s;
  With([&](Ledger* ledger) {
    const uint64_t t0 = NowUs();
    uint64_t occult_jsn = 0;
    s = ledger->Occult(jsn, endorsements, &occult_jsn);
    *held_us = NowUs() - t0;
  });
  return s;
}

Status ServedLedger::Purge(uint64_t before_jsn,
                           const std::vector<Endorsement>& endorsements,
                           uint64_t* held_us) {
  Status s;
  With([&](Ledger* ledger) {
    const uint64_t t0 = NowUs();
    uint64_t purge_jsn = 0;
    s = ledger->Purge(before_jsn, endorsements, {}, &purge_jsn);
    *held_us = NowUs() - t0;
  });
  return s;
}

Roots ServedLedger::LiveRoots() {
  Roots roots;
  With([&](Ledger* ledger) {
    roots.journals = ledger->NumJournals();
    roots.fam = ledger->FamRoot();
    roots.clue = ledger->ClueRoot();
    roots.state = ledger->StateRoot();
  });
  return roots;
}

uint64_t ServedLedger::SealedBlocks() {
  uint64_t n = 0;
  With([&](Ledger* ledger) { n = ledger->blocks().size(); });
  return n;
}

}  // namespace servebench
