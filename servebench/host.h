// Hosting of the benchmark's ledger, exactly as `ledgerdb_cli serve` hosts
// one: FileStreamStore journal and block streams plus a CheckpointStore in
// one directory, a SystemClock, fractal height 10, block capacity 16, and a
// LedgerServer with its default options on a unix socket. Admin mutations
// (occult, purge) go through LedgerServer::WithLedger.
//
// Every decision about how the ledger is hosted lives in this file, so a
// change of execution engine behind the socket changes only host.cc.

#ifndef SERVEBENCH_HOST_H_
#define SERVEBENCH_HOST_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "ledger/ledger.h"
#include "ledger/members.h"
#include "net/server.h"
#include "storage/checkpoint.h"
#include "storage/env.h"
#include "storage/stream_store.h"

namespace servebench {

using namespace ledgerdb;

/// Ledger parameters shared by the host and every verifying client.
inline constexpr int kFractalHeight = 10;
inline constexpr uint32_t kBlockCapacity = 16;

/// The live commitment roots of the hosted ledger.
struct Roots {
  uint64_t journals = 0;
  Digest fam;
  Digest clue;
  Digest state;

  bool operator==(const Roots& o) const {
    return journals == o.journals && fam == o.fam && clue == o.clue &&
           state == o.state;
  }
};

class ServedLedger {
 public:
  /// `dir` must exist and be empty for Create(). `env` carries every
  /// durable byte (the traced run passes a counting decorator).
  ServedLedger(std::string uri, std::string dir, Env* env, Clock* clock,
               KeyPair lsp, const MemberRegistry* members);
  ~ServedLedger();

  ServedLedger(const ServedLedger&) = delete;
  ServedLedger& operator=(const ServedLedger&) = delete;

  /// Writes a fresh ledger (genesis) into the directory.
  Status Create();

  /// Bulk load before serving: PrevalidateBatch + CommitPrevalidatedGroup
  /// in chunks. `jsns` receives the assigned sequence numbers.
  Status Preload(std::span<const ClientTransaction> txs,
                 std::vector<uint64_t>* jsns);

  Status Checkpoint();

  /// Server timestamps of journals [0, NumJournals()), read before serving.
  Status ServerTimestamps(std::vector<Timestamp>* out) const;

  /// Stops serving (if serving) and closes the ledger and its stores.
  void Close();

  /// Reopens the stores and runs Ledger::Recover (checkpoint + tail).
  Status Recover(RecoveryInfo* info);

  /// Starts the LedgerServer (default options) on `socket_path`.
  Status Serve(const std::string& socket_path);
  const std::string& address() const { return server_->address(); }

  /// Admin mutations under the server's ledger mutex. `held_us` receives
  /// the time the mutation held the ledger.
  Status Occult(uint64_t jsn, const std::vector<Endorsement>& endorsements,
                uint64_t* held_us);
  Status Purge(uint64_t before_jsn,
               const std::vector<Endorsement>& endorsements,
               uint64_t* held_us);

  /// Roots and block count of the live ledger (under the server mutex when
  /// serving).
  Roots LiveRoots();
  uint64_t SealedBlocks();

 private:
  Status OpenStores();
  LedgerStorage Storage() const;
  LedgerOptions Options() const;
  /// Runs `fn` on the ledger, under the server mutex when serving.
  void With(const std::function<void(Ledger*)>& fn);

  std::string uri_;
  std::string dir_;
  Env* env_;
  Clock* clock_;
  KeyPair lsp_;
  const MemberRegistry* members_;

  std::unique_ptr<FileStreamStore> journals_;
  std::unique_ptr<FileStreamStore> blocks_;
  std::unique_ptr<CheckpointStore> checkpoints_;
  std::unique_ptr<Ledger> ledger_;
  std::unique_ptr<LedgerServer> server_;
};

}  // namespace servebench

#endif  // SERVEBENCH_HOST_H_
