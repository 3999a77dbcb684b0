// Seeded inputs of the served-ledger benchmark: identities, payloads, the
// preload layout, range windows and the operation streams of each
// workload. The same seed gives the same inputs; the program under test
// only ever sees the generated transactions and queries.

#ifndef SERVEBENCH_INPUTS_H_
#define SERVEBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "ledger/journal.h"
#include "ledger/members.h"

namespace servebench {

using namespace ledgerdb;

inline constexpr char kUri[] = "ledger://servebench";
inline constexpr size_t kPayloadBytes = 256;
inline constexpr int kClients = 4;
inline constexpr double kZipfSkew = 0.99;

/// Sizes of one run. `Default()` is the measured scale; `Smoke()` runs
/// every phase and check in seconds.
struct Scale {
  uint64_t purge_region = 1024;  ///< jsns [1, purge_region] may be purged
  uint64_t vault = 1024;         ///< occult targets, after the purge region
  uint64_t clues = 1024;         ///< main-region clues
  uint64_t per_clue = 8;         ///< main-region journals per clue
  uint64_t tail = 1024;          ///< main journals written after the checkpoint
  uint64_t window = 4;           ///< entries per range-audit window
  uint64_t purge_step = 4;       ///< journals each purge removes
  int setups = 5;                ///< set-ups per run (median reported)
  int probe_ops = 64;            ///< unloaded probe ops per absent class
  int probe_admin_ops = 20;      ///< of which every fifth is a purge

  uint64_t main() const { return clues * per_clue; }
  uint64_t preload() const { return purge_region + vault + main(); }
  static Scale Default() { return Scale{}; }
  static Scale Smoke();
};

/// Fixed cast of identities: LSP, DBA, regulator, the authors of the
/// preload, and one identity per load client.
struct Cast {
  CertificateAuthority ca{KeyPair::FromSeedString("servebench-ca")};
  MemberRegistry registry{&ca};
  KeyPair lsp = KeyPair::FromSeedString("servebench-lsp");
  KeyPair dba = KeyPair::FromSeedString("servebench-dba");
  KeyPair regulator = KeyPair::FromSeedString("servebench-regulator");
  std::vector<KeyPair> writers;  ///< preload authors (author ids 0..3)
  std::vector<KeyPair> clients;  ///< load clients (author ids 4..7)

  Cast();
  const KeyPair& Author(uint32_t author) const;
  std::vector<Endorsement> OccultEndorsements(uint64_t jsn) const;
  /// DBA plus every preload author: the owners of any purged range.
  std::vector<Endorsement> PurgeEndorsements(uint64_t before_jsn) const;
};

/// Who wrote a journal and with which nonce: enough to regenerate its
/// payload from the seed.
struct Origin {
  uint32_t author = 0;
  uint64_t nonce = 0;
};

/// The 256 payload bytes of (author, nonce) under `seed`.
Bytes Payload(uint64_t seed, const Origin& origin);

std::string MainClue(uint64_t k);

/// One preload journal, in jsn order starting at jsn 1 (jsn 0 is genesis).
struct PreloadEntry {
  Origin origin;
  std::string clue;
};

/// The preload: purge region (clues "old-*"), vault (clues "vault-*"),
/// then the main region, each main clue receiving exactly `per_clue`
/// journals in a seeded order. The last `scale.tail` entries are written
/// after the checkpoint.
std::vector<PreloadEntry> MakePreload(uint64_t seed, const Scale& scale);

/// Signs the preload transactions (4 threads).
std::vector<ClientTransaction> SignPreload(uint64_t seed, const Cast& cast,
                                           const std::vector<PreloadEntry>& plan);

/// A fixed-size window of one clue's lineage, resolved to server
/// timestamps, with the jsns the benchmark's own index holds in it.
struct Window {
  std::string clue;
  Timestamp from = 0;
  Timestamp to = 0;
  std::vector<uint64_t> jsns;
};

/// Aligned windows of `scale.window` entries over every main clue, from
/// the preload plan and the server timestamps read after the preload.
/// `by_clue[k]` lists the windows of main clue k.
std::vector<std::vector<Window>> MakeWindows(
    const std::vector<PreloadEntry>& plan, const std::vector<Timestamp>& ts,
    const Scale& scale);

enum class OpKind : uint8_t { kAppend, kRead, kRange, kOccult, kPurge };
const char* OpKindName(OpKind kind);

/// One operation with its seeded target: the append clue, the read jsn or
/// the range window (admin targets are taken from shared pools when run).
struct Op {
  OpKind kind = OpKind::kAppend;
  uint64_t target = 0;     ///< read jsn, main clue index of an append
  uint32_t clue = 0;       ///< range: main clue index
  uint32_t window = 0;     ///< range: window index within the clue
};

/// A workload's operation mix as one round: every run attempts whole
/// rounds of these kinds (shuffled per round).
struct Mix {
  std::vector<OpKind> round;
};

struct WorkloadSpec {
  std::string name;
  Mix mix;
  double offered_per_sec = 0;  ///< open-loop Poisson rate
  /// Reads span every preload jsn (else only the main region, which no
  /// admin op touches).
  bool reads_span_preload = false;
};

bool FindWorkload(const std::string& name, WorkloadSpec* out);

/// Run-wide choices every op stream shares: which clues are hot (a seeded
/// permutation of Zipf ranks), the range windows, and the read span.
struct Targets {
  std::vector<uint32_t> clue_of_rank;
  std::vector<std::vector<Window>> windows;  ///< by main clue
  uint64_t read_lo = 0;                      ///< reads are uniform over
  uint64_t read_hi = 0;                      ///< [read_lo, read_hi]
};

std::vector<uint32_t> HotClueOrder(uint64_t seed, uint64_t clues);

/// Draws ops round by round from one seeded stream.
class OpStream {
 public:
  OpStream(uint64_t seed, const Mix& mix, const Targets* targets);
  Op Next();

 private:
  Random rng_;
  ZipfSampler zipf_;
  Mix mix_;
  const Targets* targets_;
  std::vector<OpKind> round_;
  size_t at_ = 0;
};

/// The first `count` Poisson arrival offsets (µs from phase start) at
/// `rate` per second.
std::vector<uint64_t> PoissonSchedule(uint64_t seed, double rate,
                                      size_t count);

}  // namespace servebench

#endif  // SERVEBENCH_INPUTS_H_
