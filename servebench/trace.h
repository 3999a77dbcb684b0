// Tracing plumbing of the traced run. Everything here sits outside the
// program, at its public seams:
//   - TracedTransport: a LedgerTransport decorator timing every RPC the
//     client issues and remembering the wire trace_id it carried;
//   - CountingEnv: an Env decorator under the journal, block and
//     checkpoint stores counting writes, bytes and Sync calls and timing
//     each Sync;
//   - RequestLogDrain: drains the server's obs::RequestLog ring (1024
//     records) while the run goes, keeping queue and exec time by
//     trace_id so client RPC spans stitch to the server's view;
//   - spans in memory, written as JSON when the run ends.
// The untraced run uses none of this: its transports are bare
// SocketTransports and its stores sit on Env::Default().

#ifndef SERVEBENCH_TRACE_H_
#define SERVEBENCH_TRACE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/socket_transport.h"
#include "net/transport.h"
#include "obs/trace.h"
#include "storage/env.h"

namespace servebench {

using namespace ledgerdb;

/// Phases of a run; spans and samples are tagged with the phase they ran in.
enum class Phase : uint8_t {
  kSetup,
  kWarm,
  kOpen,
  kClosed,
  kProbe,
  kAudit,
  kCheck,
};
const char* PhaseName(Phase phase);

inline uint64_t NowUs() { return obs::NowUs(); }

struct Span {
  const char* name = nullptr;  ///< static: op kind, "refresh", RPC name, ...
  uint64_t id = 0;
  uint64_t parent = 0;  ///< enclosing span (0 = none)
  uint64_t op = 0;      ///< enclosing client op span (0 = none)
  uint64_t trace_id = 0;
  uint64_t start_us = 0;
  uint64_t dur_us = 0;
  Phase phase = Phase::kSetup;
  bool rpc = false;  ///< an RPC timed by TracedTransport
};

/// One thread's span buffer. Open spans nest; a span recorded while an op
/// span is open is attributed to that op.
class SpanBuffer {
 public:
  explicit SpanBuffer(std::atomic<uint64_t>* ids, const std::atomic<int>* phase)
      : ids_(ids), phase_(phase) {}

  /// Opens a span; returns its id. `is_op` marks a client operation.
  uint64_t Open(const char* name, bool is_op);
  void Close(uint64_t id);
  /// Records an already-timed RPC under the innermost open span.
  void Leaf(const char* name, uint64_t start_us, uint64_t dur_us,
            uint64_t trace_id);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  Phase phase() const { return static_cast<Phase>(phase_->load()); }

  std::atomic<uint64_t>* ids_;
  const std::atomic<int>* phase_;
  std::vector<Span> spans_;
  std::vector<size_t> open_;  ///< indexes into spans_ of open spans
  uint64_t op_ = 0;
};

/// RAII span on a (nullable) buffer.
class ScopedSpan {
 public:
  ScopedSpan(SpanBuffer* buf, const char* name, bool is_op = false)
      : buf_(buf), id_(buf != nullptr ? buf->Open(name, is_op) : 0) {}
  ~ScopedSpan() {
    if (buf_ != nullptr) buf_->Close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanBuffer* buf_;
  uint64_t id_;
};

/// Times every RPC through the wrapped socket transport.
class TracedTransport : public LedgerTransport {
 public:
  TracedTransport(SocketTransport* inner, SpanBuffer* buf)
      : inner_(inner), buf_(buf) {}

  Status AppendTx(const ClientTransaction& tx, uint64_t* jsn) override;
  Status GetReceipt(uint64_t jsn, Receipt* out) override;
  Status GetJournal(uint64_t jsn, Journal* out) override;
  Status GetProof(uint64_t jsn, FamProof* out) override;
  Status GetClueProof(const std::string& clue, uint64_t begin, uint64_t end,
                      ClueProof* out) override;
  Status ListTx(const std::string& clue, std::vector<uint64_t>* jsns) override;
  Status GetCommitment(SignedCommitment* out) override;
  Status GetDelta(uint64_t from, uint64_t to,
                  std::vector<JournalDelta>* out) override;
  Status GetProofBatch(const std::vector<uint64_t>& jsns,
                       FamBatchProof* out) override;
  Status ProveClueRange(const std::string& clue, Timestamp from, Timestamp to,
                        ClueRangeResult* out) override;
  const std::string& uri() const override { return inner_->uri(); }

 private:
  template <typename Fn>
  Status Timed(RpcOp op, Fn&& fn);

  SocketTransport* inner_;
  SpanBuffer* buf_;
};

/// Env decorator counting bytes written and timing every Sync.
class CountingEnv : public Env {
 public:
  explicit CountingEnv(Env* base) : base_(base) {}

  Status OpenFile(const std::string& path, std::unique_ptr<File>* out) override;
  bool FileExists(const std::string& path) const override {
    return base_->FileExists(path);
  }
  Status DeleteFile(const std::string& path) override {
    return base_->DeleteFile(path);
  }
  Status Rename(const std::string& from, const std::string& to) override {
    return base_->Rename(from, to);
  }

  uint64_t write_bytes() const { return write_bytes_.load(); }
  /// Sync durations (µs) with the phase each ran in.
  std::vector<std::pair<Phase, uint32_t>> sync_us() const;

  void set_phase_source(const std::atomic<int>* phase) { phase_ = phase; }

 private:
  class CountingFile;
  void OnWrite(size_t bytes);
  void OnSync(uint64_t us);

  Env* base_;
  const std::atomic<int>* phase_ = nullptr;
  std::atomic<uint64_t> write_bytes_{0};
  mutable std::mutex mu_;
  std::vector<std::pair<Phase, uint32_t>> sync_us_;
};

/// Server-side view of one traced request.
struct ServerRecord {
  uint64_t start_us = 0;
  uint64_t queue_us = 0;
  uint64_t exec_us = 0;
};

/// Polls obs::RequestLog::Default() while the run goes, keeping every
/// traced record by trace_id (the ring holds only the last 1024).
class RequestLogDrain {
 public:
  RequestLogDrain();
  ~RequestLogDrain();
  RequestLogDrain(const RequestLogDrain&) = delete;
  RequestLogDrain& operator=(const RequestLogDrain&) = delete;

  /// Stops polling after one final drain.
  void Stop();
  const std::unordered_map<uint64_t, ServerRecord>& records() const {
    return records_;
  }
  /// Records the ring overwrote before a drain saw them.
  uint64_t lost() const { return lost_; }

 private:
  void DrainOnce();

  std::unordered_map<uint64_t, ServerRecord> records_;
  uint64_t seen_total_ = 0;
  uint64_t lost_ = 0;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

/// Owns the span buffers of one traced run.
class Tracer {
 public:
  SpanBuffer* NewBuffer();
  void SetPhase(Phase phase) { phase_.store(static_cast<int>(phase)); }
  Phase phase() const { return static_cast<Phase>(phase_.load()); }
  const std::atomic<int>* phase_source() const { return &phase_; }

  /// Every span of every buffer.
  std::vector<Span> AllSpans() const;

 private:
  std::atomic<uint64_t> ids_{1};
  std::atomic<int> phase_{0};
  mutable std::mutex mu_;
  std::deque<std::unique_ptr<SpanBuffer>> buffers_;
};

/// Writes spans and stitched server records as one JSON document.
bool WriteSpansJson(const std::string& path, const std::vector<Span>& spans,
                    const std::unordered_map<uint64_t, ServerRecord>& server);

}  // namespace servebench

#endif  // SERVEBENCH_TRACE_H_
