#include "trace.h"

#include <chrono>
#include <cstdio>

namespace servebench {

const char* PhaseName(Phase phase) {
  switch (phase) {
    case Phase::kSetup: return "setup";
    case Phase::kWarm: return "warm";
    case Phase::kOpen: return "open";
    case Phase::kClosed: return "closed";
    case Phase::kProbe: return "probe";
    case Phase::kAudit: return "audit";
    case Phase::kCheck: return "check";
  }
  return "?";
}

// --- spans -------------------------------------------------------------

uint64_t SpanBuffer::Open(const char* name, bool is_op) {
  Span s;
  s.name = name;
  s.id = ids_->fetch_add(1);
  s.parent = open_.empty() ? 0 : spans_[open_.back()].id;
  if (is_op) op_ = s.id;
  s.op = op_;
  s.phase = phase();
  s.start_us = NowUs();
  open_.push_back(spans_.size());
  spans_.push_back(s);
  return s.id;
}

void SpanBuffer::Close(uint64_t id) {
  if (open_.empty() || spans_[open_.back()].id != id) return;
  Span& s = spans_[open_.back()];
  s.dur_us = NowUs() - s.start_us;
  open_.pop_back();
  if (s.id == op_) op_ = 0;
}

void SpanBuffer::Leaf(const char* name, uint64_t start_us, uint64_t dur_us,
                      uint64_t trace_id) {
  Span s;
  s.name = name;
  s.id = ids_->fetch_add(1);
  s.parent = open_.empty() ? 0 : spans_[open_.back()].id;
  s.op = op_;
  s.trace_id = trace_id;
  s.start_us = start_us;
  s.dur_us = dur_us;
  s.phase = phase();
  s.rpc = true;
  spans_.push_back(s);
}

SpanBuffer* Tracer::NewBuffer() {
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.push_back(std::make_unique<SpanBuffer>(&ids_, &phase_));
  return buffers_.back().get();
}

std::vector<Span> Tracer::AllSpans() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> all;
  for (const auto& b : buffers_) {
    all.insert(all.end(), b->spans().begin(), b->spans().end());
  }
  return all;
}

// --- transport decorator -------------------------------------------------

template <typename Fn>
Status TracedTransport::Timed(RpcOp op, Fn&& fn) {
  const uint64_t t0 = NowUs();
  Status s = fn();
  buf_->Leaf(RpcOpName(op), t0, NowUs() - t0, inner_->last_trace_id());
  return s;
}

Status TracedTransport::AppendTx(const ClientTransaction& tx, uint64_t* jsn) {
  return Timed(RpcOp::kAppendTx, [&] { return inner_->AppendTx(tx, jsn); });
}
Status TracedTransport::GetReceipt(uint64_t jsn, Receipt* out) {
  return Timed(RpcOp::kGetReceipt, [&] { return inner_->GetReceipt(jsn, out); });
}
Status TracedTransport::GetJournal(uint64_t jsn, Journal* out) {
  return Timed(RpcOp::kGetJournal, [&] { return inner_->GetJournal(jsn, out); });
}
Status TracedTransport::GetProof(uint64_t jsn, FamProof* out) {
  return Timed(RpcOp::kGetProof, [&] { return inner_->GetProof(jsn, out); });
}
Status TracedTransport::GetClueProof(const std::string& clue, uint64_t begin,
                                     uint64_t end, ClueProof* out) {
  return Timed(RpcOp::kGetClueProof,
               [&] { return inner_->GetClueProof(clue, begin, end, out); });
}
Status TracedTransport::ListTx(const std::string& clue,
                               std::vector<uint64_t>* jsns) {
  return Timed(RpcOp::kListTx, [&] { return inner_->ListTx(clue, jsns); });
}
Status TracedTransport::GetCommitment(SignedCommitment* out) {
  return Timed(RpcOp::kGetCommitment,
               [&] { return inner_->GetCommitment(out); });
}
Status TracedTransport::GetDelta(uint64_t from, uint64_t to,
                                 std::vector<JournalDelta>* out) {
  return Timed(RpcOp::kGetDelta,
               [&] { return inner_->GetDelta(from, to, out); });
}
Status TracedTransport::GetProofBatch(const std::vector<uint64_t>& jsns,
                                      FamBatchProof* out) {
  return Timed(RpcOp::kGetProofBatch,
               [&] { return inner_->GetProofBatch(jsns, out); });
}
Status TracedTransport::ProveClueRange(const std::string& clue, Timestamp from,
                                       Timestamp to, ClueRangeResult* out) {
  return Timed(RpcOp::kProveClueRange,
               [&] { return inner_->ProveClueRange(clue, from, to, out); });
}

// --- counting env --------------------------------------------------------

class CountingEnv::CountingFile : public File {
 public:
  CountingFile(std::unique_ptr<File> base, CountingEnv* env)
      : base_(std::move(base)), env_(env) {}

  Status Read(uint64_t offset, size_t n, Bytes* out) const override {
    return base_->Read(offset, n, out);
  }
  Status Write(uint64_t offset, Slice data) override {
    env_->OnWrite(data.size());
    return base_->Write(offset, data);
  }
  Status Sync() override {
    const uint64_t t0 = NowUs();
    Status s = base_->Sync();
    env_->OnSync(NowUs() - t0);
    return s;
  }
  Status Truncate(uint64_t size) override { return base_->Truncate(size); }
  Status Size(uint64_t* out) const override { return base_->Size(out); }

 private:
  std::unique_ptr<File> base_;
  CountingEnv* env_;
};

Status CountingEnv::OpenFile(const std::string& path,
                             std::unique_ptr<File>* out) {
  std::unique_ptr<File> base;
  LEDGERDB_RETURN_IF_ERROR(base_->OpenFile(path, &base));
  *out = std::make_unique<CountingFile>(std::move(base), this);
  return Status::OK();
}

void CountingEnv::OnWrite(size_t bytes) {
  write_bytes_.fetch_add(bytes, std::memory_order_relaxed);
}

void CountingEnv::OnSync(uint64_t us) {
  Phase phase = phase_ != nullptr ? static_cast<Phase>(phase_->load())
                                  : Phase::kSetup;
  std::lock_guard<std::mutex> lock(mu_);
  sync_us_.emplace_back(phase, static_cast<uint32_t>(us));
}

std::vector<std::pair<Phase, uint32_t>> CountingEnv::sync_us() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sync_us_;
}

// --- request-log drain ---------------------------------------------------

namespace {
/// Drain period: the ring holds 1024 records, so at the served path's
/// ~10k RPC/s a 20 ms poll keeps well inside it.
constexpr auto kDrainPeriod = std::chrono::milliseconds(20);
}  // namespace

RequestLogDrain::RequestLogDrain() {
  seen_total_ = obs::RequestLog::Default().TotalRecorded();
  thread_ = std::thread([this] {
    std::unique_lock<std::mutex> lock(mu_);
    while (!stop_) {
      cv_.wait_for(lock, kDrainPeriod, [this] { return stop_; });
      DrainOnce();
    }
  });
}

RequestLogDrain::~RequestLogDrain() { Stop(); }

void RequestLogDrain::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void RequestLogDrain::DrainOnce() {
  obs::RequestLog& log = obs::RequestLog::Default();
  // Total first, then the ring: records pushed in between are kept now
  // and counted again next time, never lost.
  const uint64_t total = log.TotalRecorded();
  std::vector<obs::RequestRecord> ring = log.Snapshot();
  const uint64_t fresh = total - seen_total_;
  if (fresh > ring.size()) lost_ += fresh - ring.size();
  seen_total_ = total;
  for (const obs::RequestRecord& r : ring) {
    if (r.trace_id == 0 || r.shed) continue;
    records_[r.trace_id] = ServerRecord{r.start_us, r.queue_us, r.exec_us};
  }
}

// --- JSON ----------------------------------------------------------------

bool WriteSpansJson(const std::string& path, const std::vector<Span>& spans,
                    const std::unordered_map<uint64_t, ServerRecord>& server) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"spans\": [\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,\"op\":%llu,"
                 "\"phase\":\"%s\",\"start_us\":%llu,\"dur_us\":%llu",
                 i == 0 ? "" : ",\n", s.name, (unsigned long long)s.id,
                 (unsigned long long)s.parent, (unsigned long long)s.op,
                 PhaseName(s.phase), (unsigned long long)s.start_us,
                 (unsigned long long)s.dur_us);
    auto it = s.trace_id != 0 ? server.find(s.trace_id) : server.end();
    if (it != server.end()) {
      std::fprintf(f, ",\"trace_id\":%llu,\"queue_us\":%llu,\"exec_us\":%llu",
                   (unsigned long long)s.trace_id,
                   (unsigned long long)it->second.queue_us,
                   (unsigned long long)it->second.exec_us);
    }
    std::fprintf(f, "}");
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace servebench
