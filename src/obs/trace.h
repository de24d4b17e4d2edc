// Low-overhead request tracing for the live system: where one slow upload
// spent its time across chunk -> encode -> dedup RPC -> wire -> server
// stripe (the per-stage breakdown §5's evaluation reasons about), from a
// running deployment instead of an offline bench.
//
// Design rides the sharded-registry idea from metrics.h: recording is
// wait-free on hot paths. Each thread appends finished spans to its own
// ring buffer; a slot is a tiny seqlock (one sequence word + release/
// acquire word-wise payload), so a concurrent Dump() never blocks a recording
// thread and never reads a torn span as valid. Rings are merged only at
// dump time.
//
// Sampling is decided ONCE per request (TraceRequest): 1-in-N via
// TraceOptions::sample_every_n. An unsampled request costs two clock reads
// and one counter — no spans record under it. Requests whose total latency
// exceeds slow_threshold_ns are force-sampled retroactively (their root
// span records even when unsampled), and every finished request is offered
// to a bounded flight recorder that always retains the worst K by duration
// — the "why was *that* one slow" buffer that survives sampling.
//
// Propagation: TraceContext {trace_id, span_id, sampled} travels in a
// thread-local "current parent" slot within a process (ScopedSpan /
// ScopedTraceParent maintain it) and inside a kTracedRequest envelope on
// the wire (net/message), so server-side spans parent under the client's
// RPC span. trace_id is global to the request; each process records into
// its own Tracer and dumps merge by trace_id.
//
// Every shed point is counted, never silent: ring overwrites ->
// spans_dropped, sampling skips -> unsampled, flight-recorder evictions ->
// flight_evictions; all mirrored into a MetricRegistry when bound.
#ifndef CDSTORE_SRC_OBS_TRACE_H_
#define CDSTORE_SRC_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/metrics.h"
#include "src/util/sync.h"

namespace cdstore {

class Tracer;

// The propagated identity of one request: which trace a span belongs to and
// which span it parents under. `sampled` carries the once-per-request
// sampling decision, so downstream layers (and remote servers) never
// re-decide. A context with trace_id == 0 or sampled == false records
// nothing.
struct TraceContext {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;  // the span new children parent under
  bool sampled = false;

  bool active() const { return trace_id != 0 && sampled; }
};

// The thread's current trace parent (set by ScopedSpan / ScopedTraceParent;
// inactive context when no trace is live on this thread).
TraceContext CurrentTraceContext();

struct TraceOptions {
  // Sample 1 request in N. 1 = every request, 0 = never (spans off; only
  // root latency + the flight recorder stay live).
  uint64_t sample_every_n = 1;
  // A request slower than this records its root span even when unsampled
  // (force-sample), so the flight recorder's worst-K entries always have at
  // least a root in the span dump. 0 = no force-sampling.
  uint64_t slow_threshold_ns = 100ull * 1000 * 1000;  // 100 ms
  // Finished-span slots per recording thread (rounded up to a power of
  // two). The ring keeps the most recent spans; overwrites count as drops.
  size_t ring_slots = 4096;
  // Worst-K traces the flight recorder retains.
  size_t flight_recorder_k = 8;
  // Mirror the shed/recorded counts into this registry
  // (cdstore_trace_*). Not owned; null = registry metrics off.
  MetricRegistry* metrics = nullptr;
};

// One finished span as recorded on the hot path. `name` must point at a
// string literal (or other static-storage string): rings store the pointer,
// not the bytes. `annot` is a small NUL-terminated tag for per-span dynamic
// detail ("cloud=2", "code=unavailable backoff_ms=12").
struct SpanRecord {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_id = 0;
  uint64_t start_ns = 0;  // monotonic clock
  uint64_t dur_ns = 0;
  const char* name = "";
  uint32_t tid = 0;
  char annot[40] = {};
};

// Dump-side (and wire-side, via the GetTraces RPC) form of a span: names
// resolved to owned strings, safe to serialize out of the process.
struct TraceSpanSample {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_id = 0;
  uint64_t start_ns = 0;
  uint64_t dur_ns = 0;
  uint32_t tid = 0;
  std::string name;
  std::string annot;
};

// One flight-recorder entry: a whole-request latency outlier.
struct SlowTraceSample {
  uint64_t trace_id = 0;
  uint64_t dur_ns = 0;
  uint8_t sampled = 0;  // 0 = only the (force-sampled) root span exists
  std::string root;     // root span name
};

// Everything a dump carries: merged spans from every thread ring (sorted by
// trace_id then start_ns), the worst-K slow requests, and the shed/recorded
// accounting so no drop is invisible.
struct TraceDump {
  std::vector<TraceSpanSample> spans;
  std::vector<SlowTraceSample> slow;  // descending duration
  uint64_t spans_recorded = 0;
  uint64_t spans_dropped = 0;      // ring overwrites
  uint64_t unsampled = 0;          // requests the sampler skipped
  uint64_t flight_evictions = 0;   // flight-recorder displacements
};

namespace trace_internal {

// SpanRecord packed into atomic words behind a per-slot seqlock:
// 5 ids/times + name pointer + tid + 5 annot words.
inline constexpr size_t kSpanWords = 12;
inline constexpr size_t kAnnotBytes = sizeof(SpanRecord{}.annot);

struct Slot {
  // 0 = never written; odd = write in progress; even nonzero = valid.
  std::atomic<uint64_t> seq{0};
  std::atomic<uint64_t> w[kSpanWords];
};

// One thread's span ring. Written only by its owner thread; read by
// Dump() through the per-slot seqlocks.
struct ThreadRing {
  explicit ThreadRing(size_t slots);
  std::unique_ptr<Slot[]> slots;
  size_t mask;    // slots count - 1 (power of two)
  uint64_t next;  // owner-thread only; ownership passes under RingPool::mu
};

// Every ring one tracer has created. A thread leases a ring on its first
// span and hands it back to `free` when it exits; the next thread to take
// it does so under `mu`, which orders the old owner's writes before the
// new owner's. Shared with the leasing threads, so a thread that outlives
// its tracer still has somewhere to return its ring.
struct RingPool {
  Mutex mu;
  std::vector<std::unique_ptr<ThreadRing>> rings GUARDED_BY(mu);
  std::vector<ThreadRing*> free GUARDED_BY(mu);
};

}  // namespace trace_internal

// The per-process span sink. Cheap to consult when off: every hook is
// null-checked, and an unsampled context makes ScopedSpan a no-op.
class Tracer {
 public:
  explicit Tracer(const TraceOptions& options = {});
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;
  ~Tracer();

  const TraceOptions& options() const { return opts_; }

  // Hot-path internals used by the RAII guards below.
  uint64_t NextSpanId() { return next_span_id_.fetch_add(1, std::memory_order_relaxed); }
  uint64_t NextTraceId();
  bool SampleNext();
  void Record(const SpanRecord& rec);
  // Ends one request: offers (trace_id, root, dur) to the flight recorder.
  void FinishRequest(uint64_t trace_id, const char* root, uint64_t dur_ns, bool sampled);

  // Merge every thread ring + the flight recorder into one dump. Safe to
  // call concurrently with recording (seqlock readers discard torn slots).
  TraceDump Dump() const;

  uint64_t spans_recorded() const { return spans_recorded_.load(std::memory_order_relaxed); }
  uint64_t spans_dropped() const { return spans_dropped_.load(std::memory_order_relaxed); }
  uint64_t unsampled() const { return unsampled_.load(std::memory_order_relaxed); }
  uint64_t flight_evictions() const {
    return flight_evictions_.load(std::memory_order_relaxed);
  }
  void CountUnsampled();

 private:
  trace_internal::ThreadRing* Ring();
  trace_internal::ThreadRing* LeaseRing();

  TraceOptions opts_;
  uint64_t trace_id_base_;
  const uint64_t generation_;  // distinguishes reincarnations at one address
  std::atomic<uint64_t> next_span_id_{1};
  std::atomic<uint64_t> next_trace_seq_{0};
  std::atomic<uint64_t> sample_seq_{0};

  const std::shared_ptr<trace_internal::RingPool> pool_ =
      std::make_shared<trace_internal::RingPool>();

  struct FlightEntry {
    uint64_t trace_id = 0;
    uint64_t dur_ns = 0;
    bool sampled = false;
    const char* root = "";
  };
  mutable Mutex flight_mu_;
  std::vector<FlightEntry> flight_ GUARDED_BY(flight_mu_);  // unsorted, size <= K

  // Shed/recorded accounting: always counted locally, mirrored into the
  // registry when bound (resolved once at construction).
  std::atomic<uint64_t> spans_recorded_{0};
  std::atomic<uint64_t> spans_dropped_{0};
  std::atomic<uint64_t> unsampled_{0};
  std::atomic<uint64_t> flight_evictions_{0};
  Counter* m_recorded_ = nullptr;
  Counter* m_dropped_ = nullptr;
  Counter* m_unsampled_ = nullptr;
  Counter* m_flight_evicted_ = nullptr;
  Gauge* m_flight_occupancy_ = nullptr;
};

// Monotonic now, the span clock.
inline uint64_t TraceNowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

// Root of one logical request (an upload, a download): makes the sampling
// decision, measures end-to-end latency, records the root span, and feeds
// the flight recorder at End(). Does NOT touch the thread's current parent
// (it may outlive the constructing call, e.g. inside an UploadWriter);
// scope child work with ScopedTraceParent(context()).
class TraceRequest {
 public:
  TraceRequest() = default;
  TraceRequest(Tracer* tracer, const char* name) { Start(tracer, name); }
  TraceRequest(const TraceRequest&) = delete;
  TraceRequest& operator=(const TraceRequest&) = delete;
  ~TraceRequest() { End(); }

  void Start(Tracer* tracer, const char* name);
  void End();  // idempotent
  const TraceContext& context() const { return ctx_; }

 private:
  Tracer* tracer_ = nullptr;
  TraceContext ctx_{};
  const char* name_ = "";
  uint64_t start_ns_ = 0;
};

// Pushes `ctx` as the thread's current trace parent for the scope (always,
// even when inactive — a dead context must mask any stale outer one).
class ScopedTraceParent {
 public:
  explicit ScopedTraceParent(const TraceContext& ctx);
  ScopedTraceParent(const ScopedTraceParent&) = delete;
  ScopedTraceParent& operator=(const ScopedTraceParent&) = delete;
  ~ScopedTraceParent();

 private:
  TraceContext prev_;
};

// RAII span. Active iff `tracer` is non-null and the parent context is a
// sampled live trace; otherwise every method is a cheap no-op. While
// active, the span is the thread's current parent, so nested spans (and
// CallCloud's wire propagation) chain automatically. `name` must be a
// string literal / static string.
class ScopedSpan {
 public:
  // Parent = the thread's current context.
  ScopedSpan(Tracer* tracer, const char* name);
  // Explicit parent — the cross-thread handoff form (pipeline workers,
  // fetch lanes, Dispatch parenting under a wire context).
  ScopedSpan(Tracer* tracer, const char* name, const TraceContext& parent);
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan();

  bool active() const { return tracer_ != nullptr; }
  const TraceContext& context() const { return ctx_; }

  // Replaces the span's annotation tag (truncated to the record's budget).
  void Annotate(const char* text);
  // Appends "key=value " (integer value) to the tag.
  void AnnotateKV(const char* key, uint64_t value);

 private:
  Tracer* tracer_ = nullptr;  // null = inert
  TraceContext ctx_{};
  TraceContext prev_{};
  uint64_t parent_id_ = 0;
  uint64_t start_ns_ = 0;
  const char* name_ = "";
  char annot_[trace_internal::kAnnotBytes] = {};
};

// --- rendering -------------------------------------------------------------

// Appends one Chrome trace_event "X" (complete duration) event per span to
// `out` (comma-separated; caller owns the surrounding JSON array). `pid`
// labels the originating process/cloud in the viewer.
void AppendChromeTraceEvents(const std::vector<TraceSpanSample>& spans, int pid,
                             bool* first, std::string* out);

// A complete Chrome trace_event JSON document ({"traceEvents":[...]}) —
// loadable in about://tracing / Perfetto.
std::string ChromeTraceJson(const std::vector<TraceSpanSample>& spans, int pid = 0);

// Human tree view: one block per trace, spans nested under their parents
// with durations and annotations.
std::string FormatTraceTree(const std::vector<TraceSpanSample>& spans);

}  // namespace cdstore

#endif  // CDSTORE_SRC_OBS_TRACE_H_
