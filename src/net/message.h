// The CDStore client <-> server wire protocol. One request/reply pair per
// interaction of §3.3/§4:
//
//   FpQuery        intra-user dedup check ("which of these shares have I
//                  already uploaded?")
//   UploadShares   4MB batches of unique shares (server re-fingerprints);
//                  a file's last batch may carry its commit (the PutFile
//                  fields), so a file with unique shares commits without a
//                  separate PutFile round trip
//   PutFile        finalize a file generation: pathname share + recipe.
//                  A conditional PutFile (query_from set) commits only if
//                  the user already owns every share from query_from on, and
//                  otherwise answers that range as FpQuery would — so a
//                  deduplicated file needs no tail FpQuery
//   GetFile        fetch a generation's recipe by pathname share, plus the
//                  shares of the download's first batch (BatchEnd) when the
//                  request asks for a prefetch, so a small file restores in
//                  one round trip per cloud
//   GetShares      fetch shares by fingerprint (batches after the first,
//                  failover and brute-force recovery)
//   DeleteFile     drop a file (every generation) and its share references
//   Stats          server-side accounting for experiments
//   ListVersions   enumerate a path's backup generations (§5: the paper's
//                  workloads are weekly snapshot series)
//   DeleteVersion  drop one generation's share references
//   ApplyRetention prune generations by keep-last-N / keep-within-window
//   ListPaths      paginated enumeration of a user's namespace (path ids +
//                  dispersed name shares; replies stay bounded via cursor)
//   ApplyRetentionNamespace
//                  one server-side retention sweep over every path of the
//                  user's namespace (commit-locked per page, not per path)
//
// Every message is [u8 type][payload]; replies reuse the same enum. Errors
// travel as a kError frame wrapping a status code + text.
#ifndef CDSTORE_SRC_NET_MESSAGE_H_
#define CDSTORE_SRC_NET_MESSAGE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/dedup/fingerprint.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/io.h"
#include "src/util/status.h"

namespace cdstore {

enum class MsgType : uint8_t {
  kError = 0,
  kFpQueryRequest,
  kFpQueryReply,
  kUploadSharesRequest,
  kUploadSharesReply,
  kPutFileRequest,
  kPutFileReply,
  kGetFileRequest,
  kGetFileReply,
  kGetSharesRequest,
  kGetSharesReply,
  kDeleteFileRequest,
  kDeleteFileReply,
  kStatsRequest,
  kStatsReply,
  kGcRequest,
  kGcReply,
  kListVersionsRequest,
  kListVersionsReply,
  kDeleteVersionRequest,
  kDeleteVersionReply,
  kApplyRetentionRequest,
  kApplyRetentionReply,
  kListPathsRequest,
  kListPathsReply,
  kApplyRetentionNamespaceRequest,
  kApplyRetentionNamespaceReply,
  kGetMetricsRequest,
  kGetMetricsReply,
  kGetTracesRequest,
  kGetTracesReply,
  // Optional trace-context envelope around any request frame:
  // [u8 kTracedRequest][u64 trace_id][u64 parent_span_id][u8 sampled]
  // [inner frame bytes]. Dispatch peels it before typed decode, so frames
  // WITHOUT the envelope stay byte-identical to pre-tracing peers, and
  // untraced requests never pay for the header.
  kTracedRequest,
};

// One past the largest MsgType value: sizes per-RPC-type lookup tables
// (e.g. the dispatcher's cached metric handles).
inline constexpr size_t kNumMsgTypes = static_cast<size_t>(MsgType::kTracedRequest) + 1;

// The RPC name shared by a request/reply pair ("FpQuery" for
// kFpQueryRequest and kFpQueryReply); "Error" / "Unknown" otherwise. Used
// as the `rpc` label of the per-RPC metrics and by the CLI.
const char* RpcName(MsgType type);

// One secret's share within a file recipe (§4.3 share metadata).
struct RecipeEntry {
  Fingerprint fp;         // share fingerprint (for retrieval & dedup refs)
  uint32_t secret_size;   // original secret size (strips CAONT padding)
  uint32_t share_size;    // share size (sanity checks)
};

struct FpQueryRequest {
  uint64_t user = 0;
  std::vector<Fingerprint> fps;
};
struct FpQueryReply {
  // duplicate[i] == 1 iff fps[i] is already stored *by this user*.
  std::vector<uint8_t> duplicate;
};

// How PutFile binds the uploaded recipe into the versioned namespace.
enum class PutFileMode : uint8_t {
  // Append a new backup generation under the path (a weekly snapshot in
  // the paper's workloads); the path's earlier generations stay restorable.
  kNewGeneration = 0,
  // Replace the path's latest generation IN PLACE (the pre-versioning
  // overwrite semantics): the old latest's share references are dropped
  // and its generation id is reused, so partial-failure retries keep
  // per-cloud id allocation in lockstep.
  kReplaceLatest = 1,
  // Write generation `generation_id` exactly (repair of one cloud's copy
  // of an existing generation): ids stay in lockstep across clouds.
  kPutGeneration = 2,
};

struct PutFileRequest {
  uint64_t user = 0;
  Bytes path_key;  // this cloud's share of the encoded pathname
  // Namespace-enumeration metadata, stored in the path head so ListPaths
  // can hand the path back to a client later: a client-derived id that is
  // identical on every cloud (matches one path's entries across listings),
  // and the cleartext name's byte length (strips dispersal padding when k
  // name shares are decoded; the share size already bounds it, so this
  // leaks nothing the cloud cannot infer). Both optional — legacy writers
  // send them empty/zero and their paths list as unnamed until touched.
  Bytes path_id;
  uint32_t path_name_len = 0;
  uint64_t file_size = 0;
  PutFileMode mode = PutFileMode::kNewGeneration;
  uint64_t generation_id = 0;  // kPutGeneration only; must be nonzero there
  uint64_t timestamp_ms = 0;   // client backup time, drives retention windows
  std::vector<RecipeEntry> recipe;
  // Set = conditional commit: the server commits only if `user` already
  // owns every share of recipe[*query_from..] (the FpQuery check), and
  // otherwise commits nothing and answers with that range's duplicate
  // bitmap. Trailing field, flagged by the high bit of the mode byte, so a
  // decoder that predates it rejects the frame ("unknown PutFile mode")
  // instead of committing it unconditionally.
  std::optional<uint64_t> query_from;
};
struct PutFileReply {
  uint64_t generation_id = 0;  // the generation this recipe was bound to
  // Set only when a conditional PutFile did not commit (generation_id is
  // then 0): duplicate[i] == 1 iff recipe[query_from + i] is already stored
  // by this user — exactly FpQuery's answer for that range. Trailing field:
  // a committed reply is byte-identical to an unconditional one.
  std::optional<std::vector<uint8_t>> duplicate;
};

struct UploadSharesRequest {
  uint64_t user = 0;
  std::vector<Bytes> shares;
  // Set = after storing the shares, commit this file exactly as a PutFile
  // with these fields would (its `user` is ignored: the request's applies;
  // its query_from must be unset). Trailing field: a frame without it
  // decodes as "no commit".
  std::optional<PutFileRequest> commit;
};
// Zero-copy decode target for an UploadSharesRequest: each share is a span
// into the request frame, so a server handler holds no per-share heap copy
// of the payload (the server-side half of the message-layer zero-copy
// plan; the frame must outlive the view).
struct UploadSharesRequestView {
  uint64_t user = 0;
  std::vector<ConstByteSpan> shares;
  std::optional<PutFileRequest> commit;  // as in UploadSharesRequest
};
struct UploadSharesReply {
  uint32_t stored = 0;        // shares newly written to a container
  uint32_t deduplicated = 0;  // shares inter-user deduplicated away
  // The generation the request's commit was bound to; set only when the
  // request carried one. Trailing field: a reply without it decodes unset.
  std::optional<uint64_t> generation_id;
};

struct GetFileRequest {
  uint64_t user = 0;
  Bytes path_key;
  uint64_t generation = 0;  // 0 = latest
  // Byte budget of the first download batch to return with the recipe
  // (the client's download_batch_bytes); 0 = recipe only. Trailing field: a
  // frame without it decodes as 0. The server clamps it so the reply stays
  // under kMaxFrameBytes.
  uint64_t prefetch_bytes = 0;
};
struct GetFileReply {
  uint64_t generation_id = 0;  // resolved id (latest when requested as 0)
  uint64_t file_size = 0;
  std::vector<RecipeEntry> recipe;
  // Shares of recipe[0, shares.size()) — the first batch, BatchEnd(recipe,
  // 0, prefetch) long — or empty when none were asked for. Decode makes them
  // spans into the reply frame (as DecodeShareSpans does), so the frame must
  // outlive them. Trailing list: a frame without it decodes as empty.
  std::vector<ConstByteSpan> shares;
};

// One download batch: the end of the batch that starts at recipe[begin],
// found by accumulating share_size until it reaches `batch_bytes`. A batch
// holds at least one entry (begin < recipe.size()). The client's batch plan
// and the server's GetFile prefetch both use it, so they cut the same
// boundaries.
size_t BatchEnd(const std::vector<RecipeEntry>& recipe, size_t begin, uint64_t batch_bytes);

struct GetSharesRequest {
  uint64_t user = 0;
  std::vector<Fingerprint> fps;
};
struct GetSharesReply {
  std::vector<Bytes> shares;  // same order as request
};

struct DeleteFileRequest {
  uint64_t user = 0;
  Bytes path_key;
};
struct DeleteFileReply {
  uint32_t generations_deleted = 0;
  uint32_t shares_orphaned = 0;
};

// --- versioned namespace (backup generations) ----------------------------

// One backup generation of a path as this cloud indexed it. unique_bytes is
// the share bytes whose FIRST reference came from this generation (exact
// under the server's striped locks), so logical/unique is the
// per-generation dedup ratio the §5.6 cost model consumes.
struct VersionInfo {
  uint64_t generation_id = 0;
  uint64_t logical_bytes = 0;  // file size of this generation
  uint64_t unique_bytes = 0;   // share bytes first referenced by it
  uint64_t num_secrets = 0;
  uint64_t timestamp_ms = 0;
};

struct ListVersionsRequest {
  uint64_t user = 0;
  Bytes path_key;
};
struct ListVersionsReply {
  std::vector<VersionInfo> versions;  // ascending generation_id
};

struct DeleteVersionRequest {
  uint64_t user = 0;
  Bytes path_key;
  uint64_t generation_id = 0;  // must name an existing generation
};
struct DeleteVersionReply {
  uint32_t shares_orphaned = 0;
};

// Retention policy (§5.6 prices "weekly backups under a retention
// window"): a generation SURVIVES if it is among the newest keep_last_n by
// generation id, OR its timestamp lies within keep_within_ms of now_ms. A
// rule set to 0 is absent; with both absent nothing is pruned. now_ms
// travels in the request so pruning is deterministic and testable.
struct RetentionPolicy {
  uint32_t keep_last_n = 0;
  uint64_t keep_within_ms = 0;
  uint64_t now_ms = 0;
};

struct ApplyRetentionRequest {
  uint64_t user = 0;
  Bytes path_key;
  RetentionPolicy policy;
};
struct ApplyRetentionReply {
  uint32_t generations_deleted = 0;
  uint32_t shares_orphaned = 0;
  uint64_t logical_bytes_deleted = 0;
  std::vector<uint64_t> deleted_generations;  // ascending
};

// --- namespace-scoped control plane ---------------------------------------

// One path head as this cloud indexed it: the enumeration unit of the
// namespace. `path_id` matches this path's entries across clouds; k clouds'
// `name_share`s reconstruct the cleartext name (§4.3 dispersed metadata).
// Legacy heads written before names were stored list with empty id/share
// until a mutating touch upgrades them.
struct PathInfo {
  Bytes path_id;
  Bytes name_share;
  uint32_t name_len = 0;
  uint64_t latest_generation = 0;
  uint64_t generation_count = 0;
  uint64_t latest_timestamp_ms = 0;
  uint64_t latest_logical_bytes = 0;
};

struct ListPathsRequest {
  uint64_t user = 0;
  // Resume cursor from the previous reply; empty = start of the namespace.
  Bytes cursor;
  // Max entries in this page; 0 = server default. The server clamps it, so
  // reply frames stay bounded no matter how large the namespace is.
  uint32_t max_entries = 0;
};
struct ListPathsReply {
  std::vector<PathInfo> paths;  // ascending H(path_key) order
  Bytes next_cursor;            // empty = namespace exhausted
};

// Retention applied to every path of the user's namespace in one RPC. The
// server sweeps the namespace page by page, taking its commit lock once
// per page instead of once per path; prune decisions are identical to a
// per-path ApplyRetention loop over the same policy.
struct ApplyRetentionNamespaceRequest {
  uint64_t user = 0;
  RetentionPolicy policy;
  // Paths per commit-locked page; 0 = server default.
  uint32_t page_size = 0;
};
// Per-path pruning outcome within a namespace sweep (only paths that lost
// at least one generation are reported; `path_id` may be empty for legacy
// unnamed heads).
struct PathRetentionResult {
  Bytes path_id;
  uint32_t generations_deleted = 0;
  uint64_t logical_bytes_deleted = 0;
  uint8_t path_removed = 0;  // every generation pruned; head dropped
};
struct ApplyRetentionNamespaceReply {
  uint64_t paths_swept = 0;
  uint64_t paths_removed = 0;
  uint64_t generations_deleted = 0;
  uint32_t shares_orphaned = 0;
  uint64_t logical_bytes_deleted = 0;
  // Commit-lock acquisitions the sweep needed — O(pages), not O(paths).
  uint32_t pages = 0;
  std::vector<PathRetentionResult> per_path;
};

struct StatsRequest {};
struct StatsReply {
  uint64_t unique_shares = 0;
  uint64_t stored_bytes = 0;      // backend bytes (containers)
  uint64_t container_count = 0;
  uint64_t file_count = 0;
  // Namespace totals (all users): benches and the CLI report fleet-level
  // occupancy without paying for a full ListPaths scan.
  uint64_t generation_count = 0;
};

// Metrics scrape (observability subsystem, src/obs/): the full registry
// snapshot — counters, gauges, and merged histogram buckets — over the
// ordinary RPC surface, so the CLI and tests read a live server's metrics
// through whatever transport already connects them. The Prometheus text
// surface (GET /metrics) serves the same snapshot over HTTP.
struct GetMetricsRequest {};
struct GetMetricsReply {
  std::vector<MetricSample> samples;
};

// Trace scrape (src/obs/trace.h): the server tracer's merged span dump,
// flight-recorder outliers, and shed accounting over the ordinary RPC
// surface — what `cdstore_cli trace` renders as a tree or Chrome JSON.
struct GetTracesRequest {};
struct GetTracesReply {
  std::vector<TraceSpanSample> spans;
  std::vector<SlowTraceSample> slow;
  uint64_t spans_recorded = 0;
  uint64_t spans_dropped = 0;
  uint64_t unsampled = 0;
  uint64_t flight_evictions = 0;
};

// The compact trace context carried by a kTracedRequest envelope.
struct TraceContextHeader {
  uint64_t trace_id = 0;
  uint64_t parent_span_id = 0;
  uint8_t sampled = 0;
};

// Garbage collection (§4.7, realized here): rewrites containers that hold
// orphaned shares, reclaiming their space at the backend.
struct GcRequest {};
struct GcReply {
  uint64_t containers_scanned = 0;
  uint64_t containers_rewritten = 0;
  uint64_t bytes_reclaimed = 0;
  uint64_t live_shares_moved = 0;
};

// --- encoding ------------------------------------------------------------

MsgType PeekType(ConstByteSpan frame);

Bytes Encode(const FpQueryRequest& m);
Bytes Encode(const FpQueryReply& m);
Bytes Encode(const UploadSharesRequest& m);
Bytes Encode(const UploadSharesReply& m);
Bytes Encode(const PutFileRequest& m);
Bytes Encode(const PutFileReply& m);
Bytes Encode(const GetFileRequest& m);
Bytes Encode(const GetFileReply& m);
// Streaming encoders for the two share-carrying replies: the frame up to
// (not including) its trailing share list. Appending PutVarint(count) and
// `count` PutBytes(share) yields the Encode() frame.
BufferWriter BeginSharesReply();
BufferWriter BeginFileReply(const GetFileReply& head);  // head.shares ignored
Bytes Encode(const GetSharesRequest& m);
Bytes Encode(const GetSharesReply& m);
Bytes Encode(const DeleteFileRequest& m);
Bytes Encode(const DeleteFileReply& m);
Bytes Encode(const StatsRequest& m);
Bytes Encode(const StatsReply& m);
Bytes Encode(const GcRequest& m);
Bytes Encode(const GcReply& m);
Bytes Encode(const ListVersionsRequest& m);
Bytes Encode(const ListVersionsReply& m);
Bytes Encode(const DeleteVersionRequest& m);
Bytes Encode(const DeleteVersionReply& m);
Bytes Encode(const ApplyRetentionRequest& m);
Bytes Encode(const ApplyRetentionReply& m);
Bytes Encode(const ListPathsRequest& m);
Bytes Encode(const ListPathsReply& m);
Bytes Encode(const ApplyRetentionNamespaceRequest& m);
Bytes Encode(const ApplyRetentionNamespaceReply& m);
Bytes Encode(const GetMetricsRequest& m);
Bytes Encode(const GetMetricsReply& m);
Bytes Encode(const GetTracesRequest& m);
Bytes Encode(const GetTracesReply& m);
// Wraps `inner` (a complete request frame) in a kTracedRequest envelope
// carrying `ctx`. The inner bytes ride verbatim, kTracedEnvelopeBytes after
// the envelope's start.
inline constexpr size_t kTracedEnvelopeBytes = 18;
Bytes WrapTraced(const TraceContextHeader& ctx, ConstByteSpan inner);
// Peels a kTracedRequest envelope: fills `ctx` and points `inner` at the
// wrapped frame bytes (a view into `frame`; no copy). kCorruption on a
// malformed envelope or a frame of any other type.
Status UnwrapTraced(ConstByteSpan frame, TraceContextHeader* ctx, ConstByteSpan* inner);
// Errors are status objects on the wire.
Bytes EncodeError(const Status& status);

Status Decode(ConstByteSpan frame, FpQueryRequest* m);
Status Decode(ConstByteSpan frame, FpQueryReply* m);
Status Decode(ConstByteSpan frame, UploadSharesRequest* m);
Status DecodeView(ConstByteSpan frame, UploadSharesRequestView* m);
Status Decode(ConstByteSpan frame, UploadSharesReply* m);
Status Decode(ConstByteSpan frame, PutFileRequest* m);
Status Decode(ConstByteSpan frame, PutFileReply* m);
Status Decode(ConstByteSpan frame, GetFileRequest* m);
Status Decode(ConstByteSpan frame, GetFileReply* m);
Status Decode(ConstByteSpan frame, GetSharesRequest* m);
Status Decode(ConstByteSpan frame, GetSharesReply* m);
// Zero-copy decode of a GetSharesReply: each returned span views the share
// bytes in place inside `frame`, so nothing is copied out of the reply. The
// caller must keep `frame` alive for as long as the spans are used (the
// first client-side step of the message-layer zero-copy plan).
Status DecodeShareSpans(ConstByteSpan frame, std::vector<ConstByteSpan>* shares);
Status Decode(ConstByteSpan frame, DeleteFileRequest* m);
Status Decode(ConstByteSpan frame, DeleteFileReply* m);
Status Decode(ConstByteSpan frame, StatsRequest* m);
Status Decode(ConstByteSpan frame, StatsReply* m);
Status Decode(ConstByteSpan frame, GcRequest* m);
Status Decode(ConstByteSpan frame, GcReply* m);
Status Decode(ConstByteSpan frame, ListVersionsRequest* m);
Status Decode(ConstByteSpan frame, ListVersionsReply* m);
Status Decode(ConstByteSpan frame, DeleteVersionRequest* m);
Status Decode(ConstByteSpan frame, DeleteVersionReply* m);
Status Decode(ConstByteSpan frame, ApplyRetentionRequest* m);
Status Decode(ConstByteSpan frame, ApplyRetentionReply* m);
Status Decode(ConstByteSpan frame, ListPathsRequest* m);
Status Decode(ConstByteSpan frame, ListPathsReply* m);
Status Decode(ConstByteSpan frame, ApplyRetentionNamespaceRequest* m);
Status Decode(ConstByteSpan frame, ApplyRetentionNamespaceReply* m);
Status Decode(ConstByteSpan frame, GetMetricsRequest* m);
Status Decode(ConstByteSpan frame, GetMetricsReply* m);
Status Decode(ConstByteSpan frame, GetTracesRequest* m);
Status Decode(ConstByteSpan frame, GetTracesReply* m);
// If `frame` is a kError message, returns the carried status; OK otherwise.
Status DecodeIfError(ConstByteSpan frame);

}  // namespace cdstore

#endif  // CDSTORE_SRC_NET_MESSAGE_H_
