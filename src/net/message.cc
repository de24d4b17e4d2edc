#include "src/net/message.h"

#include "src/util/io.h"

namespace cdstore {

namespace {

BufferWriter Begin(MsgType type) {
  BufferWriter w;
  w.PutU8(static_cast<uint8_t>(type));
  return w;
}

Status CheckType(BufferReader* r, MsgType expect) {
  uint8_t t = 0;
  RETURN_IF_ERROR(r->GetU8(&t));
  if (t != static_cast<uint8_t>(expect)) {
    return Status::InvalidArgument("unexpected message type");
  }
  return Status::Ok();
}

void PutFpList(BufferWriter* w, const std::vector<Fingerprint>& fps) {
  w->PutVarint(fps.size());
  for (const Fingerprint& fp : fps) {
    w->PutBytes(fp);
  }
}

Status GetFpList(BufferReader* r, std::vector<Fingerprint>* fps) {
  uint64_t count = 0;
  RETURN_IF_ERROR(r->GetVarint(&count));
  if (count > r->remaining()) {
    return Status::Corruption("fp count exceeds frame");
  }
  fps->clear();
  fps->reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    Fingerprint fp;
    RETURN_IF_ERROR(r->GetBytes(&fp));
    fps->push_back(std::move(fp));
  }
  return Status::Ok();
}

Status GetBlobList(BufferReader* r, std::vector<Bytes>* blobs) {
  uint64_t count = 0;
  RETURN_IF_ERROR(r->GetVarint(&count));
  if (count > r->remaining()) {
    return Status::Corruption("blob count exceeds frame");
  }
  blobs->clear();
  blobs->reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    Bytes b;
    RETURN_IF_ERROR(r->GetBytes(&b));
    blobs->push_back(std::move(b));
  }
  return Status::Ok();
}

// Zero-copy list of length-prefixed blobs: each span views `r`'s buffer.
Status GetBlobSpans(BufferReader* r, std::vector<ConstByteSpan>* blobs) {
  uint64_t count = 0;
  RETURN_IF_ERROR(r->GetVarint(&count));
  if (count > r->remaining()) {
    return Status::Corruption("blob count exceeds frame");
  }
  blobs->clear();
  blobs->reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    ConstByteSpan s;
    RETURN_IF_ERROR(r->GetBytesView(&s));
    blobs->push_back(s);
  }
  return Status::Ok();
}

template <typename Blobs>
void PutBlobs(BufferWriter* w, const Blobs& blobs) {
  w->PutVarint(blobs.size());
  for (const auto& b : blobs) {
    w->PutBytes(b);
  }
}

void PutRecipe(BufferWriter* w, const std::vector<RecipeEntry>& recipe) {
  w->PutVarint(recipe.size());
  for (const RecipeEntry& e : recipe) {
    w->PutBytes(e.fp);
    w->PutU32(e.secret_size);
    w->PutU32(e.share_size);
  }
}

Status GetRecipe(BufferReader* r, std::vector<RecipeEntry>* recipe) {
  uint64_t count = 0;
  RETURN_IF_ERROR(r->GetVarint(&count));
  if (count > r->remaining()) {
    return Status::Corruption("recipe count exceeds frame");
  }
  recipe->clear();
  recipe->reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    RecipeEntry e;
    RETURN_IF_ERROR(r->GetBytes(&e.fp));
    RETURN_IF_ERROR(r->GetU32(&e.secret_size));
    RETURN_IF_ERROR(r->GetU32(&e.share_size));
    recipe->push_back(std::move(e));
  }
  return Status::Ok();
}

}  // namespace

MsgType PeekType(ConstByteSpan frame) {
  if (frame.empty()) {
    return MsgType::kError;
  }
  return static_cast<MsgType>(frame[0]);
}

// ---- FpQuery --------------------------------------------------------------

Bytes Encode(const FpQueryRequest& m) {
  BufferWriter w = Begin(MsgType::kFpQueryRequest);
  w.PutU64(m.user);
  PutFpList(&w, m.fps);
  return w.Take();
}

Status Decode(ConstByteSpan frame, FpQueryRequest* m) {
  BufferReader r(frame);
  RETURN_IF_ERROR(CheckType(&r, MsgType::kFpQueryRequest));
  RETURN_IF_ERROR(r.GetU64(&m->user));
  return GetFpList(&r, &m->fps);
}

Bytes Encode(const FpQueryReply& m) {
  BufferWriter w = Begin(MsgType::kFpQueryReply);
  w.PutBytes(m.duplicate);
  return w.Take();
}

Status Decode(ConstByteSpan frame, FpQueryReply* m) {
  BufferReader r(frame);
  RETURN_IF_ERROR(CheckType(&r, MsgType::kFpQueryReply));
  return r.GetBytes(&m->duplicate);
}

// ---- UploadShares ----------------------------------------------------------

namespace {

// The high bit of the PutFile mode byte flags a trailing query_from.
constexpr uint8_t kConditionalModeBit = 0x80;

// The PutFile fields after `user`: shared by PutFile and the commit riding
// on an UploadShares batch, which never carries query_from (`conditional`
// false drops it).
void PutCommitBody(BufferWriter* w, const PutFileRequest& m, bool conditional) {
  conditional = conditional && m.query_from.has_value();
  w->PutBytes(m.path_key);
  w->PutBytes(m.path_id);
  w->PutU32(m.path_name_len);
  w->PutU64(m.file_size);
  uint8_t mode = static_cast<uint8_t>(m.mode);
  w->PutU8(conditional ? mode | kConditionalModeBit : mode);
  w->PutU64(m.generation_id);
  w->PutU64(m.timestamp_ms);
  PutRecipe(w, m.recipe);
  if (conditional) {
    w->PutU64(*m.query_from);
  }
}

// Inverse of PutCommitBody. With `conditional` false (a commit riding on
// UploadShares) a flagged mode byte is an unknown mode: InvalidArgument.
Status GetCommitBody(BufferReader* r, PutFileRequest* m, bool conditional) {
  RETURN_IF_ERROR(r->GetBytes(&m->path_key));
  RETURN_IF_ERROR(r->GetBytes(&m->path_id));
  RETURN_IF_ERROR(r->GetU32(&m->path_name_len));
  RETURN_IF_ERROR(r->GetU64(&m->file_size));
  uint8_t mode = 0;
  RETURN_IF_ERROR(r->GetU8(&mode));
  conditional = conditional && (mode & kConditionalModeBit) != 0;
  if (conditional) {
    mode &= static_cast<uint8_t>(~kConditionalModeBit);
  }
  if (mode > static_cast<uint8_t>(PutFileMode::kPutGeneration)) {
    return Status::InvalidArgument("unknown PutFile mode");
  }
  m->mode = static_cast<PutFileMode>(mode);
  RETURN_IF_ERROR(r->GetU64(&m->generation_id));
  RETURN_IF_ERROR(r->GetU64(&m->timestamp_ms));
  RETURN_IF_ERROR(GetRecipe(r, &m->recipe));
  m->query_from.reset();
  if (conditional) {
    uint64_t from = 0;
    RETURN_IF_ERROR(r->GetU64(&from));
    m->query_from = from;
  }
  return Status::Ok();
}

// The optional trailing commit of an UploadShares request.
Status GetUploadCommit(BufferReader* r, uint64_t user, std::optional<PutFileRequest>* commit) {
  commit->reset();
  if (r->remaining() == 0) {
    return Status::Ok();  // a batch without a commit
  }
  PutFileRequest c;
  c.user = user;
  RETURN_IF_ERROR(GetCommitBody(r, &c, /*conditional=*/false));
  *commit = std::move(c);
  return Status::Ok();
}

}  // namespace

Bytes Encode(const UploadSharesRequest& m) {
  BufferWriter w = Begin(MsgType::kUploadSharesRequest);
  w.PutU64(m.user);
  PutBlobs(&w, m.shares);
  if (m.commit.has_value()) {
    PutCommitBody(&w, *m.commit, /*conditional=*/false);
  }
  return w.Take();
}

Status Decode(ConstByteSpan frame, UploadSharesRequest* m) {
  BufferReader r(frame);
  RETURN_IF_ERROR(CheckType(&r, MsgType::kUploadSharesRequest));
  RETURN_IF_ERROR(r.GetU64(&m->user));
  RETURN_IF_ERROR(GetBlobList(&r, &m->shares));
  return GetUploadCommit(&r, m->user, &m->commit);
}

Status DecodeView(ConstByteSpan frame, UploadSharesRequestView* m) {
  BufferReader r(frame);
  RETURN_IF_ERROR(CheckType(&r, MsgType::kUploadSharesRequest));
  RETURN_IF_ERROR(r.GetU64(&m->user));
  RETURN_IF_ERROR(GetBlobSpans(&r, &m->shares));
  return GetUploadCommit(&r, m->user, &m->commit);
}

Bytes Encode(const UploadSharesReply& m) {
  BufferWriter w = Begin(MsgType::kUploadSharesReply);
  w.PutU32(m.stored);
  w.PutU32(m.deduplicated);
  if (m.generation_id.has_value()) {
    w.PutU64(*m.generation_id);
  }
  return w.Take();
}

Status Decode(ConstByteSpan frame, UploadSharesReply* m) {
  BufferReader r(frame);
  RETURN_IF_ERROR(CheckType(&r, MsgType::kUploadSharesReply));
  RETURN_IF_ERROR(r.GetU32(&m->stored));
  RETURN_IF_ERROR(r.GetU32(&m->deduplicated));
  m->generation_id.reset();
  if (r.remaining() == 0) {
    return Status::Ok();  // the request carried no commit
  }
  uint64_t gen = 0;
  RETURN_IF_ERROR(r.GetU64(&gen));
  m->generation_id = gen;
  return Status::Ok();
}

// ---- PutFile ---------------------------------------------------------------

Bytes Encode(const PutFileRequest& m) {
  BufferWriter w = Begin(MsgType::kPutFileRequest);
  w.PutU64(m.user);
  PutCommitBody(&w, m, /*conditional=*/true);
  return w.Take();
}

Status Decode(ConstByteSpan frame, PutFileRequest* m) {
  BufferReader r(frame);
  RETURN_IF_ERROR(CheckType(&r, MsgType::kPutFileRequest));
  RETURN_IF_ERROR(r.GetU64(&m->user));
  return GetCommitBody(&r, m, /*conditional=*/true);
}

Bytes Encode(const PutFileReply& m) {
  BufferWriter w = Begin(MsgType::kPutFileReply);
  w.PutU64(m.generation_id);
  if (m.duplicate.has_value()) {
    w.PutBytes(*m.duplicate);
  }
  return w.Take();
}

Status Decode(ConstByteSpan frame, PutFileReply* m) {
  BufferReader r(frame);
  RETURN_IF_ERROR(CheckType(&r, MsgType::kPutFileReply));
  RETURN_IF_ERROR(r.GetU64(&m->generation_id));
  m->duplicate.reset();
  if (r.remaining() == 0) {
    return Status::Ok();  // committed
  }
  std::vector<uint8_t> duplicate;
  RETURN_IF_ERROR(r.GetBytes(&duplicate));
  m->duplicate = std::move(duplicate);
  return Status::Ok();
}

// ---- GetFile ---------------------------------------------------------------

size_t BatchEnd(const std::vector<RecipeEntry>& recipe, size_t begin, uint64_t batch_bytes) {
  size_t end = begin;
  uint64_t acc = 0;
  while (end < recipe.size()) {
    acc += recipe[end++].share_size;
    if (acc >= batch_bytes) {
      break;
    }
  }
  return end;
}

Bytes Encode(const GetFileRequest& m) {
  BufferWriter w = Begin(MsgType::kGetFileRequest);
  w.PutU64(m.user);
  w.PutBytes(m.path_key);
  w.PutU64(m.generation);
  w.PutU64(m.prefetch_bytes);
  return w.Take();
}

Status Decode(ConstByteSpan frame, GetFileRequest* m) {
  BufferReader r(frame);
  RETURN_IF_ERROR(CheckType(&r, MsgType::kGetFileRequest));
  RETURN_IF_ERROR(r.GetU64(&m->user));
  RETURN_IF_ERROR(r.GetBytes(&m->path_key));
  RETURN_IF_ERROR(r.GetU64(&m->generation));
  m->prefetch_bytes = 0;
  return r.remaining() == 0 ? Status::Ok() : r.GetU64(&m->prefetch_bytes);
}

BufferWriter BeginFileReply(const GetFileReply& head) {
  BufferWriter w = Begin(MsgType::kGetFileReply);
  w.PutU64(head.generation_id);
  w.PutU64(head.file_size);
  PutRecipe(&w, head.recipe);
  return w;
}

Bytes Encode(const GetFileReply& m) {
  BufferWriter w = BeginFileReply(m);
  PutBlobs(&w, m.shares);
  return w.Take();
}

Status Decode(ConstByteSpan frame, GetFileReply* m) {
  BufferReader r(frame);
  RETURN_IF_ERROR(CheckType(&r, MsgType::kGetFileReply));
  RETURN_IF_ERROR(r.GetU64(&m->generation_id));
  RETURN_IF_ERROR(r.GetU64(&m->file_size));
  RETURN_IF_ERROR(GetRecipe(&r, &m->recipe));
  m->shares.clear();
  if (r.remaining() == 0) {
    return Status::Ok();  // a reply without the prefetch list
  }
  RETURN_IF_ERROR(GetBlobSpans(&r, &m->shares));
  if (m->shares.size() > m->recipe.size()) {
    return Status::Corruption("more prefetched shares than recipe entries");
  }
  return Status::Ok();
}

// ---- GetShares -------------------------------------------------------------

Bytes Encode(const GetSharesRequest& m) {
  BufferWriter w = Begin(MsgType::kGetSharesRequest);
  w.PutU64(m.user);
  PutFpList(&w, m.fps);
  return w.Take();
}

Status Decode(ConstByteSpan frame, GetSharesRequest* m) {
  BufferReader r(frame);
  RETURN_IF_ERROR(CheckType(&r, MsgType::kGetSharesRequest));
  RETURN_IF_ERROR(r.GetU64(&m->user));
  return GetFpList(&r, &m->fps);
}

BufferWriter BeginSharesReply() { return Begin(MsgType::kGetSharesReply); }

Bytes Encode(const GetSharesReply& m) {
  BufferWriter w = BeginSharesReply();
  PutBlobs(&w, m.shares);
  return w.Take();
}

Status Decode(ConstByteSpan frame, GetSharesReply* m) {
  BufferReader r(frame);
  RETURN_IF_ERROR(CheckType(&r, MsgType::kGetSharesReply));
  return GetBlobList(&r, &m->shares);
}

Status DecodeShareSpans(ConstByteSpan frame, std::vector<ConstByteSpan>* shares) {
  BufferReader r(frame);
  RETURN_IF_ERROR(CheckType(&r, MsgType::kGetSharesReply));
  return GetBlobSpans(&r, shares);
}

// ---- DeleteFile ------------------------------------------------------------

Bytes Encode(const DeleteFileRequest& m) {
  BufferWriter w = Begin(MsgType::kDeleteFileRequest);
  w.PutU64(m.user);
  w.PutBytes(m.path_key);
  return w.Take();
}

Status Decode(ConstByteSpan frame, DeleteFileRequest* m) {
  BufferReader r(frame);
  RETURN_IF_ERROR(CheckType(&r, MsgType::kDeleteFileRequest));
  RETURN_IF_ERROR(r.GetU64(&m->user));
  return r.GetBytes(&m->path_key);
}

Bytes Encode(const DeleteFileReply& m) {
  BufferWriter w = Begin(MsgType::kDeleteFileReply);
  w.PutU32(m.generations_deleted);
  w.PutU32(m.shares_orphaned);
  return w.Take();
}

Status Decode(ConstByteSpan frame, DeleteFileReply* m) {
  BufferReader r(frame);
  RETURN_IF_ERROR(CheckType(&r, MsgType::kDeleteFileReply));
  RETURN_IF_ERROR(r.GetU32(&m->generations_deleted));
  return r.GetU32(&m->shares_orphaned);
}

// ---- versioned namespace ---------------------------------------------------

Bytes Encode(const ListVersionsRequest& m) {
  BufferWriter w = Begin(MsgType::kListVersionsRequest);
  w.PutU64(m.user);
  w.PutBytes(m.path_key);
  return w.Take();
}

Status Decode(ConstByteSpan frame, ListVersionsRequest* m) {
  BufferReader r(frame);
  RETURN_IF_ERROR(CheckType(&r, MsgType::kListVersionsRequest));
  RETURN_IF_ERROR(r.GetU64(&m->user));
  return r.GetBytes(&m->path_key);
}

Bytes Encode(const ListVersionsReply& m) {
  BufferWriter w = Begin(MsgType::kListVersionsReply);
  w.PutVarint(m.versions.size());
  for (const VersionInfo& v : m.versions) {
    w.PutU64(v.generation_id);
    w.PutU64(v.logical_bytes);
    w.PutU64(v.unique_bytes);
    w.PutU64(v.num_secrets);
    w.PutU64(v.timestamp_ms);
  }
  return w.Take();
}

Status Decode(ConstByteSpan frame, ListVersionsReply* m) {
  BufferReader r(frame);
  RETURN_IF_ERROR(CheckType(&r, MsgType::kListVersionsReply));
  uint64_t count = 0;
  RETURN_IF_ERROR(r.GetVarint(&count));
  if (count > r.remaining()) {
    return Status::Corruption("version count exceeds frame");
  }
  m->versions.clear();
  m->versions.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    VersionInfo v;
    RETURN_IF_ERROR(r.GetU64(&v.generation_id));
    RETURN_IF_ERROR(r.GetU64(&v.logical_bytes));
    RETURN_IF_ERROR(r.GetU64(&v.unique_bytes));
    RETURN_IF_ERROR(r.GetU64(&v.num_secrets));
    RETURN_IF_ERROR(r.GetU64(&v.timestamp_ms));
    m->versions.push_back(v);
  }
  return Status::Ok();
}

Bytes Encode(const DeleteVersionRequest& m) {
  BufferWriter w = Begin(MsgType::kDeleteVersionRequest);
  w.PutU64(m.user);
  w.PutBytes(m.path_key);
  w.PutU64(m.generation_id);
  return w.Take();
}

Status Decode(ConstByteSpan frame, DeleteVersionRequest* m) {
  BufferReader r(frame);
  RETURN_IF_ERROR(CheckType(&r, MsgType::kDeleteVersionRequest));
  RETURN_IF_ERROR(r.GetU64(&m->user));
  RETURN_IF_ERROR(r.GetBytes(&m->path_key));
  return r.GetU64(&m->generation_id);
}

Bytes Encode(const DeleteVersionReply& m) {
  BufferWriter w = Begin(MsgType::kDeleteVersionReply);
  w.PutU32(m.shares_orphaned);
  return w.Take();
}

Status Decode(ConstByteSpan frame, DeleteVersionReply* m) {
  BufferReader r(frame);
  RETURN_IF_ERROR(CheckType(&r, MsgType::kDeleteVersionReply));
  return r.GetU32(&m->shares_orphaned);
}

Bytes Encode(const ApplyRetentionRequest& m) {
  BufferWriter w = Begin(MsgType::kApplyRetentionRequest);
  w.PutU64(m.user);
  w.PutBytes(m.path_key);
  w.PutU32(m.policy.keep_last_n);
  w.PutU64(m.policy.keep_within_ms);
  w.PutU64(m.policy.now_ms);
  return w.Take();
}

Status Decode(ConstByteSpan frame, ApplyRetentionRequest* m) {
  BufferReader r(frame);
  RETURN_IF_ERROR(CheckType(&r, MsgType::kApplyRetentionRequest));
  RETURN_IF_ERROR(r.GetU64(&m->user));
  RETURN_IF_ERROR(r.GetBytes(&m->path_key));
  RETURN_IF_ERROR(r.GetU32(&m->policy.keep_last_n));
  RETURN_IF_ERROR(r.GetU64(&m->policy.keep_within_ms));
  return r.GetU64(&m->policy.now_ms);
}

Bytes Encode(const ApplyRetentionReply& m) {
  BufferWriter w = Begin(MsgType::kApplyRetentionReply);
  w.PutU32(m.generations_deleted);
  w.PutU32(m.shares_orphaned);
  w.PutU64(m.logical_bytes_deleted);
  w.PutVarint(m.deleted_generations.size());
  for (uint64_t id : m.deleted_generations) {
    w.PutU64(id);
  }
  return w.Take();
}

Status Decode(ConstByteSpan frame, ApplyRetentionReply* m) {
  BufferReader r(frame);
  RETURN_IF_ERROR(CheckType(&r, MsgType::kApplyRetentionReply));
  RETURN_IF_ERROR(r.GetU32(&m->generations_deleted));
  RETURN_IF_ERROR(r.GetU32(&m->shares_orphaned));
  RETURN_IF_ERROR(r.GetU64(&m->logical_bytes_deleted));
  uint64_t count = 0;
  RETURN_IF_ERROR(r.GetVarint(&count));
  if (count > r.remaining()) {
    return Status::Corruption("generation count exceeds frame");
  }
  m->deleted_generations.clear();
  m->deleted_generations.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t id = 0;
    RETURN_IF_ERROR(r.GetU64(&id));
    m->deleted_generations.push_back(id);
  }
  return Status::Ok();
}

// ---- namespace-scoped control plane ----------------------------------------

Bytes Encode(const ListPathsRequest& m) {
  BufferWriter w = Begin(MsgType::kListPathsRequest);
  w.PutU64(m.user);
  w.PutBytes(m.cursor);
  w.PutU32(m.max_entries);
  return w.Take();
}

Status Decode(ConstByteSpan frame, ListPathsRequest* m) {
  BufferReader r(frame);
  RETURN_IF_ERROR(CheckType(&r, MsgType::kListPathsRequest));
  RETURN_IF_ERROR(r.GetU64(&m->user));
  RETURN_IF_ERROR(r.GetBytes(&m->cursor));
  return r.GetU32(&m->max_entries);
}

Bytes Encode(const ListPathsReply& m) {
  BufferWriter w = Begin(MsgType::kListPathsReply);
  w.PutVarint(m.paths.size());
  for (const PathInfo& p : m.paths) {
    w.PutBytes(p.path_id);
    w.PutBytes(p.name_share);
    w.PutU32(p.name_len);
    w.PutU64(p.latest_generation);
    w.PutU64(p.generation_count);
    w.PutU64(p.latest_timestamp_ms);
    w.PutU64(p.latest_logical_bytes);
  }
  w.PutBytes(m.next_cursor);
  return w.Take();
}

Status Decode(ConstByteSpan frame, ListPathsReply* m) {
  BufferReader r(frame);
  RETURN_IF_ERROR(CheckType(&r, MsgType::kListPathsReply));
  uint64_t count = 0;
  RETURN_IF_ERROR(r.GetVarint(&count));
  if (count > r.remaining()) {
    return Status::Corruption("path count exceeds frame");
  }
  m->paths.clear();
  m->paths.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    PathInfo p;
    RETURN_IF_ERROR(r.GetBytes(&p.path_id));
    RETURN_IF_ERROR(r.GetBytes(&p.name_share));
    RETURN_IF_ERROR(r.GetU32(&p.name_len));
    RETURN_IF_ERROR(r.GetU64(&p.latest_generation));
    RETURN_IF_ERROR(r.GetU64(&p.generation_count));
    RETURN_IF_ERROR(r.GetU64(&p.latest_timestamp_ms));
    RETURN_IF_ERROR(r.GetU64(&p.latest_logical_bytes));
    m->paths.push_back(std::move(p));
  }
  return r.GetBytes(&m->next_cursor);
}

Bytes Encode(const ApplyRetentionNamespaceRequest& m) {
  BufferWriter w = Begin(MsgType::kApplyRetentionNamespaceRequest);
  w.PutU64(m.user);
  w.PutU32(m.policy.keep_last_n);
  w.PutU64(m.policy.keep_within_ms);
  w.PutU64(m.policy.now_ms);
  w.PutU32(m.page_size);
  return w.Take();
}

Status Decode(ConstByteSpan frame, ApplyRetentionNamespaceRequest* m) {
  BufferReader r(frame);
  RETURN_IF_ERROR(CheckType(&r, MsgType::kApplyRetentionNamespaceRequest));
  RETURN_IF_ERROR(r.GetU64(&m->user));
  RETURN_IF_ERROR(r.GetU32(&m->policy.keep_last_n));
  RETURN_IF_ERROR(r.GetU64(&m->policy.keep_within_ms));
  RETURN_IF_ERROR(r.GetU64(&m->policy.now_ms));
  return r.GetU32(&m->page_size);
}

Bytes Encode(const ApplyRetentionNamespaceReply& m) {
  BufferWriter w = Begin(MsgType::kApplyRetentionNamespaceReply);
  w.PutU64(m.paths_swept);
  w.PutU64(m.paths_removed);
  w.PutU64(m.generations_deleted);
  w.PutU32(m.shares_orphaned);
  w.PutU64(m.logical_bytes_deleted);
  w.PutU32(m.pages);
  w.PutVarint(m.per_path.size());
  for (const PathRetentionResult& p : m.per_path) {
    w.PutBytes(p.path_id);
    w.PutU32(p.generations_deleted);
    w.PutU64(p.logical_bytes_deleted);
    w.PutU8(p.path_removed);
  }
  return w.Take();
}

Status Decode(ConstByteSpan frame, ApplyRetentionNamespaceReply* m) {
  BufferReader r(frame);
  RETURN_IF_ERROR(CheckType(&r, MsgType::kApplyRetentionNamespaceReply));
  RETURN_IF_ERROR(r.GetU64(&m->paths_swept));
  RETURN_IF_ERROR(r.GetU64(&m->paths_removed));
  RETURN_IF_ERROR(r.GetU64(&m->generations_deleted));
  RETURN_IF_ERROR(r.GetU32(&m->shares_orphaned));
  RETURN_IF_ERROR(r.GetU64(&m->logical_bytes_deleted));
  RETURN_IF_ERROR(r.GetU32(&m->pages));
  uint64_t count = 0;
  RETURN_IF_ERROR(r.GetVarint(&count));
  if (count > r.remaining()) {
    return Status::Corruption("per-path count exceeds frame");
  }
  m->per_path.clear();
  m->per_path.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    PathRetentionResult p;
    RETURN_IF_ERROR(r.GetBytes(&p.path_id));
    RETURN_IF_ERROR(r.GetU32(&p.generations_deleted));
    RETURN_IF_ERROR(r.GetU64(&p.logical_bytes_deleted));
    RETURN_IF_ERROR(r.GetU8(&p.path_removed));
    m->per_path.push_back(std::move(p));
  }
  return Status::Ok();
}

// ---- Stats -----------------------------------------------------------------

Bytes Encode(const StatsRequest&) { return Begin(MsgType::kStatsRequest).Take(); }

Status Decode(ConstByteSpan frame, StatsRequest*) {
  BufferReader r(frame);
  return CheckType(&r, MsgType::kStatsRequest);
}

Bytes Encode(const StatsReply& m) {
  BufferWriter w = Begin(MsgType::kStatsReply);
  w.PutU64(m.unique_shares);
  w.PutU64(m.stored_bytes);
  w.PutU64(m.container_count);
  w.PutU64(m.file_count);
  w.PutU64(m.generation_count);
  return w.Take();
}

Status Decode(ConstByteSpan frame, StatsReply* m) {
  BufferReader r(frame);
  RETURN_IF_ERROR(CheckType(&r, MsgType::kStatsReply));
  RETURN_IF_ERROR(r.GetU64(&m->unique_shares));
  RETURN_IF_ERROR(r.GetU64(&m->stored_bytes));
  RETURN_IF_ERROR(r.GetU64(&m->container_count));
  RETURN_IF_ERROR(r.GetU64(&m->file_count));
  return r.GetU64(&m->generation_count);
}

// ---- GC --------------------------------------------------------------------

Bytes Encode(const GcRequest&) { return Begin(MsgType::kGcRequest).Take(); }

Status Decode(ConstByteSpan frame, GcRequest*) {
  BufferReader r(frame);
  return CheckType(&r, MsgType::kGcRequest);
}

Bytes Encode(const GcReply& m) {
  BufferWriter w = Begin(MsgType::kGcReply);
  w.PutU64(m.containers_scanned);
  w.PutU64(m.containers_rewritten);
  w.PutU64(m.bytes_reclaimed);
  w.PutU64(m.live_shares_moved);
  return w.Take();
}

Status Decode(ConstByteSpan frame, GcReply* m) {
  BufferReader r(frame);
  RETURN_IF_ERROR(CheckType(&r, MsgType::kGcReply));
  RETURN_IF_ERROR(r.GetU64(&m->containers_scanned));
  RETURN_IF_ERROR(r.GetU64(&m->containers_rewritten));
  RETURN_IF_ERROR(r.GetU64(&m->bytes_reclaimed));
  return r.GetU64(&m->live_shares_moved);
}

// ---- GetMetrics ------------------------------------------------------------

Bytes Encode(const GetMetricsRequest&) { return Begin(MsgType::kGetMetricsRequest).Take(); }

Status Decode(ConstByteSpan frame, GetMetricsRequest*) {
  BufferReader r(frame);
  return CheckType(&r, MsgType::kGetMetricsRequest);
}

namespace {

void PutU64List(BufferWriter* w, const std::vector<uint64_t>& v) {
  w->PutVarint(v.size());
  for (uint64_t x : v) {
    w->PutVarint(x);
  }
}

Status GetU64List(BufferReader* r, std::vector<uint64_t>* v) {
  uint64_t count = 0;
  RETURN_IF_ERROR(r->GetVarint(&count));
  if (count > r->remaining()) {
    return Status::Corruption("list count exceeds frame");
  }
  v->clear();
  v->reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t x = 0;
    RETURN_IF_ERROR(r->GetVarint(&x));
    v->push_back(x);
  }
  return Status::Ok();
}

}  // namespace

Bytes Encode(const GetMetricsReply& m) {
  BufferWriter w = Begin(MsgType::kGetMetricsReply);
  w.PutVarint(m.samples.size());
  for (const MetricSample& s : m.samples) {
    w.PutString(s.name);
    w.PutU8(s.kind);
    w.PutVarint(s.labels.size());
    for (const auto& [k, v] : s.labels) {
      w.PutString(k);
      w.PutString(v);
    }
    w.PutU64(static_cast<uint64_t>(s.value));
    w.PutVarint(s.count);
    w.PutVarint(s.sum);
    PutU64List(&w, s.bounds);
    PutU64List(&w, s.bucket_counts);
  }
  return w.Take();
}

Status Decode(ConstByteSpan frame, GetMetricsReply* m) {
  BufferReader r(frame);
  RETURN_IF_ERROR(CheckType(&r, MsgType::kGetMetricsReply));
  uint64_t count = 0;
  RETURN_IF_ERROR(r.GetVarint(&count));
  if (count > r.remaining()) {
    return Status::Corruption("sample count exceeds frame");
  }
  m->samples.clear();
  m->samples.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    MetricSample s;
    RETURN_IF_ERROR(r.GetString(&s.name));
    RETURN_IF_ERROR(r.GetU8(&s.kind));
    uint64_t labels = 0;
    RETURN_IF_ERROR(r.GetVarint(&labels));
    if (labels > r.remaining()) {
      return Status::Corruption("label count exceeds frame");
    }
    s.labels.reserve(labels);
    for (uint64_t j = 0; j < labels; ++j) {
      std::string k;
      std::string v;
      RETURN_IF_ERROR(r.GetString(&k));
      RETURN_IF_ERROR(r.GetString(&v));
      s.labels.emplace_back(std::move(k), std::move(v));
    }
    uint64_t value = 0;
    RETURN_IF_ERROR(r.GetU64(&value));
    s.value = static_cast<int64_t>(value);
    RETURN_IF_ERROR(r.GetVarint(&s.count));
    RETURN_IF_ERROR(r.GetVarint(&s.sum));
    RETURN_IF_ERROR(GetU64List(&r, &s.bounds));
    RETURN_IF_ERROR(GetU64List(&r, &s.bucket_counts));
    m->samples.push_back(std::move(s));
  }
  return Status::Ok();
}

// ---- GetTraces -------------------------------------------------------------

Bytes Encode(const GetTracesRequest&) { return Begin(MsgType::kGetTracesRequest).Take(); }

Status Decode(ConstByteSpan frame, GetTracesRequest*) {
  BufferReader r(frame);
  return CheckType(&r, MsgType::kGetTracesRequest);
}

Bytes Encode(const GetTracesReply& m) {
  BufferWriter w = Begin(MsgType::kGetTracesReply);
  w.PutVarint(m.spans.size());
  for (const TraceSpanSample& s : m.spans) {
    w.PutU64(s.trace_id);
    w.PutU64(s.span_id);
    w.PutU64(s.parent_id);
    w.PutU64(s.start_ns);
    w.PutU64(s.dur_ns);
    w.PutU32(s.tid);
    w.PutString(s.name);
    w.PutString(s.annot);
  }
  w.PutVarint(m.slow.size());
  for (const SlowTraceSample& s : m.slow) {
    w.PutU64(s.trace_id);
    w.PutU64(s.dur_ns);
    w.PutU8(s.sampled);
    w.PutString(s.root);
  }
  w.PutVarint(m.spans_recorded);
  w.PutVarint(m.spans_dropped);
  w.PutVarint(m.unsampled);
  w.PutVarint(m.flight_evictions);
  return w.Take();
}

Status Decode(ConstByteSpan frame, GetTracesReply* m) {
  BufferReader r(frame);
  RETURN_IF_ERROR(CheckType(&r, MsgType::kGetTracesReply));
  uint64_t count = 0;
  RETURN_IF_ERROR(r.GetVarint(&count));
  if (count > r.remaining()) {
    return Status::Corruption("span count exceeds frame");
  }
  m->spans.clear();
  m->spans.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    TraceSpanSample s;
    RETURN_IF_ERROR(r.GetU64(&s.trace_id));
    RETURN_IF_ERROR(r.GetU64(&s.span_id));
    RETURN_IF_ERROR(r.GetU64(&s.parent_id));
    RETURN_IF_ERROR(r.GetU64(&s.start_ns));
    RETURN_IF_ERROR(r.GetU64(&s.dur_ns));
    RETURN_IF_ERROR(r.GetU32(&s.tid));
    RETURN_IF_ERROR(r.GetString(&s.name));
    RETURN_IF_ERROR(r.GetString(&s.annot));
    m->spans.push_back(std::move(s));
  }
  RETURN_IF_ERROR(r.GetVarint(&count));
  if (count > r.remaining()) {
    return Status::Corruption("slow-trace count exceeds frame");
  }
  m->slow.clear();
  m->slow.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    SlowTraceSample s;
    RETURN_IF_ERROR(r.GetU64(&s.trace_id));
    RETURN_IF_ERROR(r.GetU64(&s.dur_ns));
    RETURN_IF_ERROR(r.GetU8(&s.sampled));
    RETURN_IF_ERROR(r.GetString(&s.root));
    m->slow.push_back(std::move(s));
  }
  RETURN_IF_ERROR(r.GetVarint(&m->spans_recorded));
  RETURN_IF_ERROR(r.GetVarint(&m->spans_dropped));
  RETURN_IF_ERROR(r.GetVarint(&m->unsampled));
  return r.GetVarint(&m->flight_evictions);
}

// ---- trace-context envelope ------------------------------------------------

Bytes WrapTraced(const TraceContextHeader& ctx, ConstByteSpan inner) {
  BufferWriter w(inner.size() + kTracedEnvelopeBytes);
  w.PutU8(static_cast<uint8_t>(MsgType::kTracedRequest));
  w.PutU64(ctx.trace_id);
  w.PutU64(ctx.parent_span_id);
  w.PutU8(ctx.sampled);
  w.PutRaw(inner);
  return w.Take();
}

Status UnwrapTraced(ConstByteSpan frame, TraceContextHeader* ctx, ConstByteSpan* inner) {
  BufferReader r(frame);
  RETURN_IF_ERROR(CheckType(&r, MsgType::kTracedRequest));
  RETURN_IF_ERROR(r.GetU64(&ctx->trace_id));
  RETURN_IF_ERROR(r.GetU64(&ctx->parent_span_id));
  RETURN_IF_ERROR(r.GetU8(&ctx->sampled));
  if (r.remaining() == 0) {
    return Status::Corruption("traced envelope carries no inner frame");
  }
  *inner = r.Remaining();
  return Status::Ok();
}

// ---- RPC names -------------------------------------------------------------

const char* RpcName(MsgType type) {
  switch (type) {
    case MsgType::kError:
      return "Error";
    case MsgType::kFpQueryRequest:
    case MsgType::kFpQueryReply:
      return "FpQuery";
    case MsgType::kUploadSharesRequest:
    case MsgType::kUploadSharesReply:
      return "UploadShares";
    case MsgType::kPutFileRequest:
    case MsgType::kPutFileReply:
      return "PutFile";
    case MsgType::kGetFileRequest:
    case MsgType::kGetFileReply:
      return "GetFile";
    case MsgType::kGetSharesRequest:
    case MsgType::kGetSharesReply:
      return "GetShares";
    case MsgType::kDeleteFileRequest:
    case MsgType::kDeleteFileReply:
      return "DeleteFile";
    case MsgType::kStatsRequest:
    case MsgType::kStatsReply:
      return "Stats";
    case MsgType::kGcRequest:
    case MsgType::kGcReply:
      return "Gc";
    case MsgType::kListVersionsRequest:
    case MsgType::kListVersionsReply:
      return "ListVersions";
    case MsgType::kDeleteVersionRequest:
    case MsgType::kDeleteVersionReply:
      return "DeleteVersion";
    case MsgType::kApplyRetentionRequest:
    case MsgType::kApplyRetentionReply:
      return "ApplyRetention";
    case MsgType::kListPathsRequest:
    case MsgType::kListPathsReply:
      return "ListPaths";
    case MsgType::kApplyRetentionNamespaceRequest:
    case MsgType::kApplyRetentionNamespaceReply:
      return "ApplyRetentionNamespace";
    case MsgType::kGetMetricsRequest:
    case MsgType::kGetMetricsReply:
      return "GetMetrics";
    case MsgType::kGetTracesRequest:
    case MsgType::kGetTracesReply:
      return "GetTraces";
    case MsgType::kTracedRequest:
      return "Traced";
  }
  return "Unknown";
}

// ---- errors ----------------------------------------------------------------

Bytes EncodeError(const Status& status) {
  BufferWriter w = Begin(MsgType::kError);
  w.PutU8(static_cast<uint8_t>(status.code()));
  w.PutString(status.message());
  return w.Take();
}

Status DecodeIfError(ConstByteSpan frame) {
  if (PeekType(frame) != MsgType::kError) {
    return Status::Ok();
  }
  BufferReader r(frame);
  uint8_t type = 0;
  uint8_t code = 0;
  std::string message;
  RETURN_IF_ERROR(r.GetU8(&type));
  RETURN_IF_ERROR(r.GetU8(&code));
  RETURN_IF_ERROR(r.GetString(&message));
  return Status(static_cast<StatusCode>(code), message);
}

}  // namespace cdstore
