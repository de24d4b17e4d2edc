// The repository benchmark: backup and restore through a whole CDStore
// deployment (one client, n=4 / k=3 in-process servers behind modelled WAN
// links, directory-backed clouds), on three paper-shaped workloads.
//
//   first-backup    40 files of unique random data (§5.4, Fig. 8)
//   weekly-homedir  weekly snapshots of a home directory of 20 files in
//                   the versioned namespace; weeks 2+ dedup >= 94% (§5.2)
//   vm-fleet        20 users back up weeks 0-3 of VM images that share
//                   ~95% of their content (inter-user dedup, §4.5)
//
// One run repeats rounds of its workload for --seconds (and at least
// kMinRounds times). A round creates fresh servers, backs every file up
// through one BackupSession per user (closed loop: each file starts after
// the previous Finish), flushes and destroys the servers, reopens them from
// their index dirs and backends, and restores the workload's files,
// byte-comparing every restored byte. Every round repeats the same files,
// so each file's time is its best over the rounds (RunTotals::BestMs).
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs untraced rounds,
// then traced rounds (metrics registry and span tracer on), then times the
// pipeline's stages by direct single-thread calls on the workload's own
// chunks, and prints the per-layer metrics. Either way the last stdout line
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//   cdbench --workload first-backup --seed 1 --seconds 30 --trace 0
//           --workdir DIR [--source-id ID]
#include <malloc.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "perfbench/layers.h"
#include "perfbench/spans.h"
#include "src/chunking/chunker.h"
#include "src/core/client.h"
#include "src/core/server.h"
#include "src/crypto/aes256.h"
#include "src/crypto/ctr.h"
#include "src/crypto/sha256.h"
#include "src/dedup/fingerprint.h"
#include "src/dispersal/aont_rs.h"
#include "src/gf256/gf256.h"
#include "src/kvstore/bloom.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/trace/synthetic.h"
#include "src/util/fs_util.h"
#include "src/util/rng.h"

namespace cdstore::perfbench {
namespace {

constexpr int kN = 4;
constexpr int kK = 3;
constexpr int kEncodeThreads = 2;  // §5.3
constexpr int kDecodeThreads = 2;
constexpr double kLinkBytesPerS = 24e6;
// A WAN round trip per call. It also keeps each file's time well above the
// milliseconds a wakeup can wait while the host runs other guests: at 2 ms,
// runs with 12-17% vCPU steal read file times 25-75% slower than calm ones.
constexpr double kLinkLatencyS = 0.020;
constexpr size_t kWriteSlice = 1 << 20;
// Per-file latency tail: the highest quantile of the per-file best times
// with kTailBeyond samples beyond it; a workload times >= 2x that many files
// per phase.
constexpr size_t kTailBeyond = 10;
// A run repeats rounds for --seconds, and at least kMinRounds times so each
// file has a best of several; the hard stop is well inside the 180 s budget.
constexpr size_t kMinRounds = 3;
constexpr double kMaxRunSeconds = 120;
constexpr int kSetupTrials = 5;
constexpr int kMmapThreshold = 128 << 10;
constexpr uint64_t kWeekMs = 7ull * 24 * 3600 * 1000;
constexpr double kMiB = 1024.0 * 1024.0;
constexpr double kGiB = kMiB * 1024.0;
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

double TailQuantile(size_t samples) {
  return 1.0 - static_cast<double>(kTailBeyond) / static_cast<double>(samples);
}

double Seconds(Clock::time_point t0) { return static_cast<double>(NanosSince(t0)) / 1e9; }

uint64_t Mix(uint64_t seed, uint64_t tag) {
  Rng rng(seed * 0x9e3779b97f4a7c15ull + tag);
  return rng.NextU64();
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2;
}

// Linear interpolation between closest ranks.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

uint64_t TreeBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
       !ec && it != std::filesystem::recursive_directory_iterator(); it.increment(ec)) {
    if (it->is_regular_file(ec)) {
      total += it->file_size(ec);
    }
  }
  return total;
}

// ------------------------------------------------------------- workloads --

using Fill = std::function<Bytes()>;

struct BackupOp {
  UserId user;
  std::string path;
  int week;
  Fill fill;
};

struct RestoreOp {
  UserId user;
  std::string path;
  int week;     // the generation backed up in this week ...
  bool latest;  // ... or, when set, generation 0 (the path's latest)
  Fill fill;
};

struct Plan {
  std::vector<BackupOp> backups;
  std::vector<RestoreOp> restores;
  std::string shape;
};

// SyntheticDataset content is a fixed function of segment seeds. Each
// workload fixes its dataset's structure (which segments repeat where, so
// its dedup ratios); XOR-ing a segment with one mask drawn from the run seed
// re-keys its content while keeping every equality between segments.
// `keyed` names the segments to re-key, by index; null re-keys all.
Fill MaskedFile(std::shared_ptr<const SyntheticDataset> ds, std::shared_ptr<const Bytes> mask,
                int user, int week, std::shared_ptr<const std::vector<bool>> keyed = nullptr) {
  return [ds, mask, user, week, keyed]() {
    Bytes b = ds->FileFor(user, week);
    for (size_t off = 0, seg = 0; off < b.size(); off += mask->size(), ++seg) {
      if (keyed != nullptr && !(*keyed)[seg]) {
        continue;
      }
      size_t len = std::min(mask->size(), b.size() - off);
      XorInto(ByteSpan(b.data() + off, len), ConstByteSpan(mask->data(), len));
    }
    return b;
  };
}

std::shared_ptr<const Bytes> Mask(uint64_t seed, uint64_t tag, size_t bytes) {
  Rng rng(Mix(seed, tag));
  return std::make_shared<const Bytes>(rng.RandomBytes(bytes));
}

Plan FirstBackup(uint64_t seed) {
  constexpr int kFiles = 40;
  constexpr size_t kFileBytes = 1 << 20;
  Plan p;
  for (int f = 0; f < kFiles; ++f) {
    std::string path = "/data/image" + std::to_string(f) + ".bin";
    Fill fill = [seed, f]() {
      Rng rng(Mix(seed, 100 + f));
      return rng.RandomBytes(kFileBytes);
    };
    p.backups.push_back({1, path, 0, fill});
    p.restores.push_back({1, path, 0, false, fill});
  }
  p.shape = "1 user, 40 files x 1 MiB unique random data; restore all 40";
  return p;
}

Plan WeeklyHomedir(uint64_t seed) {
  constexpr int kWeeks = 4;
  constexpr int kMidWeek = 1;
  constexpr size_t kSegment = 8 << 10;
  struct SizeClass {
    int files;
    size_t bytes;
  };
  // Per-file latency groups by size and by week (week 1 sends its bytes,
  // later weeks mostly dedup). 70% small and 30% large files put p50 inside
  // the small files and the tails (p87.5 of 80 backups, p75 of 40
  // restores) inside the large ones, so no quantile sits on a jump between
  // groups.
  const SizeClass classes[] = {{14, 128 << 10}, {6, 1 << 20}};
  std::vector<std::vector<Fill>> fills(kWeeks);
  std::vector<std::string> paths;
  for (int c = 0; c < 2; ++c) {
    SyntheticDatasetOptions o = SyntheticDataset::FslDefaults();
    o.num_users = classes[c].files;  // one dataset "user" per file
    o.num_weeks = kWeeks;
    o.user_bytes = classes[c].bytes;
    o.segment_bytes = kSegment;
    o.seed = 200 + c;
    auto ds = std::make_shared<const SyntheticDataset>(o);
    auto mask = Mask(seed, 300 + c, kSegment);
    for (int f = 0; f < classes[c].files; ++f) {
      paths.push_back("/home/user/c" + std::to_string(c) + "/file" + std::to_string(f));
      for (int w = 0; w < kWeeks; ++w) {
        fills[w].push_back(MaskedFile(ds, mask, f, w));
      }
    }
  }
  Plan p;
  for (int w = 0; w < kWeeks; ++w) {
    for (size_t f = 0; f < paths.size(); ++f) {
      p.backups.push_back({1, paths[f], w, fills[w][f]});
    }
  }
  for (size_t f = 0; f < paths.size(); ++f) {
    p.restores.push_back({1, paths[f], kWeeks - 1, true, fills[kWeeks - 1][f]});
  }
  for (size_t f = 0; f < paths.size(); ++f) {
    p.restores.push_back({1, paths[f], kMidWeek, false, fills[kMidWeek][f]});
  }
  p.shape = "1 user, 20 files (14x128KiB, 6x1MiB) x 4 weekly generations; "
            "restore latest + week-2 as-of";
  return p;
}

Plan VmFleet(uint64_t seed) {
  // Four weeks, so the backup p50 sits inside the deduplicated weeks and
  // the tail (p87.5) inside week 0, whose bytes cross the wire.
  constexpr int kUsers = 20;
  constexpr int kWeeks = 4;
  constexpr size_t kSegment = 16 << 10;
  SyntheticDatasetOptions o = SyntheticDataset::VmDefaults(0.125);
  o.num_users = kUsers;
  o.num_weeks = kWeeks;
  o.segment_bytes = kSegment;
  o.seed = 400;
  auto ds = std::make_shared<const SyntheticDataset>(o);
  auto mask = Mask(seed, 401, kSegment);

  // The master image (every segment two or more users hold) is the same in
  // every run, as a cloned base OS image is; the seed re-keys each user's
  // private segments only. A re-keyed master would move its chunk
  // boundaries with the seed for all users at once, and with them the
  // storage ratio and the index traffic of every shared chunk, which sets
  // how much index the reopen replays.
  std::map<uint64_t, std::set<int>> holders;  // segment hash -> users
  auto segment_hashes = [&](int u, int w) {
    Bytes b = ds->FileFor(u, w);
    std::vector<uint64_t> h;
    for (size_t off = 0; off < b.size(); off += kSegment) {
      h.push_back(Hash64(ConstByteSpan(b.data() + off, std::min(kSegment, b.size() - off))));
    }
    return h;
  };
  for (int u = 0; u < kUsers; ++u) {
    for (int w = 0; w < kWeeks; ++w) {
      for (uint64_t h : segment_hashes(u, w)) {
        holders[h].insert(u);
      }
    }
  }
  std::vector<std::vector<Fill>> fills(kUsers);
  for (int u = 0; u < kUsers; ++u) {
    for (int w = 0; w < kWeeks; ++w) {
      std::vector<bool> keyed;
      for (uint64_t h : segment_hashes(u, w)) {
        keyed.push_back(holders[h].size() == 1);
      }
      fills[u].push_back(MaskedFile(ds, mask, u, w,
                                    std::make_shared<const std::vector<bool>>(std::move(keyed))));
    }
  }
  Plan p;
  for (int w = 0; w < kWeeks; ++w) {
    for (int u = 0; u < kUsers; ++u) {
      p.backups.push_back({static_cast<UserId>(u + 1), "/vm/disk.img", w, fills[u][w]});
    }
  }
  for (int u = 0; u < kUsers; ++u) {
    for (int w : {0, kWeeks - 1}) {
      p.restores.push_back({static_cast<UserId>(u + 1), "/vm/disk.img", w, false, fills[u][w]});
    }
  }
  p.shape = "20 users x 512 KiB VM image, weeks 0-3 (95% shared base); "
            "restore every user's weeks 0 and 3";
  return p;
}

// ------------------------------------------------------------ deployment --

// n clouds: a directory-backed object store behind a MeteredBackend, a
// CDStore server over it, and a MeteredTransport carrying the link model.
// Servers can be closed and reopened from their index dirs and backends.
class World {
 public:
  explicit World(std::string dir) : dir_(std::move(dir)) {
    for (int i = 0; i < kN; ++i) {
      links_.push_back(std::make_unique<CloudLink>(kLinkBytesPerS, kLinkLatencyS));
    }
  }
  World(const World&) = delete;
  World& operator=(const World&) = delete;
  ~World() {
    (void)Close();  // best effort; errors were reported by an explicit Close
    backends_.clear();
    (void)RemoveDirRecursive(dir_);
  }

  Status Open(MetricRegistry* metrics, Tracer* tracer, double* open_s) {
    Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kN; ++i) {
      if (backends_.size() < kN) {
        ASSIGN_OR_RETURN(auto dir_backend, LocalDirBackend::Open(BackendDir(i)));
        backends_.push_back(std::make_unique<MeteredBackend>(std::move(dir_backend)));
      }
      ServerOptions so;
      so.index_dir = IndexDir(i);
      so.metrics = metrics;
      so.tracer = tracer;
      ASSIGN_OR_RETURN(auto server, CdstoreServer::Create(backends_[i].get(), so));
      servers_.push_back(std::move(server));
      transports_.push_back(
          std::make_unique<MeteredTransport>(servers_.back()->AsHandler(), links_[i].get()));
    }
    *open_s = Seconds(t0);
    return Status::Ok();
  }

  // Flushes every server, then destroys transports and servers.
  Status Close() {
    Status first;
    for (auto& s : servers_) {
      Status st = s->Flush();
      if (first.ok() && !st.ok()) {
        first = st;
      }
    }
    for (size_t i = 0; i < transports_.size(); ++i) {
      net_[i].Merge(transports_[i]->Take());
    }
    transports_.clear();
    servers_.clear();
    return first;
  }

  std::vector<Transport*> transports() const {
    std::vector<Transport*> out;
    for (const auto& t : transports_) {
      out.push_back(t.get());
    }
    return out;
  }

  // Traffic per cloud since the last call (across reopens).
  std::vector<CloudNet> TakeNet() {
    for (size_t i = 0; i < transports_.size(); ++i) {
      net_[i].Merge(transports_[i]->Take());
    }
    std::vector<CloudNet> out(kN);
    std::swap(out, net_);
    net_.assign(kN, CloudNet{});
    return out;
  }

  StorageTally TakeStorage() {
    StorageTally total;
    for (auto& b : backends_) {
      total.Merge(b->Take());
    }
    return total;
  }

  uint64_t DecoratorHeldBytes(int i) const { return backends_[i]->held_bytes(); }
  uint64_t BackendDirBytes(int i) const { return TreeBytes(BackendDir(i)); }
  uint64_t IndexDirBytes(int i) const { return TreeBytes(IndexDir(i)); }

 private:
  std::string BackendDir(int i) const { return dir_ + "/cloud" + std::to_string(i); }
  std::string IndexDir(int i) const { return dir_ + "/index" + std::to_string(i); }

  std::string dir_;
  std::vector<std::unique_ptr<CloudLink>> links_;
  std::vector<std::unique_ptr<MeteredBackend>> backends_;
  std::vector<std::unique_ptr<CdstoreServer>> servers_;
  std::vector<std::unique_ptr<MeteredTransport>> transports_;
  std::vector<CloudNet> net_ = std::vector<CloudNet>(kN);
};

ClientOptions BenchClientOptions(MetricRegistry* metrics, Tracer* tracer) {
  ClientOptions o;
  o.n = kN;
  o.k = kK;
  o.encode_threads = kEncodeThreads;
  o.decode_threads = kDecodeThreads;
  o.metrics = metrics;
  o.tracer = tracer;
  return o;
}

// Compares restored bytes with the generated input as they arrive.
class VerifySink : public ByteSink {
 public:
  explicit VerifySink(const Bytes& expected) : expected_(expected) {}
  Status Append(ConstByteSpan data) override {
    if (pos_ + data.size() > expected_.size() ||
        std::memcmp(expected_.data() + pos_, data.data(), data.size()) != 0) {
      mismatch_ = true;
    }
    pos_ += data.size();
    return Status::Ok();
  }
  bool matched() const { return !mismatch_ && pos_ == expected_.size(); }

 private:
  const Bytes& expected_;
  size_t pos_ = 0;
  bool mismatch_ = false;
};

// ---------------------------------------------------------------- rounds --

// Cumulative (steal, total) CPU ticks of the host's "cpu" line in
// /proc/stat: time a hypervisor ran other guests on this machine's vCPUs.
std::pair<double, double> StealTicks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double v[8] = {};
  stat >> cpu;
  double total = 0;
  for (double& x : v) {
    stat >> x;
    total += x;
  }
  return {v[7], total};
}

// The process's high-water RSS so far. Clouds are directory-backed, so
// stored shares are not in it.
double PeakRssMiB() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct SpanStats {
  std::map<std::string, double> self_ns;
  std::map<std::string, double> upload_path_ns;
  std::map<std::string, double> download_path_ns;
  uint64_t uploads = 0;
  uint64_t downloads = 0;
  uint64_t spans = 0;
  uint64_t dropped = 0;

  void Add(const TraceDump& dump) {
    SpanForest forest(dump.spans);
    forest.AddSelfTimes(&self_ns);
    uploads += forest.AddCriticalPaths("upload", &upload_path_ns);
    downloads += forest.AddCriticalPaths("download", &download_path_ns);
    spans += dump.spans.size();
    dropped += dump.spans_dropped;
  }
};

struct RoundResult {
  double setup_s = 0;    // server creation + post-backup reopen (medians of trials)
  double create_ms = 0;
  double reopen_ms = 0;
  double backup_s = 0;   // sum of per-file OpenUpload -> Finish
  double restore_s = 0;  // sum of per-file Download
  uint64_t logical_bytes = 0;
  uint64_t restored_bytes = 0;
  // Per-file times, indexed like the plan's ops; NaN where the op failed.
  std::vector<double> backup_ms;
  std::vector<double> restore_ms;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<CloudNet> net_backup;
  std::vector<CloudNet> net_restore;
  StorageTally storage_backup;
  StorageTally storage_restore;
  uint64_t stored_bytes = 0;  // all backends after Flush
  uint64_t index_bytes = 0;   // all index dirs after the backup phase
  double peak_rss_mib = 0;    // the process's high-water RSS at the round's end
  std::vector<std::string> errors;
};

class RoundRunner {
 public:
  RoundRunner(const Plan& plan, std::string workdir, MetricRegistry* metrics, SpanStats* spans)
      : plan_(plan), workdir_(std::move(workdir)), metrics_(metrics), spans_(spans) {}

  RoundResult Run(int round) {
    RoundResult r;
    const std::string dir = workdir_ + "/round" + std::to_string(round);
    World world(dir);
    std::map<std::tuple<UserId, std::string, int>, uint64_t> generations;

    // Server creation and reopen are timed kSetupTrials times per round
    // (the extra creations on throwaway servers) and their medians kept.
    std::vector<double> creates, reopens;
    for (int t = 1; t < kSetupTrials; ++t) {
      World probe(dir + "-probe" + std::to_string(t));
      double s = 0;
      if (Check(&r, probe.Open(nullptr, nullptr, &s), "open probe servers")) {
        creates.push_back(s);
      }
    }
    std::unique_ptr<Tracer> tracer = NewTracer();
    double create_s = 0;
    if (!Check(&r, world.Open(metrics_, tracer.get(), &create_s), "open servers")) {
      return r;
    }
    creates.push_back(create_s);
    std::vector<uint64_t> stats_bytes = Backup(world, tracer.get(), &r, &generations);
    r.net_backup = world.TakeNet();
    // The decorator's UploadShares payload bytes against the client's own
    // UploadStats::transferred_share_bytes, per cloud.
    for (int c = 0; c < kN; ++c) {
      if (r.net_backup[c].share_bytes_sent != stats_bytes[c]) {
        Fail(&r, "cloud " + std::to_string(c) + ": UploadShares carried " +
                     std::to_string(r.net_backup[c].share_bytes_sent) +
                     " share bytes, UploadStats reports " + std::to_string(stats_bytes[c]));
      }
    }
    Check(&r, world.Close(), "flush after backup");
    r.storage_backup = world.TakeStorage();
    for (int i = 0; i < kN; ++i) {
      uint64_t on_disk = world.BackendDirBytes(i);
      r.stored_bytes += on_disk;
      r.index_bytes += world.IndexDirBytes(i);
      if (world.DecoratorHeldBytes(i) != on_disk) {
        Fail(&r, "cloud " + std::to_string(i) + ": backend decorator counts " +
                     std::to_string(world.DecoratorHeldBytes(i)) + " bytes held, backend holds " +
                     std::to_string(on_disk));
      }
    }
    CollectSpans(std::move(tracer));

    for (int t = 1; t < kSetupTrials; ++t) {
      double s = 0;
      if (!Check(&r, world.Open(nullptr, nullptr, &s), "reopen probe servers")) {
        return r;
      }
      reopens.push_back(s);
      Check(&r, world.Close(), "close probe servers");
    }
    (void)world.TakeNet();
    (void)world.TakeStorage();
    tracer = NewTracer();
    double reopen_s = 0;
    if (!Check(&r, world.Open(metrics_, tracer.get(), &reopen_s), "reopen servers")) {
      return r;
    }
    reopens.push_back(reopen_s);
    r.setup_s = Median(creates) + Median(reopens);
    r.create_ms = Median(creates) * 1e3;
    r.reopen_ms = Median(reopens) * 1e3;
    Restore(world, tracer.get(), generations, &r);
    r.net_restore = world.TakeNet();
    Check(&r, world.Close(), "close after restore");
    r.storage_restore = world.TakeStorage();
    CollectSpans(std::move(tracer));
    r.peak_rss_mib = PeakRssMiB();
    return r;
  }

 private:
  std::unique_ptr<Tracer> NewTracer() const {
    if (spans_ == nullptr) {
      return nullptr;
    }
    TraceOptions to;
    to.sample_every_n = 1;
    to.slow_threshold_ns = 0;
    to.ring_slots = 1 << 15;
    to.metrics = metrics_;
    return std::make_unique<Tracer>(to);
  }

  // Called once every client and server recording into `tracer` is gone.
  void CollectSpans(std::unique_ptr<Tracer> tracer) {
    if (tracer != nullptr) {
      spans_->Add(tracer->Dump());
    }
  }

  static void Fail(RoundResult* r, const std::string& what) {
    ++r->failed;
    r->errors.push_back(what);
  }

  static bool Check(RoundResult* r, const Status& st, const std::string& what) {
    if (!st.ok()) {
      Fail(r, what + ": " + st.ToString());
    }
    return st.ok();
  }

  // Returns each cloud's transferred_share_bytes as the client reports it.
  std::vector<uint64_t> Backup(World& world, Tracer* tracer, RoundResult* r,
                               std::map<std::tuple<UserId, std::string, int>, uint64_t>* generations) {
    std::vector<uint64_t> stats_bytes(kN, 0);
    std::unique_ptr<CdstoreClient> client;
    std::unique_ptr<BackupSession> session;
    r->backup_ms.assign(plan_.backups.size(), kNaN);
    for (size_t i = 0; i < plan_.backups.size(); ++i) {
      const BackupOp& op = plan_.backups[i];
      if (client == nullptr || client->user() != op.user) {
        if (session != nullptr) {
          Check(r, session->Close(), "close session");
        }
        session.reset();
        client = std::make_unique<CdstoreClient>(world.transports(), op.user,
                                                 BenchClientOptions(metrics_, tracer));
        auto opened = client->OpenBackupSession();
        if (!Check(r, opened.status(), "open session")) {
          ++r->attempted;
          client.reset();
          continue;
        }
        session = std::move(opened.value());
      }
      Bytes data = op.fill();
      ++r->attempted;
      UploadFileOptions fo;
      fo.mode = PutFileMode::kNewGeneration;
      fo.timestamp_ms = static_cast<uint64_t>(op.week + 1) * kWeekMs;
      UploadStats stats;
      Clock::time_point t0 = Clock::now();
      auto writer = session->OpenUpload(op.path, fo);
      Status st = writer.status();
      for (size_t off = 0; st.ok() && off < data.size(); off += kWriteSlice) {
        st = writer.value()->Write(
            ConstByteSpan(data.data() + off, std::min(kWriteSlice, data.size() - off)));
      }
      if (st.ok()) {
        st = writer.value()->Finish(&stats);
      }
      double dt = Seconds(t0);
      if (!Check(r, st, "backup " + op.path)) {
        continue;
      }
      r->backup_ms[i] = dt * 1e3;
      r->backup_s += dt;
      r->logical_bytes += data.size();
      (*generations)[{op.user, op.path, op.week}] = stats.generation_id;
      for (size_t c = 0; c < stats.per_cloud.size() && c < stats_bytes.size(); ++c) {
        stats_bytes[c] += stats.per_cloud[c].transferred_share_bytes;
      }
    }
    if (session != nullptr) {
      Check(r, session->Close(), "close session");
    }
    session.reset();
    client.reset();

    return stats_bytes;
  }

  void Restore(World& world, Tracer* tracer,
               const std::map<std::tuple<UserId, std::string, int>, uint64_t>& generations,
               RoundResult* r) {
    std::map<UserId, std::unique_ptr<CdstoreClient>> clients;
    r->restore_ms.assign(plan_.restores.size(), kNaN);
    for (size_t i = 0; i < plan_.restores.size(); ++i) {
      const RestoreOp& op = plan_.restores[i];
      auto& client = clients[op.user];
      if (client == nullptr) {
        client = std::make_unique<CdstoreClient>(world.transports(), op.user,
                                                 BenchClientOptions(metrics_, tracer));
      }
      ++r->attempted;
      auto gen = generations.find({op.user, op.path, op.week});
      if (gen == generations.end()) {
        Fail(r, "restore " + op.path + ": its backup failed");
        continue;
      }
      Bytes expected = op.fill();
      VerifySink sink(expected);
      DownloadStats stats;
      Clock::time_point t0 = Clock::now();
      Status st = client->Download(op.path, sink, &stats, op.latest ? 0 : gen->second);
      double dt = Seconds(t0);
      if (!Check(r, st, "restore " + op.path)) {
        continue;
      }
      if (!sink.matched()) {
        Fail(r, "restore " + op.path + ": restored bytes differ from the input");
        continue;
      }
      r->restore_ms[i] = dt * 1e3;
      r->restore_s += dt;
      r->restored_bytes += expected.size();
    }
  }

  const Plan& plan_;
  std::string workdir_;
  MetricRegistry* metrics_;
  SpanStats* spans_;
};

// ---------------------------------------------------------------- stages --

// Single-thread rates of the pipeline's stages, by direct calls on the
// workload's own chunks. MB/s = 1e6 bytes/s of stage input.
struct StageRates {
  double chunk_MBps = 0;
  double mean_chunk_KiB = 0;
  double encode_MBps = 0;
  double decode_MBps = 0;
  double fingerprint_MBps = 0;  // share bytes hashed
  double share_expansion = 0;   // share bytes per logical byte
  double aes_MBps = 0;
  double sha_MBps = 0;
  double gf_MBps = 0;
  bool codec_ok = true;  // every encode succeeded and every decode matched
};

// Keeps the stage loops' results observable.
volatile uint8_t g_sink = 0;

// Repeats `pass` over `bytes_per_pass` input bytes for at least 0.25 s.
template <typename F>
double PassRate(double bytes_per_pass, F&& pass) {
  Clock::time_point t0 = Clock::now();
  uint64_t passes = 0;
  double s = 0;
  do {
    pass();
    ++passes;
    s = Seconds(t0);
  } while (s < 0.25);
  return bytes_per_pass * static_cast<double>(passes) / s / 1e6;
}

StageRates MeasureStages(const Bytes& sample) {
  StageRates r;
  const double bytes = static_cast<double>(sample.size());
  size_t boundaries = 0;
  r.chunk_MBps = PassRate(bytes, [&]() {
    RabinChunker chunker;
    ChunkSink count = [&](ConstByteSpan) { ++boundaries; };
    chunker.Update(sample, count);
    chunker.Finish(count);
  });
  RabinChunker chunker;
  std::vector<Bytes> chunks = ChunkBuffer(chunker, sample);
  r.mean_chunk_KiB = bytes / static_cast<double>(std::max<size_t>(1, chunks.size())) / 1024.0;

  auto scheme = MakeCaontRs(kN, kK);
  std::vector<std::vector<Bytes>> shares(chunks.size());
  r.encode_MBps = PassRate(bytes, [&]() {
    for (size_t i = 0; i < chunks.size(); ++i) {
      r.codec_ok &= scheme->Encode(chunks[i], &shares[i]).ok();
    }
  });
  double share_bytes = 0;
  for (const auto& s : shares) {
    for (const Bytes& b : s) {
      share_bytes += static_cast<double>(b.size());
    }
  }
  r.share_expansion = share_bytes / bytes;
  uint8_t fold = 0;
  r.fingerprint_MBps = PassRate(share_bytes, [&]() {
    for (const auto& s : shares) {
      for (const Bytes& b : s) {
        fold ^= FingerprintOf(b)[0];
      }
    }
  });

  const std::vector<int> ids = {0, 1, 2};
  Bytes out;
  auto decode_all = [&](bool verify) {
    for (size_t i = 0; i < chunks.size(); ++i) {
      std::vector<ConstByteSpan> spans = {shares[i][0], shares[i][1], shares[i][2]};
      bool ok = scheme->DecodeSpans(ids, spans, chunks[i].size(), &out).ok();
      r.codec_ok &= ok && (!verify || out == chunks[i]);
    }
  };
  decode_all(true);
  r.decode_MBps = PassRate(bytes, [&]() { decode_all(false); });

  Rng rng(7);
  Bytes key = rng.RandomBytes(Aes256::kKeySize);
  Aes256 aes(key);
  const uint8_t iv[Aes256::kBlockSize] = {};
  Bytes buf(16 << 10);
  for (const Bytes& c : chunks) {
    buf.resize(std::max(buf.size(), c.size()));
  }
  r.aes_MBps = PassRate(bytes, [&]() {
    for (const Bytes& c : chunks) {
      Aes256CtrXor(aes, iv, c, ByteSpan(buf.data(), c.size()));
    }
  });
  uint8_t digest[Sha256::kDigestSize];
  r.sha_MBps = PassRate(bytes, [&]() {
    for (const Bytes& c : chunks) {
      Sha256::Hash(c, ByteSpan(digest, sizeof(digest)));
      fold ^= digest[0];
    }
  });
  r.gf_MBps = PassRate(bytes, [&]() {
    for (const Bytes& c : chunks) {
      Gf256AddMulRegion(ByteSpan(buf.data(), c.size()), c, 0x8e);
    }
  });
  g_sink = static_cast<uint8_t>(fold ^ buf[0] ^ boundaries);
  return r;
}

// ----------------------------------------------------------------- report --

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

struct RunTotals {
  std::vector<RoundResult> rounds;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  std::vector<double> PerRound(double (*f)(const RoundResult&)) const {
    std::vector<double> v;
    for (const RoundResult& r : rounds) {
      v.push_back(f(r));
    }
    return v;
  }
  // Each file's best time over the run's rounds, one sample per file that
  // backed up (or restored) in every round. Every round repeats the same
  // files on fresh servers, and the host's contention only ever adds time,
  // in bursts, so a file's fastest round is the steadiest reading of the
  // program's own time.
  std::vector<double> BestMs(std::vector<double> RoundResult::*times) const {
    std::vector<double> best;
    for (const RoundResult& r : rounds) {
      const std::vector<double>& v = r.*times;
      if (best.empty()) {
        best.assign(v.size(), std::numeric_limits<double>::infinity());
      }
      for (size_t i = 0; i < v.size() && i < best.size(); ++i) {
        // NaN (a failed op) poisons the file's entry.
        best[i] = std::isnan(v[i]) || std::isnan(best[i]) ? kNaN : std::min(best[i], v[i]);
      }
    }
    std::erase_if(best, [](double x) { return std::isnan(x); });
    return best;
  }
  // One round's bytes over the sum of its files' best times. Rounds move
  // the same bytes unless an op failed, and a failed op fails the run.
  double MiBps(std::vector<double> RoundResult::*times, uint64_t RoundResult::*bytes) const {
    if (rounds.empty()) {
      return 0;
    }
    double total_ms = 0;
    for (double ms : BestMs(times)) {
      total_ms += ms;
    }
    return Ratio(static_cast<double>(rounds.front().*bytes) / kMiB, total_ms / 1e3);
  }
  double BackupMiBps() const {
    return MiBps(&RoundResult::backup_ms, &RoundResult::logical_bytes);
  }
  double RestoreMiBps() const {
    return MiBps(&RoundResult::restore_ms, &RoundResult::restored_bytes);
  }
  double Sum(uint64_t RoundResult::*field) const {
    double s = 0;
    for (const RoundResult& r : rounds) {
      s += static_cast<double>(r.*field);
    }
    return s;
  }
  // Per-cloud traffic of one phase, summed over rounds.
  std::vector<CloudNet> Net(std::vector<CloudNet> RoundResult::*phase) const {
    std::vector<CloudNet> out(kN);
    for (const RoundResult& r : rounds) {
      for (size_t c = 0; c < (r.*phase).size(); ++c) {
        out[c].Merge((r.*phase)[c]);
      }
    }
    return out;
  }
  StorageTally Storage() const {
    StorageTally t;
    for (const RoundResult& r : rounds) {
      t.Merge(r.storage_backup);
      t.Merge(r.storage_restore);
    }
    return t;
  }
};

RunTotals RunRounds(const Plan& plan, const std::string& workdir, double seconds,
                    MetricRegistry* metrics, SpanStats* spans,
                    int* round_id, const char* label) {
  RunTotals run;
  RoundRunner runner(plan, workdir, metrics, spans);
  Clock::time_point t0 = Clock::now();
  while (true) {
    RoundResult r = runner.Run((*round_id)++);
    std::printf("%s round %zu: backup %.2f MiB in %.3f s, restore %.2f MiB in %.3f s, "
                "setup %.4f s (create %.1f ms, reopen %.1f ms), failed %llu/%llu\n",
                label, run.rounds.size() + 1, static_cast<double>(r.logical_bytes) / kMiB,
                r.backup_s, static_cast<double>(r.restored_bytes) / kMiB, r.restore_s, r.setup_s,
                r.create_ms, r.reopen_ms,
                static_cast<unsigned long long>(r.failed),
                static_cast<unsigned long long>(r.attempted));
    for (size_t e = 0; e < r.errors.size() && e < 8; ++e) {
      std::printf("  error: %s\n", r.errors[e].c_str());
    }
    run.attempted += r.attempted;
    run.failed += r.failed;
    run.rounds.push_back(std::move(r));
    double elapsed = Seconds(t0);
    if (run.failed > 0 || elapsed >= kMaxRunSeconds ||
        (elapsed >= seconds && run.rounds.size() >= kMinRounds)) {
      break;
    }
  }
  return run;
}

void PrintCloudSkew(const RunTotals& run) {
  double rounds = static_cast<double>(std::max<size_t>(1, run.rounds.size()));
  const std::pair<const char*, std::vector<CloudNet> RoundResult::*> phases[] = {
      {"backup", &RoundResult::net_backup}, {"restore", &RoundResult::net_restore}};
  for (const auto& [name, phase] : phases) {
    std::vector<CloudNet> net = run.Net(phase);
    std::printf("per-cloud %-7s (per round):", name);
    for (int c = 0; c < kN; ++c) {
      std::printf("  cloud%d wire %.2f MiB busy %.1f ms", c,
                  static_cast<double>(net[c].wire_bytes()) / kMiB / rounds,
                  static_cast<double>(net[c].busy_ns()) / 1e6 / rounds);
    }
    std::printf("\n");
  }
}

std::vector<Metric> EndToEnd(const RunTotals& run) {
  double logical = run.Sum(&RoundResult::logical_bytes);
  double share_bytes = 0;
  for (const CloudNet& c : run.Net(&RoundResult::net_backup)) {
    share_bytes += static_cast<double>(c.share_bytes_sent);
  }
  double puts = 0;
  for (const RoundResult& r : run.rounds) {
    puts += static_cast<double>(r.storage_backup.put.calls);
  }
  std::vector<double> backup_ms = run.BestMs(&RoundResult::backup_ms);
  std::vector<double> restore_ms = run.BestMs(&RoundResult::restore_ms);
  return {
      {"backup_MiBps", run.BackupMiBps(), "MiB/s"},
      {"restore_MiBps", run.RestoreMiBps(), "MiB/s"},
      {"file_backup_p50_ms", Quantile(backup_ms, 0.5), "ms"},
      {"file_backup_tail_ms", Quantile(backup_ms, TailQuantile(backup_ms.size())), "ms"},
      {"file_restore_p50_ms", Quantile(restore_ms, 0.5), "ms"},
      {"file_restore_tail_ms", Quantile(restore_ms, TailQuantile(restore_ms.size())), "ms"},
      {"transfer_ratio", Ratio(share_bytes, logical), "ratio"},
      {"storage_ratio", Ratio(run.Sum(&RoundResult::stored_bytes), logical), "ratio"},
      {"cloud_puts_per_GiB", Ratio(puts, logical / kGiB), "1/GiB"},
      {"setup_s", Median(run.PerRound([](const RoundResult& r) { return r.setup_s; })), "s"},
      // Taken after the first round, from a fresh process: later rounds add
      // whatever the allocator kept of earlier ones, which varies run to run.
      {"peak_rss_MiB", run.rounds.empty() ? 0 : run.rounds.front().peak_rss_mib, "MiB"},
  };
}

uint64_t RegistrySum(const MetricRegistry& registry, const std::string& name) {
  uint64_t total = 0;
  for (const MetricSample& s : registry.Snapshot()) {
    if (s.name == name) {
      total += static_cast<uint64_t>(s.value);
    }
  }
  return total;
}

double LinkFrac(const RunTotals& run, std::vector<CloudNet> RoundResult::*phase,
                double RoundResult::*wall) {
  std::vector<double> v;
  for (const RoundResult& r : run.rounds) {
    uint64_t busiest = 0;
    for (const CloudNet& c : r.*phase) {
      busiest = std::max(busiest, c.wire_bytes());
    }
    v.push_back(Ratio(static_cast<double>(busiest) / kLinkBytesPerS, r.*wall));
  }
  return Median(v);
}

std::vector<Metric> PerLayer(const RunTotals& untraced, const RunTotals& traced,
                             const MetricRegistry& registry, const SpanStats& spans,
                             const StageRates& stages) {
  const double rounds = static_cast<double>(std::max<size_t>(1, traced.rounds.size()));
  std::vector<CloudNet> backup = traced.Net(&RoundResult::net_backup);
  std::vector<CloudNet> restore = traced.Net(&RoundResult::net_restore);
  CloudNet all;
  CloudNet backup_all;
  for (int c = 0; c < kN; ++c) {
    all.Merge(backup[c]);
    all.Merge(restore[c]);
    backup_all.Merge(backup[c]);
  }
  std::vector<Metric> m;
  for (int r = 0; r < kOther; ++r) {
    const RpcTally& t = all.rpc[r];
    std::string net = std::string("net.") + kRpcNames[r];
    m.push_back({net + ".calls", static_cast<double>(t.calls) / rounds, "count"});
    m.push_back({net + ".req_MiB", static_cast<double>(t.req_bytes) / kMiB / rounds, "MiB"});
    m.push_back({net + ".reply_MiB", static_cast<double>(t.reply_bytes) / kMiB / rounds, "MiB"});
    m.push_back({net + ".wall_ms", static_cast<double>(t.wall_ns) / 1e6 / rounds, "ms"});
  }
  m.push_back({"net.backup_link_frac",
               LinkFrac(traced, &RoundResult::net_backup, &RoundResult::backup_s), "frac"});
  m.push_back({"net.restore_link_frac",
               LinkFrac(traced, &RoundResult::net_restore, &RoundResult::restore_s), "frac"});
  uint64_t most = 0, least = UINT64_MAX;
  for (const CloudNet& c : backup) {
    most = std::max(most, c.wire_bytes());
    least = std::min(least, c.wire_bytes());
  }
  m.push_back({"net.cloud_skew", Ratio(static_cast<double>(most), static_cast<double>(least)),
               "ratio"});

  for (int r = 0; r < kOther; ++r) {
    const RpcTally& t = all.rpc[r];
    std::string server = std::string("server.") + kRpcNames[r];
    std::vector<double> us(t.busy_us.begin(), t.busy_us.end());
    m.push_back({server + ".busy_ms", static_cast<double>(t.busy_ns) / 1e6 / rounds, "ms"});
    m.push_back({server + ".p99_us", Quantile(us, 0.99), "us"});
  }
  m.push_back({"server.UploadShares.dedup_shares",
               static_cast<double>(all.shares_deduplicated) / rounds, "count"});
  auto self_ms = [&](const char* span) {
    auto it = spans.self_ns.find(span);
    return it == spans.self_ns.end() ? 0.0 : it->second / 1e6 / rounds;
  };
  for (const char* span : {"stripe_wait", "claim_wait", "kv_commit", "store_append"}) {
    m.push_back({std::string("server.") + span + "_ms", self_ms(span), "ms"});
  }
  m.push_back({"server.open_ms",
               Median(traced.PerRound([](const RoundResult& r) { return r.reopen_ms; })), "ms"});

  for (const char* span :
       {"chunk", "encode_worker", "reorder", "uploader", "fetch_lane", "decode_batch"}) {
    m.push_back({std::string("client.") + span + ".self_ms", self_ms(span), "ms"});
  }
  m.push_back({"client.upload_pool_stalls",
               static_cast<double>(
                   RegistrySum(registry, "cdstore_client_upload_pool_stalls_total")) /
                   rounds,
               "count"});

  m.push_back({"chunking.MBps", stages.chunk_MBps, "MB/s"});
  m.push_back({"chunking.mean_chunk_KiB", stages.mean_chunk_KiB, "KiB"});
  m.push_back({"dispersal.encode_MBps", stages.encode_MBps, "MB/s"});
  m.push_back({"dispersal.decode_MBps", stages.decode_MBps, "MB/s"});
  m.push_back({"dedup.fingerprint_MBps", stages.fingerprint_MBps, "MB/s"});
  m.push_back({"crypto.aes_ctr_MBps", stages.aes_MBps, "MB/s"});
  m.push_back({"crypto.sha256_MBps", stages.sha_MBps, "MB/s"});
  m.push_back({"gf256.addmul_MBps", stages.gf_MBps, "MB/s"});

  m.push_back({"dedup.intra_dup_frac",
               Ratio(static_cast<double>(backup_all.fps_present),
                     static_cast<double>(backup_all.fps_queried)),
               "frac"});
  m.push_back({"dedup.inter_dup_frac",
               Ratio(static_cast<double>(backup_all.shares_deduplicated),
                     static_cast<double>(backup_all.shares_sent)),
               "frac"});
  double negative = static_cast<double>(RegistrySum(registry, "cdstore_dedup_bloom_negative_total"));
  double maybe = static_cast<double>(RegistrySum(registry, "cdstore_dedup_bloom_maybe_total"));
  double hits = static_cast<double>(RegistrySum(registry, "cdstore_dedup_cache_hits_total"));
  m.push_back({"dedup.accel_absorbed", Ratio(negative + hits, negative + maybe), "frac"});

  StorageTally st = traced.Storage();
  m.push_back({"storage.put.calls", static_cast<double>(st.put.calls) / rounds, "count"});
  m.push_back({"storage.put.MiB", static_cast<double>(st.put.bytes) / kMiB / rounds, "MiB"});
  m.push_back({"storage.put.ms", static_cast<double>(st.put.ns) / 1e6 / rounds, "ms"});
  m.push_back({"storage.get.calls", static_cast<double>(st.get.calls) / rounds, "count"});
  m.push_back({"storage.get.MiB", static_cast<double>(st.get.bytes) / kMiB / rounds, "MiB"});
  m.push_back({"storage.get.ms", static_cast<double>(st.get.ns) / 1e6 / rounds, "ms"});
  m.push_back({"storage.mean_object_KiB",
               Ratio(static_cast<double>(st.put.bytes) / 1024.0, static_cast<double>(st.put.calls)),
               "KiB"});
  m.push_back({"kvstore.index_MiB", traced.Sum(&RoundResult::index_bytes) / kMiB / rounds, "MiB"});

  m.push_back({"trace.spans_dropped", static_cast<double>(spans.dropped), "count"});
  m.push_back({"trace.backup_overhead_MiBps", traced.BackupMiBps() - untraced.BackupMiBps(),
               "MiB/s"});
  m.push_back({"trace.restore_overhead_MiBps", traced.RestoreMiBps() - untraced.RestoreMiBps(),
               "MiB/s"});
  double attempted = static_cast<double>(untraced.attempted + traced.attempted);
  m.push_back({"failed_ops_frac",
               Ratio(static_cast<double>(untraced.failed + traced.failed), attempted), "frac"});
  return m;
}

// Each stage's single-thread rate, scaled by the threads that run it in the
// pipeline, in logical MB/s next to what the pipeline achieved and the
// link ceiling: the lowest ceiling names the stage a gap belongs to.
void PrintStageCeilings(const StageRates& s, const RunTotals& untraced) {
  const double link = kK * kLinkBytesPerS / 1e6;
  // Fingerprinting and the kernels run inside the encode workers; the
  // fingerprint rate is over share bytes, so it is rescaled to logical.
  struct Row {
    const char* stage;
    double single;
    int threads;
    double per_logical;
  };
  const Row rows[] = {
      {"chunking", s.chunk_MBps, 1, 1},
      {"encode (CAONT-RS)", s.encode_MBps, kEncodeThreads, 1},
      {"fingerprint", s.fingerprint_MBps, kEncodeThreads, s.share_expansion},
      {"decode", s.decode_MBps, kDecodeThreads, 1},
      {"aes-256-ctr", s.aes_MBps, kEncodeThreads, 1},
      {"sha-256", s.sha_MBps, kEncodeThreads, 1},
      {"gf256 addmul", s.gf_MBps, kEncodeThreads, 1},
  };
  std::printf("stage ceilings (logical MB/s = single-thread rate x threads):\n");
  for (const Row& r : rows) {
    std::printf("  %-18s %9.1f x %d = %9.1f\n", r.stage, r.single / r.per_logical, r.threads,
                r.single / r.per_logical * r.threads);
  }
  std::printf("  %-18s %9.1f (%d lanes x %.0f MB/s)\n", "link ceiling", link, kK,
              kLinkBytesPerS / 1e6);
  std::printf("  %-18s %9.1f backup, %.1f restore (untraced)\n", "pipeline achieved",
              untraced.BackupMiBps() * kMiB / 1e6, untraced.RestoreMiBps() * kMiB / 1e6);
}

void PrintCriticalPath(const char* root, const std::map<std::string, double>& path_ns,
                       uint64_t roots) {
  double total = 0;
  for (const auto& [name, ns] : path_ns) {
    total += ns;
  }
  std::vector<std::pair<double, std::string>> order;
  for (const auto& [name, ns] : path_ns) {
    order.push_back({ns, name});
  }
  std::sort(order.rbegin(), order.rend());
  std::printf("critical path of %llu %s roots (%.1f ms):",
              static_cast<unsigned long long>(roots), root, total / 1e6);
  for (const auto& [ns, name] : order) {
    if (ns / std::max(total, 1.0) >= 0.001) {
      std::printf(" %s %.1f ms (%.1f%%)", name.c_str(), ns / 1e6, 100 * ns / total);
    }
  }
  std::printf("\n");
}

void PrintJson(bool correct, uint64_t attempted, uint64_t failed,
               const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), v, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = -1;
  std::string workdir;
  std::string source_id = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      a->workload = value;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      a->trace = std::atoi(value.c_str());
    } else if (flag == "--workdir") {
      a->workdir = value;
    } else if (flag == "--source-id") {
      a->source_id = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && !a->workdir.empty() && a->seconds > 0 &&
         (a->trace == 0 || a->trace == 1);
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: cdbench --workload first-backup|weekly-homedir|vm-fleet --seed N "
                 "--seconds S --trace 0|1 --workdir DIR [--source-id ID]\n");
    return 2;
  }
  Plan plan;
  if (args.workload == "first-backup") {
    plan = FirstBackup(args.seed);
  } else if (args.workload == "weekly-homedir") {
    plan = WeeklyHomedir(args.seed);
  } else if (args.workload == "vm-fleet") {
    plan = VmFleet(args.seed);
  } else {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }
  if (plan.backups.size() < 2 * kTailBeyond || plan.restores.size() < 2 * kTailBeyond) {
    std::fprintf(stderr, "workload %s has fewer than %zu files to time per phase\n",
                 args.workload.c_str(), 2 * kTailBeyond);
    return 2;
  }
  // Link sleeps wake on time instead of up to the default 50 us late;
  // every thread created from here on inherits the setting.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  // glibc raises its mmap threshold the first time a large block is freed,
  // at a moment thread timing picks, and peak RSS then stepped by ~6 MiB
  // from run to run. Pinned at its starting value, blocks >= 128 KiB are
  // always mapped and are unmapped on free, so RSS follows live memory.
  mallopt(M_MMAP_THRESHOLD, kMmapThreshold);
  static const char* kTiers[] = {"scalar", "ssse3", "avx2"};
  std::printf("identity: nproc=%ld gf256=%s sha_ni=%d aes_ni=%d source=%s\n",
              sysconf(_SC_NPROCESSORS_ONLN), kTiers[Gf256SimdTier()], Sha256::HasShaNi() ? 1 : 0,
              Aes256::HasAesni() ? 1 : 0, args.source_id.c_str());
  std::printf("identity: workload=%s seed=%llu seconds=%g trace=%d\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace);
  std::printf("identity: deployment n=%d k=%d encode_threads=%d decode_threads=%d; "
              "link per cloud %.0f MB/s + %.0f ms/call, request and reply bytes charged, "
              "transfers queued; clouds directory-backed; flush policy sync_wal=false "
              "(WAL fflushed, not fsynced); malloc mmap threshold pinned at %d KiB\n",
              kN, kK, kEncodeThreads, kDecodeThreads, kLinkBytesPerS / 1e6, kLinkLatencyS * 1e3,
              kMmapThreshold >> 10);
  std::printf("identity: shape %s; closed loop, 1 client, 1 session at a time; "
              "each file's time is its best over >= %zu rounds; tail = p%.1f of %zu backups, "
              "p%.1f of %zu restores\n",
              plan.shape.c_str(), kMinRounds, 100 * TailQuantile(plan.backups.size()),
              plan.backups.size(), 100 * TailQuantile(plan.restores.size()),
              plan.restores.size());
  std::fflush(stdout);

  const auto [steal0, total0] = StealTicks();
  int round_id = 0;
  bool correct = true;
  uint64_t attempted = 0, failed = 0;
  std::vector<Metric> metrics;
  if (args.trace == 0) {
    RunTotals run = RunRounds(plan, args.workdir, args.seconds, nullptr, nullptr,
                              &round_id, "e2e");
    PrintCloudSkew(run);
    metrics = EndToEnd(run);
    attempted = run.attempted;
    failed = run.failed;
  } else {
    RunTotals untraced = RunRounds(plan, args.workdir, args.seconds / 2, nullptr,
                                   nullptr, &round_id, "untraced");
    MetricRegistry registry;
    SpanStats spans;
    RunTotals traced = RunRounds(plan, args.workdir, args.seconds / 2, &registry,
                                 &spans, &round_id, "traced");
    PrintCloudSkew(traced);
    Bytes sample;
    for (const BackupOp& op : plan.backups) {
      if (sample.size() >= (8u << 20)) {
        break;
      }
      Bytes b = op.fill();
      sample.insert(sample.end(), b.begin(), b.end());
    }
    StageRates stages = MeasureStages(sample);
    PrintStageCeilings(stages, untraced);
    PrintCriticalPath("upload", spans.upload_path_ns, spans.uploads);
    PrintCriticalPath("download", spans.download_path_ns, spans.downloads);
    std::printf("trace: %llu spans, %llu dropped%s\n",
                static_cast<unsigned long long>(spans.spans),
                static_cast<unsigned long long>(spans.dropped),
                spans.dropped == 0 ? "" : " (per-layer span figures incomplete)");
    metrics = PerLayer(untraced, traced, registry, spans, stages);
    attempted = untraced.attempted + traced.attempted;
    failed = untraced.failed + traced.failed;
    if (!stages.codec_ok) {
      std::printf("error: direct CAONT-RS decode did not reproduce its chunks\n");
      ++failed;
    }
  }
  const auto [steal1, total1] = StealTicks();
  std::printf("host: vCPU steal %.1f%% during the run (time the hypervisor gave other "
              "guests; high steal makes every timing noisy)\n",
              100 * Ratio(steal1 - steal0, total1 - total0));
  correct = failed == 0;
  attempted = std::max<uint64_t>(attempted, 1);
  PrintJson(correct, attempted, std::min(failed, attempted), metrics);
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace cdstore::perfbench

int main(int argc, char** argv) { return cdstore::perfbench::Main(argc, argv); }
