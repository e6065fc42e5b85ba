#include "svc/session_spool.hpp"

#include <stdlib.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <system_error>
#include <vector>

#include "crypto/sha256.hpp"
#include "proto/reusable_io.hpp"
#include "proto/session_io.hpp"

namespace maxel::svc {

namespace fs = std::filesystem;

namespace {

constexpr const char* kIndexName = "spool.idx";
constexpr const char* kIndexMagic = "MXSPOOL1";

std::string sha_hex(const void* data, std::size_t n) {
  return crypto::Sha256::hex(
      crypto::Sha256::hash(static_cast<const std::uint8_t*>(data), n));
}

// One row per lane, indexed by SessionSpool::Lane: the file name is
// <prefix><12-digit seq><ext>, and the zero-padded sequence keeps
// lexicographic order equal to creation order within a lane, so "oldest
// first" is a plain sort. The counters are the lane's SpoolStats fields.
struct LaneSpec {
  const char* prefix;
  const char* ext;
  std::size_t SpoolStats::*ready;
  std::uint64_t SpoolStats::*spooled;
};

constexpr LaneSpec kLanes[] = {
    {"sess-", ".mxs", &SpoolStats::sessions_ready,
     &SpoolStats::sessions_spooled},
    {"v3ss-", ".mx3", &SpoolStats::sessions_ready_v3, &SpoolStats::v3_spooled},
    {"reus-", ".mxr", &SpoolStats::reusable_ready,
     &SpoolStats::reusable_spooled},
};
constexpr std::size_t kNameSize = 5 + 12 + 4;

// (A template so it can take the spool's private Lane enum.)
template <class Lane>
const LaneSpec& spec(Lane lane) {
  return kLanes[static_cast<std::size_t>(lane)];
}

// Parses a file name of any lane: its sequence number, with its lane
// index in `lane`; ~0 when it names no lane.
std::uint64_t parse_name(const std::string& name, std::size_t& lane) {
  if (name.size() != kNameSize) return ~0ull;
  for (lane = 0; lane < std::size(kLanes); ++lane)
    if (name.compare(0, 5, kLanes[lane].prefix) == 0 &&
        name.compare(17, 4, kLanes[lane].ext) == 0)
      break;
  if (lane == std::size(kLanes)) return ~0ull;
  std::uint64_t seq = 0;
  for (std::size_t i = 5; i < 17; ++i) {
    const char c = name[i];
    if (c < '0' || c > '9') return ~0ull;
    seq = seq * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return seq;
}

// A whole file, or nullopt when it cannot be read.
std::optional<std::vector<std::uint8_t>> read_file(const fs::path& path) {
  std::ifstream is(path, std::ios::binary | std::ios::ate);
  if (!is) return std::nullopt;
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(is.tellg()));
  is.seekg(0);
  if (!is.read(reinterpret_cast<char*>(bytes.data()),
               static_cast<std::streamsize>(bytes.size())))
    return std::nullopt;
  return bytes;
}

void remove_all_children(const fs::path& dir, std::uint64_t* count = nullptr) {
  std::error_code ec;
  for (const auto& e : fs::directory_iterator(dir, ec)) {
    fs::remove_all(e.path(), ec);
    if (count) ++*count;
  }
}

}  // namespace

std::string reusable_artifact_key(
    const std::array<std::uint8_t, 32>& fingerprint, std::size_t bits) {
  static const char* hex = "0123456789abcdef";
  std::string key;
  key.reserve(16 + 1 + 4);
  for (std::size_t i = 0; i < 8; ++i) {
    key.push_back(hex[fingerprint[i] >> 4]);
    key.push_back(hex[fingerprint[i] & 0xF]);
  }
  key.push_back('-');
  key += std::to_string(bits);
  return key;
}

SessionSpool::SessionSpool(const SpoolConfig& cfg) : cfg_(cfg) {
  if (cfg_.dir.empty())
    throw std::invalid_argument("SessionSpool: empty spool directory");
  open_or_rebuild();
}

void SessionSpool::open_or_rebuild() {
  const fs::path root(cfg_.dir);
  fs::create_directories(root / "ready");
  fs::create_directories(root / "claimed");
  fs::create_directories(root / "tmp");

  // A claimed session may have been partially streamed before a crash;
  // its labels are burned either way. Destroy, never re-serve.
  remove_all_children(root / "claimed", &stats_.purged_on_open);
  remove_all_children(root / "tmp");

  // Try the checksummed index first: the magic line, one line per ready
  // file, then "SUM <sha256 of everything above>".
  bool index_ok = false;
  if (std::ifstream is{root / kIndexName}) {
    std::string body, line;
    while (std::getline(is, line) && line.rfind("SUM ", 0) != 0)
      body += line + "\n";
    index_ok = body.rfind(std::string(kIndexMagic) + "\n", 0) == 0 &&
               line == "SUM " + sha_hex(body.data(), body.size());
    std::istringstream lines(body);
    std::getline(lines, line);  // magic
    while (index_ok && std::getline(lines, line)) {
      std::istringstream f(line);
      Entry e;
      index_ok = static_cast<bool>(f >> e.name >> e.bytes >> e.sha256_hex);
      std::size_t lane = 0;
      if (parse_name(e.name, lane) != ~0ull) e.lane = Lane(lane);
      // v3 lines carry a fourth column: the pool lineage the session was
      // garbled under. Reusable lines carry the cache key and the
      // persisted evaluations-served counter.
      if (e.lane == Lane::kV3) index_ok = index_ok && (f >> e.lineage);
      if (e.lane == Lane::kReusable)
        index_ok = index_ok && (f >> e.key >> e.evals);
      index_.push_back(std::move(e));
    }
    if (!index_ok) index_.clear();
  }

  // Reconcile against ready/ — the directory is ground truth for which
  // sessions exist; the index contributes the checksums. Entries whose
  // file vanished are dropped; files the index missed are (re)hashed.
  Index reconciled;
  std::vector<std::string> on_disk;
  for (const auto& e : fs::directory_iterator(root / "ready")) {
    std::size_t lane = 0;
    if (e.is_regular_file() &&
        parse_name(e.path().filename().string(), lane) != ~0ull)
      on_disk.push_back(e.path().filename().string());
  }
  std::sort(on_disk.begin(), on_disk.end());
  for (const auto& name : on_disk) {
    std::size_t lane = 0;
    next_seq_ = std::max(next_seq_, parse_name(name, lane) + 1);
    const auto it = std::find_if(index_.begin(), index_.end(),
                                 [&](const Entry& e) { return e.name == name; });
    if (index_ok && it != index_.end()) {
      reconciled.push_back(*it);
      continue;
    }
    const auto b = read_file(root / "ready" / name);
    if (!b) continue;
    Entry e;
    e.name = name;
    e.bytes = b->size();
    e.sha256_hex = sha_hex(b->data(), b->size());
    e.lane = Lane(lane);
    // The v3 lineage column and the reusable key were lost with the
    // index (and with it a reusable evaluation counter): recover them
    // from the file itself, or destroy a file that no longer parses
    // rather than ever offer it.
    try {
      if (e.lane == Lane::kV3) {
        e.lineage = proto::parse_session_v3(b->data(), b->size()).pool_lineage;
      } else if (e.lane == Lane::kReusable) {
        const gc::ReusableCircuit rc =
            proto::parse_reusable(b->data(), b->size());
        e.key = reusable_artifact_key(rc.view.fingerprint, rc.view.bit_width);
      }
    } catch (const std::exception&) {
      std::error_code ec;
      fs::remove(root / "ready" / name, ec);
      continue;
    }
    reconciled.push_back(std::move(e));
  }
  index_ = std::move(reconciled);
  for (const auto& e : index_) {
    stats_.bytes_on_disk += e.bytes;
    stats_.reusable_evaluations += e.evals;
    ++(stats_.*spec(e.lane).ready);
  }
  write_index_locked();
}

void SessionSpool::write_index_locked() {
  const fs::path root(cfg_.dir);
  std::ostringstream body;
  body << kIndexMagic << "\n";
  for (const auto& e : index_) {
    body << e.name << " " << e.bytes << " " << e.sha256_hex;
    if (e.lane == Lane::kV3) body << " " << e.lineage;
    if (e.lane == Lane::kReusable) body << " " << e.key << " " << e.evals;
    body << "\n";
  }
  const std::string content = body.str();
  const fs::path tmp = root / "tmp" / "spool.idx.tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    os << content << "SUM " << sha_hex(content.data(), content.size())
       << "\n";
    if (!os) throw std::runtime_error("SessionSpool: cannot write index");
  }
  fs::rename(tmp, root / kIndexName);
}

void SessionSpool::commit(Entry e, const WriteFn& write,
                          const std::function<void(const Entry&)>& publish) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%012llu%s", spec(e.lane).prefix,
                  static_cast<unsigned long long>(next_seq_++),
                  spec(e.lane).ext);
    e.name = buf;
  }
  const fs::path root(cfg_.dir);
  const fs::path tmp = root / "tmp" / e.name;
  // One pass, outside the lock: each piece is checksummed and written as
  // it comes, so a session never has to exist as one big buffer.
  crypto::Sha256 sha;
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    write([&](const std::uint8_t* p, std::size_t n) {
      sha.update(p, n);
      os.write(reinterpret_cast<const char*>(p),
               static_cast<std::streamsize>(n));
      e.bytes += n;
    });
    if (!os) throw std::runtime_error("SessionSpool: cannot write " + e.name);
  }
  e.sha256_hex = crypto::Sha256::hex(sha.digest());

  const std::lock_guard<std::mutex> lock(mu_);
  // The rename is the commit point: ready/ only ever holds complete files.
  fs::rename(tmp, root / "ready" / e.name);
  if (publish) publish(e);
  ++(stats_.*spec(e.lane).spooled);
  ++(stats_.*spec(e.lane).ready);
  stats_.bytes_on_disk += e.bytes;
  index_.push_back(std::move(e));
  write_index_locked();
}

SessionSpool::Entry SessionSpool::unlist_locked(Index::iterator it) {
  Entry e = std::move(*it);
  index_.erase(it);
  stats_.bytes_on_disk -= std::min(stats_.bytes_on_disk, e.bytes);
  stats_.reusable_evaluations -= std::min(stats_.reusable_evaluations, e.evals);
  --(stats_.*spec(e.lane).ready);
  return e;
}

SessionSpool::Index::iterator SessionSpool::destroy_locked(
    Index::iterator it) {
  const auto pos = it - index_.begin();
  const Entry e = unlist_locked(it);
  std::error_code ec;
  fs::remove(fs::path(cfg_.dir) / "ready" / e.name, ec);
  return index_.begin() + pos;
}

std::optional<SessionSpool::Entry> SessionSpool::claim_oldest_locked(
    Lane lane) {
  const fs::path root(cfg_.dir);
  for (;;) {
    const auto it =
        std::find_if(index_.begin(), index_.end(),
                     [&](const Entry& e) { return e.lane == lane; });
    if (it == index_.end()) return std::nullopt;
    Entry e = unlist_locked(it);
    std::error_code ec;
    fs::rename(root / "ready" / e.name, root / "claimed" / e.name, ec);
    write_index_locked();
    // A failed rename means somebody else (another process sharing the
    // directory) won it, or the file vanished; either way it is not ours.
    if (!ec) return e;
  }
}

std::optional<std::vector<std::uint8_t>> SessionSpool::read_verified(
    const std::string& subdir, const Entry& e) const {
  auto bytes = read_file(fs::path(cfg_.dir) / subdir / e.name);
  if (bytes && cfg_.verify_checksums &&
      sha_hex(bytes->data(), bytes->size()) != e.sha256_hex)
    bytes.reset();
  return bytes;
}

void SessionSpool::put(proto::PrecomputedSession s) {
  Entry e;
  e.lane = Lane::kV2;
  commit(
      std::move(e),
      [&](const proto::SessionBytesFn& emit) {
        proto::serialize_session(s, emit);
      },
      [&](const Entry& published) {
        if (cache_.size() < cfg_.ram_cache_sessions)
          cache_.push_back(Cached{published.name, std::move(s)});
      });
}

std::optional<proto::PrecomputedSession> SessionSpool::take() {
  const std::lock_guard<std::mutex> lock(mu_);
  while (const auto e = claim_oldest_locked(Lane::kV2)) {
    std::optional<proto::PrecomputedSession> s;
    // RAM-cache hit: the bytes never leave memory; the claim above
    // already burned the on-disk copy.
    const auto cached =
        std::find_if(cache_.begin(), cache_.end(),
                     [&](const Cached& c) { return c.name == e->name; });
    if (cached != cache_.end()) {
      s = std::move(cached->session);
      cache_.erase(cached);
      ++stats_.cache_hits;
    } else {
      ++stats_.cache_misses;
      if (const auto bytes = read_verified("claimed", *e)) {
        try {
          s = proto::parse_session(bytes->data(), bytes->size());
        } catch (const std::exception&) {
        }
      }
    }
    std::error_code ec;
    fs::remove(fs::path(cfg_.dir) / "claimed" / e->name, ec);
    if (s) {
      ++stats_.sessions_claimed;
      return s;
    }
    ++stats_.corrupt_discarded;  // bit rot or tampering: burned, never served
  }
  return std::nullopt;
}

void SessionSpool::put_v3(const proto::PrecomputedSessionV3& s) {
  Entry e;
  e.lane = Lane::kV3;
  e.lineage = s.pool_lineage;
  commit(
      std::move(e),
      [&](const proto::SessionBytesFn& emit) {
        const std::vector<std::uint8_t> bytes = proto::serialize_session_v3(s);
        emit(bytes.data(), bytes.size());
      },
      {});
}

std::optional<proto::PrecomputedSessionV3> SessionSpool::take_v3(
    std::uint64_t expected_lineage) {
  const std::lock_guard<std::mutex> lock(mu_);
  while (const auto e = claim_oldest_locked(Lane::kV3)) {
    const fs::path claimed = fs::path(cfg_.dir) / "claimed" / e->name;
    std::error_code ec;
    if (e->lineage != expected_lineage) {
      // Garbled under a pool delta this process does not hold (e.g. a
      // previous broker's registry). Unservable — burn it and move on.
      ++stats_.v3_lineage_discarded;
      fs::remove(claimed, ec);
      continue;
    }
    std::optional<proto::PrecomputedSessionV3> s;
    if (const auto bytes = read_verified("claimed", *e)) {
      try {
        s = proto::parse_session_v3(bytes->data(), bytes->size());
      } catch (const std::exception&) {
      }
    }
    fs::remove(claimed, ec);
    if (s) {
      ++stats_.v3_claimed;
      return s;
    }
    ++stats_.corrupt_discarded;  // bit rot or tampering: burned, never served
  }
  return std::nullopt;
}

void SessionSpool::put_reusable(const std::string& key,
                                const std::vector<std::uint8_t>& bytes) {
  if (key.empty() || key.find_first_of(" \t\n") != std::string::npos)
    throw std::invalid_argument("SessionSpool: bad reusable key");
  Entry e;
  e.lane = Lane::kReusable;
  e.key = key;
  commit(
      std::move(e),
      [&](const proto::SessionBytesFn& emit) {
        emit(bytes.data(), bytes.size());
      },
      [&](const Entry&) {
        // One resident artifact per key: a repeated put replaces
        // (re-garble after corruption, operator-forced refresh) and the
        // evaluation counter restarts with the new artifact's lineage.
        for (auto it = index_.begin(); it != index_.end();)
          it = it->lane == Lane::kReusable && it->key == key
                   ? destroy_locked(it)
                   : it + 1;
      });
}

std::optional<std::vector<std::uint8_t>> SessionSpool::fetch_reusable(
    const std::string& key) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it =
      std::find_if(index_.begin(), index_.end(), [&](const Entry& e) {
        return e.lane == Lane::kReusable && e.key == key;
      });
  if (it == index_.end()) return std::nullopt;
  auto bytes = read_verified("ready", *it);
  if (!bytes) {
    // Bit rot or tampering: destroy the blob so it can never be served,
    // and let the caller re-garble under the same key.
    destroy_locked(it);
    ++stats_.reusable_corrupt_discarded;
    write_index_locked();
  }
  return bytes;
}

void SessionSpool::add_reusable_evaluations(const std::string& key,
                                            std::uint64_t rounds) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it =
      std::find_if(index_.begin(), index_.end(), [&](const Entry& e) {
        return e.lane == Lane::kReusable && e.key == key;
      });
  if (it == index_.end()) return;  // artifact purged under us: drop the count
  it->evals += rounds;
  stats_.reusable_evaluations += rounds;
  write_index_locked();
}

std::size_t SessionSpool::purge_reusable() {
  const std::lock_guard<std::mutex> lock(mu_);
  std::size_t removed = 0;
  for (auto it = index_.begin(); it != index_.end();) {
    if (it->lane == Lane::kReusable) {
      it = destroy_locked(it);
      ++removed;
    } else {
      ++it;
    }
  }
  stats_.reusable_purged += removed;
  write_index_locked();
  return removed;
}

std::vector<ReusableSpoolEntry> SessionSpool::reusable_entries() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<ReusableSpoolEntry> out;
  for (const auto& e : index_)
    if (e.lane == Lane::kReusable)
      out.push_back(
          ReusableSpoolEntry{e.name, e.key, e.bytes, e.sha256_hex, e.evals});
  return out;
}

std::size_t SessionSpool::ready() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return stats_.sessions_ready;
}

std::size_t SessionSpool::ready_v3() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return stats_.sessions_ready_v3;
}

SpoolStats SessionSpool::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

TempSpoolDir::TempSpoolDir() {
  std::string tmpl =
      (fs::temp_directory_path() / "maxel-spool-XXXXXX").string();
  if (::mkdtemp(tmpl.data()) == nullptr)
    throw std::system_error(errno, std::generic_category(),
                            "mkdtemp " + tmpl);
  path_ = tmpl;
}

TempSpoolDir::~TempSpoolDir() {
  std::error_code ec;
  fs::remove_all(path_, ec);
}

}  // namespace maxel::svc
