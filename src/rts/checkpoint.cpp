#include "rts/checkpoint.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "rts/fault.hpp"
#include "rts/runtime.hpp"
#include "util/crc32c.hpp"

namespace paratreet::rts {

namespace {
std::uint32_t chunkCrc(const std::vector<std::byte>& bytes) {
  return bytes.empty() ? 0u
                       : util::crc32c(bytes.data(), bytes.size());
}
}  // namespace

bool CheckpointStore::intact(const Chunk& c) {
  return c.crc == chunkCrc(c.bytes);
}

void CheckpointStore::init(Runtime* rt, obs::MetricsRegistry* metrics) {
  rt_ = rt;
  memory_.clear();
  memory_.reserve(static_cast<std::size_t>(rt->numProcs()));
  for (int p = 0; p < rt->numProcs(); ++p) {
    memory_.push_back(std::make_unique<RankMemory>());
  }
  {
    std::lock_guard lock(seal_mutex_);
    sealed_.clear();
  }
  if (metrics != nullptr) {
    bytes_metric_ = &metrics->counter("checkpoint.bytes");
  }
}

int CheckpointStore::buddyOf(int rank) const {
  const int n = static_cast<int>(memory_.size());
  for (int step = 1; step < n; ++step) {
    const int candidate = (rank + step) % n;
    if (rt_->rankAlive(candidate)) return candidate;
  }
  return rank;
}

void CheckpointStore::keepLastTwo(std::vector<Chunk>& gens, Chunk chunk) {
  // Replace a same-step chunk (re-commit after a partial checkpoint),
  // else append and trim to the two newest steps.
  for (auto& g : gens) {
    if (g.step == chunk.step) {
      g = std::move(chunk);
      return;
    }
  }
  gens.push_back(std::move(chunk));
  std::sort(gens.begin(), gens.end(),
            [](const Chunk& a, const Chunk& b) { return a.step < b.step; });
  while (gens.size() > 2) gens.erase(gens.begin());
}

const CheckpointStore::Chunk* CheckpointStore::find(
    const std::vector<Chunk>& gens, int step) {
  for (const auto& g : gens) {
    if (g.step == step) return &g;
  }
  return nullptr;
}

void CheckpointStore::commit(int rank, int step,
                             std::vector<std::byte> bytes) {
  const std::uint64_t size = static_cast<std::uint64_t>(bytes.size());
  const int buddy = buddyOf(rank);
  auto& mem = *memory_[static_cast<std::size_t>(rank)];
  {
    std::lock_guard lock(mem.mutex);
    mem.lost = false;  // a committing rank evidently has working memory
    keepLastTwo(mem.own, Chunk{step, bytes, chunkCrc(bytes)});
  }
  if (bytes_metric_ != nullptr) bytes_metric_->add(size);
  if (buddy != rank) {
    // Ship the second copy; counted as ordinary message traffic so the
    // checkpoint's communication volume shows up in rts.message_bytes.
    // The serialized chunk rides as the message's real wire payload: a
    // socket transport ships these exact bytes to the buddy's process.
    auto copy =
        std::make_shared<const std::vector<std::byte>>(std::move(bytes));
    Message msg;
    msg.from = rank;
    msg.to = buddy;
    msg.bytes = copy->size();
    msg.kind = MessageKind::kCheckpoint;
    msg.payload = copy;
    msg.on_receive = [this, buddy, rank, step, copy] {
      storeHeld(buddy, rank, step, std::vector<std::byte>(*copy));
    };
    rt_->send(std::move(msg));
  }
}

void CheckpointStore::storeHeld(int holder, int owner, int step,
                                std::vector<std::byte> b) {
  auto& mem = *memory_[static_cast<std::size_t>(holder)];
  const std::uint32_t crc = chunkCrc(b);
  std::lock_guard lock(mem.mutex);
  keepLastTwo(mem.held[owner], Chunk{step, std::move(b), crc});
}

void CheckpointStore::seal(int step) {
  std::lock_guard lock(seal_mutex_);
  if (std::find(sealed_.begin(), sealed_.end(), step) != sealed_.end()) {
    return;
  }
  sealed_.push_back(step);
  std::sort(sealed_.begin(), sealed_.end());
  while (sealed_.size() > 2) sealed_.erase(sealed_.begin());
}

bool CheckpointStore::sealed(int step) const {
  std::lock_guard lock(seal_mutex_);
  return std::find(sealed_.begin(), sealed_.end(), step) != sealed_.end();
}

void CheckpointStore::markLost(int rank) {
  auto& mem = *memory_[static_cast<std::size_t>(rank)];
  std::lock_guard lock(mem.mutex);
  mem.own.clear();
  mem.held.clear();
  mem.lost = true;
}

int CheckpointStore::latestRestorableStep() const {
  std::vector<int> candidates;
  {
    std::lock_guard lock(seal_mutex_);
    candidates = sealed_;
  }
  for (auto it = candidates.rbegin(); it != candidates.rend(); ++it) {
    const int step = *it;
    bool complete = true;
    for (int r = 0; r < static_cast<int>(memory_.size()) && complete; ++r) {
      auto& mem = *memory_[static_cast<std::size_t>(r)];
      bool covered = false;
      {
        std::lock_guard lock(mem.mutex);
        // A copy that fails its checksum is as gone as a lost one: only
        // intact copies count toward restorability, so corruption makes
        // recovery fall back a generation instead of restoring garbage.
        const Chunk* own = !mem.lost ? find(mem.own, step) : nullptr;
        covered = own != nullptr && intact(*own);
      }
      if (!covered) {
        // Fall back to a buddy copy in any surviving rank's memory.
        for (std::size_t h = 0; h < memory_.size() && !covered; ++h) {
          auto& held_mem = *memory_[h];
          std::lock_guard lock(held_mem.mutex);
          if (held_mem.lost) continue;
          const auto found = held_mem.held.find(r);
          const Chunk* held = found != held_mem.held.end()
                                  ? find(found->second, step)
                                  : nullptr;
          covered = held != nullptr && intact(*held);
        }
      }
      complete = covered;
    }
    if (complete) return step;
  }
  return kNoStep;
}

std::vector<std::vector<std::byte>> CheckpointStore::assemble(
    int step) const {
  std::vector<std::vector<std::byte>> out;
  out.reserve(memory_.size());
  for (int r = 0; r < static_cast<int>(memory_.size()); ++r) {
    auto& mem = *memory_[static_cast<std::size_t>(r)];
    bool saw_corrupt = false;
    {
      std::lock_guard lock(mem.mutex);
      if (!mem.lost) {
        if (const Chunk* c = find(mem.own, step)) {
          if (intact(*c)) {
            out.push_back(c->bytes);
            continue;
          }
          saw_corrupt = true;  // own copy rotted: try the buddy copy
        }
      }
    }
    bool recovered = false;
    for (std::size_t h = 0; h < memory_.size() && !recovered; ++h) {
      auto& held_mem = *memory_[h];
      std::lock_guard lock(held_mem.mutex);
      if (held_mem.lost) continue;
      const auto found = held_mem.held.find(r);
      if (found == held_mem.held.end()) continue;
      if (const Chunk* c = find(found->second, step)) {
        if (intact(*c)) {
          out.push_back(c->bytes);
          recovered = true;
        } else {
          saw_corrupt = true;
        }
      }
    }
    if (!recovered) {
      throw std::runtime_error(
          "CheckpointStore::assemble: rank " + std::to_string(r) +
          " has no " + (saw_corrupt ? "intact " : "surviving ") +
          "copy of step " + std::to_string(step) +
          (saw_corrupt
               ? " (stored copies failed their checksum — bits flipped "
                 "in storage)"
               : " (neither its own memory nor any buddy)"));
    }
  }
  return out;
}

bool CheckpointStore::corruptStoredChunk(int rank, int owner, int step) {
  if (rank < 0 || rank >= static_cast<int>(memory_.size())) return false;
  auto& mem = *memory_[static_cast<std::size_t>(rank)];
  std::lock_guard lock(mem.mutex);
  std::vector<Chunk>* gens = nullptr;
  if (rank == owner) {
    gens = &mem.own;
  } else {
    const auto found = mem.held.find(owner);
    if (found == mem.held.end()) return false;
    gens = &found->second;
  }
  for (auto& g : *gens) {
    if (g.step != step || g.bytes.empty()) continue;
    // Flip one bit mid-chunk, past the header, deep in particle state —
    // the stamped CRC no longer matches and intact() reports the rot.
    g.bytes[g.bytes.size() / 2] ^= std::byte{0x40};
    return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// DurableStore: crash-consistent on-disk generations.
// ---------------------------------------------------------------------------

namespace {

constexpr const char* kGenPrefix = "ckpt_";
constexpr const char* kTmpSuffix = ".tmp";
constexpr const char* kManifestMagic = "paratreet-durable-checkpoint v1";

[[noreturn]] void throwErrno(const std::string& what, const std::string& path) {
  throw std::runtime_error("DurableStore: " + what + " " + path + ": " +
                           std::strerror(errno));
}

bool pathExists(const std::string& path) {
  struct stat st{};
  return ::lstat(path.c_str(), &st) == 0;
}

bool isDirectory(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode);
}

/// mkdir -p: create every missing component of `path`.
void createDirs(const std::string& path) {
  for (std::size_t pos = 1; pos <= path.size(); ++pos) {
    if (pos != path.size() && path[pos] != '/') continue;
    const std::string prefix = path.substr(0, pos);
    if (prefix.empty() || isDirectory(prefix)) continue;
    if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) {
      throwErrno("mkdir", prefix);
    }
  }
}

std::vector<std::string> listEntries(const std::string& dir) {
  std::vector<std::string> out;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return out;
  while (const dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    if (name != "." && name != "..") out.push_back(name);
  }
  ::closedir(d);
  return out;
}

/// Remove a generation directory (one level deep — they only hold files).
void removeTree(const std::string& dir) {
  if (!pathExists(dir)) return;
  if (!isDirectory(dir)) {
    // Plain-file debris (e.g. a .snap.tmp export of an older build).
    if (::unlink(dir.c_str()) != 0 && errno != ENOENT) {
      throwErrno("unlink", dir);
    }
    return;
  }
  for (const auto& name : listEntries(dir)) {
    const std::string child = dir + "/" + name;
    if (::unlink(child.c_str()) != 0 && errno != ENOENT) {
      if (isDirectory(child)) removeTree(child);
    }
  }
  if (::rmdir(dir.c_str()) != 0 && errno != ENOENT) throwErrno("rmdir", dir);
}

/// Write + fsync one file holding `parts` back to back: the data is on
/// the platter (or its journal) before the caller proceeds to the rename
/// that makes it reachable.
void writeFileDurable(const std::string& path,
                      std::span<const std::span<const std::byte>> parts) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) throwErrno("open for write", path);
  for (const auto part : parts) {
    const std::byte* p = part.data();
    std::size_t left = part.size();
    while (left > 0) {
      const ssize_t n = ::write(fd, p, left);
      if (n < 0) {
        if (errno == EINTR) continue;
        ::close(fd);
        throwErrno("write", path);
      }
      p += n;
      left -= static_cast<std::size_t>(n);
    }
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    throwErrno("fsync", path);
  }
  if (::close(fd) != 0) throwErrno("close", path);
}

void writeFileDurable(const std::string& path, const void* data,
                      std::size_t size) {
  const std::span<const std::byte> part(static_cast<const std::byte*>(data),
                                        size);
  writeFileDurable(path, {&part, 1});
}

/// fsync a directory so the entries created/renamed in it are durable.
void fsyncDir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd < 0) throwErrno("open directory", dir);
  // Some filesystems refuse fsync on directories (EINVAL); that is the
  // platform's best effort, not a checkpoint failure.
  if (::fsync(fd) != 0 && errno != EINVAL) {
    ::close(fd);
    throwErrno("fsync directory", dir);
  }
  ::close(fd);
}

bool readWholeFile(const std::string& path, std::vector<std::byte>& out) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return false;
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return false;
  }
  out.assign(static_cast<std::size_t>(st.st_size), std::byte{0});
  std::size_t got = 0;
  while (got < out.size()) {
    const ssize_t n = ::read(fd, out.data() + got, out.size() - got);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      ::close(fd);
      return false;
    }
    got += static_cast<std::size_t>(n);
  }
  ::close(fd);
  return true;
}

std::string hex32(std::uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%08x", v);
  return buf;
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Parse "ckpt_<int>" (and not "...tmp"); false for anything else.
bool parseGenName(const std::string& name, int& step) {
  const std::size_t plen = std::strlen(kGenPrefix);
  if (name.size() <= plen || name.compare(0, plen, kGenPrefix) != 0) {
    return false;
  }
  const std::string digits = name.substr(plen);
  std::size_t i = digits[0] == '-' ? 1 : 0;
  if (i == digits.size()) return false;
  for (; i < digits.size(); ++i) {
    if (digits[i] < '0' || digits[i] > '9') return false;
  }
  step = std::atoi(digits.c_str());
  return true;
}

struct ManifestEntry {
  std::uint64_t offset = 0;
  std::uint64_t size = 0;
  std::uint32_t crc = 0;
};

std::string encodeManifest(int step, std::uint64_t config_hash,
                           std::uint64_t particle_count,
                           const std::vector<ManifestEntry>& entries,
                           std::uint32_t file_crc) {
  std::ostringstream out;
  out << kManifestMagic << "\n";
  out << "step " << step << "\n";
  out << "config_hash " << hex64(config_hash) << "\n";
  out << "particles " << particle_count << "\n";
  out << "chunks " << entries.size() << "\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    out << "chunk " << i << " " << entries[i].offset << " " << entries[i].size
        << " " << hex32(entries[i].crc) << "\n";
  }
  out << "file_crc " << hex32(file_crc) << "\n";
  const std::string body = out.str();
  const std::uint32_t self =
      util::crc32c(body.data(), body.size());
  return body + "manifest_crc " + hex32(self) + "\n";
}

struct ParsedManifest {
  int step = 0;
  std::uint64_t config_hash = 0;
  std::uint64_t particle_count = 0;
  std::vector<ManifestEntry> entries;
  std::uint32_t file_crc = 0;
};

/// Structural manifest verification: the trailing self-CRC first (any
/// single flipped bit anywhere in the file fails here or in the field
/// parse below), then every field. Returns false with a reason on any
/// damage; config-hash *compatibility* is the caller's judgement.
bool parseManifest(const std::vector<std::byte>& raw, ParsedManifest& out,
                   std::string& why) {
  const std::string text(reinterpret_cast<const char*>(raw.data()),
                         raw.size());
  const std::size_t tail = text.rfind("\nmanifest_crc ");
  if (tail == std::string::npos) {
    why = "no trailing manifest_crc line";
    return false;
  }
  const std::string body = text.substr(0, tail + 1);
  std::uint32_t declared = 0;
  {
    std::istringstream line(text.substr(tail + 1));
    std::string key, hex;
    line >> key >> hex;
    char* end = nullptr;
    declared = static_cast<std::uint32_t>(std::strtoul(hex.c_str(), &end, 16));
    if (key != "manifest_crc" || end == hex.c_str()) {
      why = "malformed manifest_crc line";
      return false;
    }
  }
  const std::uint32_t actual = util::crc32c(body.data(), body.size());
  if (actual != declared) {
    why = "manifest self-checksum mismatch (stored " + hex32(declared) +
          ", computed " + hex32(actual) + ")";
    return false;
  }
  std::istringstream in(body);
  std::string line;
  if (!std::getline(in, line) || line != kManifestMagic) {
    why = "unsupported manifest header '" + line + "'";
    return false;
  }
  std::size_t n_chunks = 0;
  bool have_step = false, have_hash = false, have_count = false,
       have_chunks = false, have_file_crc = false;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string key;
    fields >> key;
    if (key == "step") {
      have_step = static_cast<bool>(fields >> out.step);
    } else if (key == "config_hash") {
      std::string hex;
      fields >> hex;
      out.config_hash = std::strtoull(hex.c_str(), nullptr, 16);
      have_hash = !hex.empty();
    } else if (key == "particles") {
      have_count = static_cast<bool>(fields >> out.particle_count);
    } else if (key == "chunks") {
      have_chunks = static_cast<bool>(fields >> n_chunks);
    } else if (key == "chunk") {
      std::size_t index = 0;
      ManifestEntry e;
      std::string hex;
      if (!(fields >> index >> e.offset >> e.size >> hex) ||
          index != out.entries.size()) {
        why = "malformed chunk line '" + line + "'";
        return false;
      }
      e.crc = static_cast<std::uint32_t>(std::strtoul(hex.c_str(), nullptr, 16));
      out.entries.push_back(e);
    } else if (key == "file_crc") {
      std::string hex;
      fields >> hex;
      out.file_crc =
          static_cast<std::uint32_t>(std::strtoul(hex.c_str(), nullptr, 16));
      have_file_crc = !hex.empty();
    }
  }
  if (!have_step || !have_hash || !have_count || !have_chunks ||
      !have_file_crc) {
    why = "manifest missing required field(s)";
    return false;
  }
  if (out.entries.size() != n_chunks) {
    why = "manifest declares " + std::to_string(n_chunks) +
          " chunk(s) but lists " + std::to_string(out.entries.size());
    return false;
  }
  return true;
}

enum class GenVerdict { kOk, kDamaged, kConfigMismatch };

/// Full verification of one generation directory: manifest self-CRC →
/// fields → config hash → chunk layout → whole-file CRC → per-chunk CRCs.
GenVerdict verifyGeneration(const std::string& dir, int dir_step,
                            std::uint64_t expected_hash,
                            DurableStore::Recovered& out, std::string& why) {
  std::vector<std::byte> raw_manifest;
  if (!readWholeFile(dir + "/MANIFEST", raw_manifest)) {
    why = "MANIFEST missing or unreadable";
    return GenVerdict::kDamaged;
  }
  ParsedManifest m;
  if (!parseManifest(raw_manifest, m, why)) return GenVerdict::kDamaged;
  if (m.step != dir_step) {
    why = "manifest step " + std::to_string(m.step) +
          " does not match directory name";
    return GenVerdict::kDamaged;
  }
  if (m.config_hash != expected_hash) {
    why = "config/dataset hash mismatch: checkpoint written with " +
          hex64(m.config_hash) + ", this run is " + hex64(expected_hash);
    return GenVerdict::kConfigMismatch;
  }
  std::vector<std::byte> bytes;
  if (!readWholeFile(dir + "/chunks.bin", bytes)) {
    why = "chunks.bin missing or unreadable";
    return GenVerdict::kDamaged;
  }
  std::uint64_t expected_size = 0;
  for (const auto& e : m.entries) {
    if (e.offset != expected_size) {
      why = "chunk offsets not contiguous";
      return GenVerdict::kDamaged;
    }
    expected_size += e.size;
  }
  if (bytes.size() != expected_size) {
    why = "chunks.bin holds " + std::to_string(bytes.size()) +
          " byte(s) but manifest declares " + std::to_string(expected_size) +
          (bytes.size() < expected_size ? " (torn write?)" : "");
    return GenVerdict::kDamaged;
  }
  const std::uint32_t file_crc =
      bytes.empty() ? 0u : util::crc32c(bytes.data(), bytes.size());
  if (file_crc != m.file_crc) {
    why = "chunks.bin checksum mismatch (stored " + hex32(m.file_crc) +
          ", computed " + hex32(file_crc) + ")";
    return GenVerdict::kDamaged;
  }
  out.chunks.clear();
  for (std::size_t i = 0; i < m.entries.size(); ++i) {
    const auto& e = m.entries[i];
    std::vector<std::byte> chunk(
        bytes.begin() + static_cast<std::ptrdiff_t>(e.offset),
        bytes.begin() + static_cast<std::ptrdiff_t>(e.offset + e.size));
    const std::uint32_t crc =
        chunk.empty() ? 0u : util::crc32c(chunk.data(), chunk.size());
    if (crc != e.crc) {
      why = "chunk " + std::to_string(i) + " checksum mismatch";
      return GenVerdict::kDamaged;
    }
    out.chunks.push_back(std::move(chunk));
  }
  out.step = m.step;
  out.particle_count = m.particle_count;
  return GenVerdict::kOk;
}

/// Flip one bit of an existing file in place (the torn-write injector).
void flipFileBit(const std::string& path, std::uint64_t bit) {
  const int fd = ::open(path.c_str(), O_RDWR);
  if (fd < 0) return;
  unsigned char c = 0;
  const off_t offset = static_cast<off_t>(bit / 8);
  if (::pread(fd, &c, 1, offset) == 1) {
    c ^= static_cast<unsigned char>(1u << (bit % 8));
    ::pwrite(fd, &c, 1, offset);
  }
  ::close(fd);
}

}  // namespace

void DurableStore::open(Options opts) {
  if (opts.dir.empty()) {
    throw std::runtime_error("DurableStore::open: empty directory");
  }
  if (opts.keep < 1) {
    throw std::runtime_error("DurableStore::open: keep must be >= 1");
  }
  opts_ = std::move(opts);
  createDirs(opts_.dir);
  // Startup hygiene: a previous death mid-write can leave *.tmp debris —
  // a ckpt_<step>.tmp generation dir never renamed in, or the
  // checkpoint_<step>.snap.tmp of an older build's lossy export. Neither
  // is ever loadable (rename is the commit point for both), so sweep them.
  const std::size_t slen = std::strlen(kTmpSuffix);
  for (const auto& name : listEntries(opts_.dir)) {
    if (name.size() > slen &&
        name.compare(name.size() - slen, slen, kTmpSuffix) == 0) {
      removeTree(opts_.dir + "/" + name);
    }
  }
  opened_ = true;
}

std::string DurableStore::genDir(int step) const {
  return opts_.dir + "/" + kGenPrefix + std::to_string(step);
}

std::vector<int> DurableStore::generationSteps() const {
  std::vector<int> steps;
  for (const auto& name : listEntries(opts_.dir)) {
    int step = 0;
    if (parseGenName(name, step) && isDirectory(opts_.dir + "/" + name)) {
      steps.push_back(step);
    }
  }
  std::sort(steps.begin(), steps.end());
  return steps;
}

std::uint64_t DurableStore::persist(
    int step, const std::vector<std::vector<std::byte>>& chunks,
    std::uint64_t particle_count) {
  if (!opened_) {
    throw std::runtime_error("DurableStore::persist before open()");
  }
  const std::string final_dir = genDir(step);
  const std::string tmp_dir = final_dir + kTmpSuffix;
  removeTree(tmp_dir);  // a failed attempt earlier this run
  if (::mkdir(tmp_dir.c_str(), 0755) != 0) throwErrno("mkdir", tmp_dir);

  // chunks.bin is the chunks back to back, written straight from them;
  // the whole-file CRC chains across the chunks through crc32c's seed.
  std::vector<ManifestEntry> entries;
  std::vector<std::span<const std::byte>> parts;
  entries.reserve(chunks.size());
  parts.reserve(chunks.size());
  std::uint64_t file_size = 0;
  std::uint32_t file_crc = 0;
  for (const auto& chunk : chunks) {
    ManifestEntry e;
    e.offset = file_size;
    e.size = chunk.size();
    e.crc = chunkCrc(chunk);
    entries.push_back(e);
    parts.emplace_back(chunk);
    file_size += chunk.size();
    file_crc = util::crc32c(chunk.data(), chunk.size(), file_crc);
  }
  const std::string manifest =
      encodeManifest(step, opts_.config_hash, particle_count, entries,
                     file_crc);

  // The crash-consistency ladder: file contents durable, then the tmp
  // directory's entries, then the atomic rename, then the parent's entry.
  // Die anywhere along it and the final name either doesn't exist yet or
  // is the complete, fsync'd generation.
  writeFileDurable(tmp_dir + "/chunks.bin", parts);
  writeFileDurable(tmp_dir + "/MANIFEST", manifest.data(), manifest.size());
  fsyncDir(tmp_dir);
  // Recovery can rewind and re-persist an already-persisted step; rename
  // onto a non-empty directory fails, so clear the slot first.
  removeTree(final_dir);
  if (::rename(tmp_dir.c_str(), final_dir.c_str()) != 0) {
    throwErrno("rename " + tmp_dir + " ->", final_dir);
  }
  fsyncDir(opts_.dir);
  if (opts_.torn_write) tearNewestRepairOlder(step);
  gcOldGenerations();
  return file_size + manifest.size();
}

void DurableStore::tearNewestRepairOlder(int step) {
  // Repair the previously torn generation first: the fault models "the
  // job died while writing the newest generation", so once a newer one
  // lands the older generation must be the intact fallback target.
  if (torn_step_ != CheckpointStore::kNoStep && torn_step_ != step &&
      pathExists(genDir(torn_step_))) {
    const std::string dir = genDir(torn_step_);
    writeFileDurable(dir + "/chunks.bin", torn_chunks_backup_.data(),
                     torn_chunks_backup_.size());
    writeFileDurable(dir + "/MANIFEST", torn_manifest_backup_.data(),
                     torn_manifest_backup_.size());
  }
  const std::string dir = genDir(step);
  if (!readWholeFile(dir + "/chunks.bin", torn_chunks_backup_) ||
      !readWholeFile(dir + "/MANIFEST", torn_manifest_backup_)) {
    return;  // nothing to tear
  }
  torn_step_ = step;
  // Deterministic tear from (torn_seed, step): truncate chunks.bin, flip
  // a bit in chunks.bin, or flip a bit in MANIFEST.
  std::uint64_t h = detail::splitmix64(
      opts_.torn_seed ^ 0x70a3d70a3d70a3d7ull ^
      (static_cast<std::uint64_t>(static_cast<std::int64_t>(step)) *
       0x9e3779b97f4a7c15ull));
  const std::uint64_t mode = h % 3;
  h = detail::splitmix64(h);
  if (mode == 0 && !torn_chunks_backup_.empty()) {
    const off_t len =
        static_cast<off_t>(h % torn_chunks_backup_.size());
    (void)::truncate((dir + "/chunks.bin").c_str(), len);
  } else if (mode == 1 && !torn_chunks_backup_.empty()) {
    flipFileBit(dir + "/chunks.bin", h % (torn_chunks_backup_.size() * 8));
  } else if (!torn_manifest_backup_.empty()) {
    flipFileBit(dir + "/MANIFEST", h % (torn_manifest_backup_.size() * 8));
  }
  if (opts_.on_torn) opts_.on_torn();
}

void DurableStore::gcOldGenerations() {
  std::vector<int> steps = generationSteps();
  const std::size_t keep = static_cast<std::size_t>(opts_.keep);
  for (std::size_t i = 0; i + keep < steps.size(); ++i) {
    removeTree(genDir(steps[i]));
    if (steps[i] == torn_step_) torn_step_ = CheckpointStore::kNoStep;
  }
}

std::optional<DurableStore::Recovered> DurableStore::loadNewestVerified()
    const {
  const std::vector<int> steps = generationSteps();
  if (steps.empty()) return std::nullopt;
  Recovered out;
  std::string diag;
  for (auto it = steps.rbegin(); it != steps.rend(); ++it) {
    std::string why;
    const GenVerdict verdict =
        verifyGeneration(genDir(*it), *it, opts_.config_hash, out, why);
    if (verdict == GenVerdict::kOk) {
      out.diagnostic = diag;
      return out;
    }
    if (verdict == GenVerdict::kConfigMismatch) {
      // Never fall back past this: every generation in the directory was
      // written by the same run shape, so the whole directory belongs to
      // a different config/dataset. Resuming would compute garbage.
      throw std::runtime_error("durable resume rejected: " + genDir(*it) +
                               ": " + why);
    }
    ++out.generations_skipped;
    if (!diag.empty()) diag += "; ";
    diag += genDir(*it) + ": " + why;
  }
  throw std::runtime_error(
      "durable resume failed: " + std::to_string(steps.size()) +
      " generation(s) under " + opts_.dir +
      " but none verified — " + diag);
}

}  // namespace paratreet::rts
