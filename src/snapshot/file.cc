#include "src/snapshot/file.h"

#include <sys/stat.h>
#include <unistd.h>

#include <cstring>
#include <stdexcept>

#include "src/core/durable_file.h"
#include "src/sim/rng.h"
#include "src/snapshot/state_io.h"

namespace ckptsim::snapshot {

namespace {

constexpr char kMagic[8] = {'c', 'k', 'p', 't', 's', 'n', 'a', 'p'};
constexpr std::size_t kHeaderSize = 32;

/// Runs one durable-file step; its failure is SnapshotError(kIo).
template <class Step>
auto io(const Step& step) {
  try {
    return step();
  } catch (const std::runtime_error& e) {
    throw SnapshotError(SnapshotFault::kIo, std::string("snapshot ") + e.what());
  }
}

}  // namespace

std::string encode_snapshot(std::uint32_t kind, std::string_view payload) {
  StateWriter header;
  std::string out(kMagic, sizeof kMagic);
  header.u32(kFormatVersion);
  header.u32(kind);
  header.u64(payload.size());
  header.u64(sim::fnv1a64(payload));
  out += header.bytes();
  out.append(payload.data(), payload.size());
  return out;
}

std::string decode_snapshot(std::string_view bytes, std::uint32_t expected_kind) {
  if (bytes.size() < kHeaderSize) {
    throw SnapshotError(SnapshotFault::kTruncated,
                        "snapshot header truncated: " + std::to_string(bytes.size()) +
                            " byte(s), need " + std::to_string(kHeaderSize));
  }
  if (std::memcmp(bytes.data(), kMagic, sizeof kMagic) != 0) {
    throw SnapshotError(SnapshotFault::kCorrupt, "snapshot magic bytes are wrong");
  }
  StateReader header(bytes.substr(sizeof kMagic, kHeaderSize - sizeof kMagic));
  const std::uint32_t version = header.u32();
  if (version != kFormatVersion) {
    throw SnapshotError(SnapshotFault::kVersionMismatch,
                        "snapshot format version " + std::to_string(version) +
                            ", this build reads " + std::to_string(kFormatVersion));
  }
  const std::uint32_t kind = header.u32();
  if (kind != expected_kind) {
    throw SnapshotError(SnapshotFault::kKindMismatch,
                        "snapshot holds state kind " + std::to_string(kind) + ", expected " +
                            std::to_string(expected_kind));
  }
  const std::uint64_t declared = header.u64();
  const std::uint64_t checksum = header.u64();
  const std::uint64_t actual = bytes.size() - kHeaderSize;
  if (declared > actual) {
    throw SnapshotError(SnapshotFault::kTruncated,
                        "snapshot payload truncated: header declares " +
                            std::to_string(declared) + " byte(s), file holds " +
                            std::to_string(actual));
  }
  if (declared < actual) {
    throw SnapshotError(SnapshotFault::kCorrupt,
                        "snapshot has " + std::to_string(actual - declared) +
                            " byte(s) past the declared payload");
  }
  const std::string_view payload = bytes.substr(kHeaderSize);
  if (sim::fnv1a64(payload) != checksum) {
    throw SnapshotError(SnapshotFault::kCorrupt, "snapshot payload checksum mismatch");
  }
  return std::string(payload);
}

void write_snapshot_file(const std::string& path, std::uint32_t kind,
                         std::string_view payload) {
  io([&] { durable::replace_file(path, encode_snapshot(kind, payload)); });
}

std::string read_snapshot_file(const std::string& path, std::uint32_t expected_kind) {
  return decode_snapshot(io([&] { return durable::read_file(path); }), expected_kind);
}

bool snapshot_exists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

void remove_snapshot_file(const std::string& path) noexcept {
  ::unlink(path.c_str());
}

}  // namespace ckptsim::snapshot
