#include "ml/checkpoint.h"

#include <bit>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/atomic_file.h"
#include "common/crc32c.h"
#include "common/failpoint.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "ml/serialization.h"

namespace kelpie {

namespace {

constexpr std::string_view kMagic = "KELPCKP1";
// v2 appends the "sparse" section, written empty. A non-empty one was
// written by the removed sparse optimizers and cannot resume (its
// accumulators are not in the params section). v1 files lack the section
// and are still accepted on read.
constexpr uint64_t kVersion = 2;
constexpr uint64_t kSectionCount = 5;
constexpr uint64_t kVersionV1 = 1;
constexpr uint64_t kSectionCountV1 = 4;
constexpr std::string_view kFileName = "train.ckpt";
/// Upper bound on one section's payload (the largest legitimate payload is
/// the params section of a big model; a corrupt header must not drive a
/// multi-gigabyte allocation).
constexpr uint64_t kMaxSectionBytes = 1ull << 32;
/// Bound on restored list lengths (recovery events, counters, param spans);
/// far above anything real, low enough to reject corrupt headers cheaply.
constexpr uint64_t kMaxListEntries = 4096;

metrics::Counter& RestoreCounter(std::string_view outcome) {
  return metrics::Registry::Global().GetCounter(
      "kelpie_checkpoint_restore_total", {{"outcome", std::string(outcome)}},
      metrics::Determinism::kDeterministic,
      "Training checkpoint restore attempts by outcome.");
}

/// The `outcome` label of kelpie_checkpoint_restore_total.
std::string_view RestoreOutcomeLabel(CheckpointRestoreOutcome outcome) {
  switch (outcome) {
    case CheckpointRestoreOutcome::kNotAttempted:
      return "not_attempted";
    case CheckpointRestoreOutcome::kNoFile:
      return "no_file";
    case CheckpointRestoreOutcome::kRestored:
      return "restored";
    case CheckpointRestoreOutcome::kCorrupt:
      return "corrupt";
    case CheckpointRestoreOutcome::kStaleConfig:
      return "stale_config";
    case CheckpointRestoreOutcome::kShapeMismatch:
      return "shape_mismatch";
  }
  return "unknown";
}

Status WriteF32Bits(std::ostream& out, float v) {
  return WriteU64(out, std::bit_cast<uint32_t>(v));
}

Status ReadF32Bits(std::istream& in, float& v) {
  uint64_t bits = 0;
  KELPIE_RETURN_IF_ERROR(ReadU64(in, bits));
  if (bits > std::numeric_limits<uint32_t>::max()) {
    return Status::DataLoss("float bit pattern out of range");
  }
  v = std::bit_cast<float>(static_cast<uint32_t>(bits));
  return Status::Ok();
}

/// name + u64 payload size + payload bytes + little-endian u32 CRC32C of
/// the payload. The CRC frames each section independently so corruption is
/// localized, and the declared size bounds the read so a torn tail is a
/// DataLoss instead of a short read into garbage.
Status WriteSection(std::ostream& out, std::string_view name,
                    const std::string& payload) {
  KELPIE_RETURN_IF_ERROR(WriteString(out, name));
  KELPIE_RETURN_IF_ERROR(WriteU64(out, payload.size()));
  out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  const uint32_t crc = Crc32c(payload);
  for (int i = 0; i < 4; ++i) {
    out.put(static_cast<char>((crc >> (8 * i)) & 0xFF));
  }
  if (!out) return Status::Internal("checkpoint section write failed");
  return Status::Ok();
}

Status ReadSection(std::istream& in, std::string_view want_name,
                   std::string& payload) {
  std::string name;
  KELPIE_RETURN_IF_ERROR(ReadString(in, name));
  if (name != want_name) {
    return Status::DataLoss("checkpoint section order: expected '" +
                            std::string(want_name) + "', found '" + name +
                            "'");
  }
  uint64_t size = 0;
  KELPIE_RETURN_IF_ERROR(ReadU64(in, size));
  if (size > kMaxSectionBytes) {
    return Status::DataLoss("checkpoint section '" + name +
                            "' declares an implausible size");
  }
  payload.resize(size);
  in.read(payload.data(), static_cast<std::streamsize>(size));
  char crc_bytes[4];
  in.read(crc_bytes, 4);
  if (!in) {
    return Status::DataLoss("checkpoint section '" + name + "' truncated");
  }
  uint32_t stored = 0;
  for (int i = 0; i < 4; ++i) {
    stored |= static_cast<uint32_t>(static_cast<unsigned char>(crc_bytes[i]))
              << (8 * i);
  }
  if (stored != Crc32c(payload)) {
    return Status::DataLoss("checkpoint section '" + name +
                            "' checksum mismatch");
  }
  return Status::Ok();
}

Status SerializeStateSection(const CheckpointState& state, std::string& out) {
  std::ostringstream os;
  KELPIE_RETURN_IF_ERROR(WriteU64(os, state.next_epoch));
  KELPIE_RETURN_IF_ERROR(WriteF32Bits(os, state.lr_scale));
  KELPIE_RETURN_IF_ERROR(
      WriteU64(os, static_cast<uint64_t>(state.recoveries_left)));
  KELPIE_RETURN_IF_ERROR(WriteU64(os, state.report.epochs_run));
  KELPIE_RETURN_IF_ERROR(
      WriteU64(os, static_cast<uint64_t>(state.report.recoveries)));
  KELPIE_RETURN_IF_ERROR(WriteF32Bits(os, state.report.lr_scale));
  KELPIE_RETURN_IF_ERROR(
      WriteU64(os, static_cast<uint64_t>(state.report.completeness)));
  KELPIE_RETURN_IF_ERROR(WriteU64(os, state.report.events.size()));
  for (const RecoveryEvent& e : state.report.events) {
    KELPIE_RETURN_IF_ERROR(WriteU64(os, e.epoch));
    KELPIE_RETURN_IF_ERROR(WriteF32Bits(os, e.lr_scale));
    KELPIE_RETURN_IF_ERROR(WriteString(os, e.reason));
  }
  out = std::move(os).str();
  return Status::Ok();
}

Status ParseStateSection(const std::string& payload, CheckpointState& state) {
  std::istringstream in(payload);
  KELPIE_RETURN_IF_ERROR(ReadU64(in, state.next_epoch));
  KELPIE_RETURN_IF_ERROR(ReadF32Bits(in, state.lr_scale));
  uint64_t v = 0;
  KELPIE_RETURN_IF_ERROR(ReadU64(in, v));
  state.recoveries_left = static_cast<int64_t>(v);
  KELPIE_RETURN_IF_ERROR(ReadU64(in, state.report.epochs_run));
  KELPIE_RETURN_IF_ERROR(ReadU64(in, v));
  state.report.recoveries = static_cast<int>(v);
  KELPIE_RETURN_IF_ERROR(ReadF32Bits(in, state.report.lr_scale));
  KELPIE_RETURN_IF_ERROR(ReadU64(in, v));
  if (v > static_cast<uint64_t>(Completeness::kCancelled)) {
    return Status::DataLoss("checkpoint completeness out of range");
  }
  state.report.completeness = static_cast<Completeness>(v);
  uint64_t n_events = 0;
  KELPIE_RETURN_IF_ERROR(ReadU64(in, n_events));
  if (n_events > kMaxListEntries) {
    return Status::DataLoss("checkpoint recovery ledger implausibly long");
  }
  state.report.events.resize(n_events);
  for (RecoveryEvent& e : state.report.events) {
    KELPIE_RETURN_IF_ERROR(ReadU64(in, v));
    e.epoch = v;
    KELPIE_RETURN_IF_ERROR(ReadF32Bits(in, e.lr_scale));
    KELPIE_RETURN_IF_ERROR(ReadString(in, e.reason));
  }
  return Status::Ok();
}

Status SerializeRngSection(const RngState& rng, std::string& out) {
  std::ostringstream os;
  for (uint64_t s : rng.s) KELPIE_RETURN_IF_ERROR(WriteU64(os, s));
  KELPIE_RETURN_IF_ERROR(WriteU64(os, rng.has_cached_normal ? 1 : 0));
  KELPIE_RETURN_IF_ERROR(
      WriteU64(os, std::bit_cast<uint64_t>(rng.cached_normal)));
  out = std::move(os).str();
  return Status::Ok();
}

Status ParseRngSection(const std::string& payload, RngState& rng) {
  std::istringstream in(payload);
  for (uint64_t& s : rng.s) KELPIE_RETURN_IF_ERROR(ReadU64(in, s));
  uint64_t v = 0;
  KELPIE_RETURN_IF_ERROR(ReadU64(in, v));
  rng.has_cached_normal = (v != 0);
  KELPIE_RETURN_IF_ERROR(ReadU64(in, v));
  rng.cached_normal = std::bit_cast<double>(v);
  return Status::Ok();
}

Status SerializeCountersSection(const std::vector<uint64_t>& counters,
                                std::string& out) {
  std::ostringstream os;
  KELPIE_RETURN_IF_ERROR(WriteU64(os, counters.size()));
  for (uint64_t c : counters) KELPIE_RETURN_IF_ERROR(WriteU64(os, c));
  out = std::move(os).str();
  return Status::Ok();
}

Status ParseCountersSection(const std::string& payload,
                            std::vector<uint64_t>& counters) {
  std::istringstream in(payload);
  uint64_t n = 0;
  KELPIE_RETURN_IF_ERROR(ReadU64(in, n));
  if (n > kMaxListEntries) {
    return Status::DataLoss("checkpoint counters implausibly long");
  }
  counters.resize(n);
  for (uint64_t& c : counters) KELPIE_RETURN_IF_ERROR(ReadU64(in, c));
  return Status::Ok();
}

Status SerializeParamsSection(const std::vector<std::vector<float>>& params,
                              std::string& out) {
  std::ostringstream os;
  KELPIE_RETURN_IF_ERROR(WriteU64(os, params.size()));
  for (const std::vector<float>& span : params) {
    KELPIE_RETURN_IF_ERROR(WriteFloats(os, span));
  }
  out = std::move(os).str();
  return Status::Ok();
}

Status ParseParamsSection(const std::string& payload,
                          std::vector<std::vector<float>>& params) {
  std::istringstream in(payload);
  uint64_t n = 0;
  KELPIE_RETURN_IF_ERROR(ReadU64(in, n));
  if (n > kMaxListEntries) {
    return Status::DataLoss("checkpoint params span count implausible");
  }
  params.resize(n);
  for (std::vector<float>& span : params) {
    KELPIE_RETURN_IF_ERROR(ReadFloats(in, span));
  }
  return Status::Ok();
}

}  // namespace

std::string_view CheckpointRestoreOutcomeName(CheckpointRestoreOutcome o) {
  switch (o) {
    case CheckpointRestoreOutcome::kNotAttempted:
      return "NotAttempted";
    case CheckpointRestoreOutcome::kNoFile:
      return "NoFile";
    case CheckpointRestoreOutcome::kRestored:
      return "Restored";
    case CheckpointRestoreOutcome::kCorrupt:
      return "Corrupt";
    case CheckpointRestoreOutcome::kStaleConfig:
      return "StaleConfig";
    case CheckpointRestoreOutcome::kShapeMismatch:
      return "ShapeMismatch";
  }
  return "Unknown";
}

TrainCheckpointer::TrainCheckpointer(CheckpointOptions options)
    : options_(std::move(options)) {
  if (options_.interval_epochs == 0) options_.interval_epochs = 1;
}

std::string TrainCheckpointer::FilePath() const {
  return (std::filesystem::path(options_.directory) / kFileName).string();
}

bool TrainCheckpointer::ShouldSave(uint64_t completed_epochs) const {
  return saves_enabled() && completed_epochs % options_.interval_epochs == 0;
}

std::optional<CheckpointState> TrainCheckpointer::TryRestore(
    const CheckpointShape* shape) {
  restored_epoch_ = 0;
  if (!options_.resume) {
    outcome_ = CheckpointRestoreOutcome::kNotAttempted;
    return std::nullopt;
  }
  const std::string path = FilePath();
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    Record(CheckpointRestoreOutcome::kNoFile);
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string contents = std::move(buf).str();

  // Everything below degrades: a checkpoint that cannot be trusted is a
  // scratch start (or a restart from the last good checkpoint the atomic
  // writer preserved), never a hard failure.
  auto degrade = [&](CheckpointRestoreOutcome outcome,
                     const std::string& why) -> std::optional<CheckpointState> {
    Record(outcome);
    KELPIE_LOG(Warning) << "checkpoint " << path << ": " << why
                        << "; restarting training from scratch";
    return std::nullopt;
  };

  std::istringstream payload(contents);
  char magic[8];
  payload.read(magic, 8);
  if (!payload || std::string_view(magic, 8) != kMagic) {
    return degrade(CheckpointRestoreOutcome::kCorrupt, "bad magic");
  }
  uint64_t version = 0, fingerprint = 0, sections = 0;
  Status header = ReadU64(payload, version);
  if (header.ok()) header = ReadU64(payload, fingerprint);
  if (header.ok()) header = ReadU64(payload, sections);
  const bool is_v1 = version == kVersionV1 && sections == kSectionCountV1;
  const bool is_v2 = version == kVersion && sections == kSectionCount;
  if (!header.ok() || (!is_v1 && !is_v2)) {
    return degrade(CheckpointRestoreOutcome::kCorrupt,
                   "unreadable or wrong-version header");
  }
  uint64_t expected = options_.fingerprint;
  if (failpoint::Fire("checkpoint.stale_config")) expected ^= 1;
  if (options_.mode == CheckpointMode::kResume && fingerprint != expected) {
    return degrade(CheckpointRestoreOutcome::kStaleConfig,
                   "config fingerprint mismatch (different model, "
                   "hyperparameters, dataset or seed)");
  }

  CheckpointState state;
  std::string section;
  Status parsed = ReadSection(payload, "state", section);
  if (parsed.ok()) parsed = ParseStateSection(section, state);
  if (parsed.ok()) parsed = ReadSection(payload, "rng", section);
  if (parsed.ok()) parsed = ParseRngSection(section, state.rng);
  if (parsed.ok()) parsed = ReadSection(payload, "counters", section);
  if (parsed.ok()) parsed = ParseCountersSection(section, state.counters);
  if (parsed.ok()) parsed = ReadSection(payload, "params", section);
  if (parsed.ok()) parsed = ParseParamsSection(section, state.params);
  if (parsed.ok() && is_v2) parsed = ReadSection(payload, "sparse", section);
  if (!parsed.ok()) {
    return degrade(CheckpointRestoreOutcome::kCorrupt, parsed.ToString());
  }
  if (is_v2 && !section.empty()) {
    return degrade(CheckpointRestoreOutcome::kShapeMismatch,
                   "holds sparse optimizer state, which this build cannot "
                   "resume");
  }
  if (shape != nullptr) {
    bool shapes_ok = state.params.size() == shape->param_sizes.size();
    for (size_t i = 0; shapes_ok && i < state.params.size(); ++i) {
      shapes_ok = state.params[i].size() == shape->param_sizes[i];
    }
    if (shapes_ok && shape->counters.has_value()) {
      shapes_ok = state.counters.size() == *shape->counters;
    }
    if (!shapes_ok) {
      return degrade(CheckpointRestoreOutcome::kShapeMismatch,
                     "parameter shapes disagree with this model");
    }
  }

  Record(CheckpointRestoreOutcome::kRestored);
  restored_epoch_ = state.next_epoch;
  return state;
}

void TrainCheckpointer::Record(CheckpointRestoreOutcome outcome) {
  outcome_ = outcome;
  RestoreCounter(RestoreOutcomeLabel(outcome)).Increment();
}

Status TrainCheckpointer::Save(const CheckpointState& state) {
  std::ostringstream out;
  out.write(kMagic.data(), static_cast<std::streamsize>(kMagic.size()));
  KELPIE_RETURN_IF_ERROR(WriteU64(out, kVersion));
  uint64_t fingerprint = options_.fingerprint;
  if (failpoint::Fire("checkpoint.stale_config")) fingerprint ^= 1;
  KELPIE_RETURN_IF_ERROR(WriteU64(out, fingerprint));
  KELPIE_RETURN_IF_ERROR(WriteU64(out, kSectionCount));
  std::string section;
  KELPIE_RETURN_IF_ERROR(SerializeStateSection(state, section));
  KELPIE_RETURN_IF_ERROR(WriteSection(out, "state", section));
  KELPIE_RETURN_IF_ERROR(SerializeRngSection(state.rng, section));
  KELPIE_RETURN_IF_ERROR(WriteSection(out, "rng", section));
  KELPIE_RETURN_IF_ERROR(SerializeCountersSection(state.counters, section));
  KELPIE_RETURN_IF_ERROR(WriteSection(out, "counters", section));
  const size_t params_start = static_cast<size_t>(out.tellp());
  KELPIE_RETURN_IF_ERROR(SerializeParamsSection(state.params, section));
  KELPIE_RETURN_IF_ERROR(WriteSection(out, "params", section));
  KELPIE_RETURN_IF_ERROR(WriteSection(out, "sparse", std::string()));
  std::string image = std::move(out).str();

  if (failpoint::Fire("checkpoint.bit_flip")) {
    // Flip one byte inside the params section: framing survives, the
    // section CRC must catch it.
    const size_t off = params_start + (image.size() - params_start) / 2;
    image[off] = static_cast<char>(image[off] ^ 0x10);
  }
  if (failpoint::Fire("checkpoint.partial_write")) {
    // A crash mid-serialization: only a prefix (torn inside a section)
    // reaches the file.
    image.resize(image.size() * 3 / 5);
  }

  std::error_code ec;
  std::filesystem::create_directories(options_.directory, ec);
  if (ec) {
    return Status::IoError("cannot create checkpoint directory " +
                           options_.directory + ": " + ec.message());
  }
  KELPIE_RETURN_IF_ERROR(WriteFileAtomic(FilePath(), image));
  metrics::Registry::Global()
      .GetCounter("kelpie_checkpoint_saves_total", {},
                  metrics::Determinism::kDeterministic,
                  "Training checkpoints written.")
      .Increment();
  return Status::Ok();
}

}  // namespace kelpie
