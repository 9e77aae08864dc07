// vm::LoadedArtifact — a deployable HAB file opened for execution.
//
// FromFile mmaps the file read-only (falling back to a buffered read when
// mmap is unavailable, e.g. on pipes), validates the header/version/section
// checksums, and parses the sections into a compiler::Artifact data model.
// The mapping is released once parsing copies the payloads out; section
// metadata is kept for introspection (`htvm-run --meta`).
//
// All failure paths return typed Status — see the failure model in hab.hpp.
#pragma once

#include <memory>
#include <string>

#include "vm/hab.hpp"

namespace htvm::vm {

class LoadedArtifact {
 public:
  // Loads and validates `path`. NotFound when the file is missing,
  // Unsupported on version/endianness skew, InvalidArgument on corruption.
  static Result<LoadedArtifact> FromFile(const std::string& path);

  // Same validation over an in-memory image (testing, network transports).
  static Result<LoadedArtifact> FromBuffer(std::span<const u8> data);

  const compiler::Artifact& artifact() const { return parsed_->artifact; }
  // Stable across moves, so a runtime::Executor built on it stays valid
  // however the caller moves this LoadedArtifact around.
  const compiler::Artifact* artifact_ptr() const { return &parsed_->artifact; }
  // Shares ownership of the parsed state without copying the artifact (an
  // aliasing shared_ptr): the artifact cache hands this out on a disk hit.
  std::shared_ptr<const compiler::Artifact> shared_artifact() const {
    return {parsed_, &parsed_->artifact};
  }
  const HabMeta& meta() const { return parsed_->meta; }
  const std::vector<HabSectionInfo>& sections() const {
    return parsed_->sections;
  }
  i64 file_bytes() const { return file_bytes_; }
  // True when the source file was parsed straight out of an mmap'd range
  // (no intermediate read buffer).
  bool zero_copy_source() const { return zero_copy_source_; }

 private:
  explicit LoadedArtifact(ParsedHab parsed)
      : parsed_(std::make_shared<ParsedHab>(std::move(parsed))) {}

  std::shared_ptr<ParsedHab> parsed_;
  i64 file_bytes_ = 0;
  bool zero_copy_source_ = false;
};

}  // namespace htvm::vm
