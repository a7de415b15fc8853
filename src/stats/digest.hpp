// FNV-1a 64-bit digests of artifact bytes.
//
// Tiny, dependency-free and deterministic across platforms; collision
// resistance is irrelevant here (integrity, not security). The trace
// writer digests its bytes as it writes them, run manifests and the
// campaign ledger record the result, and the report and the campaign's
// resume check recompute it from the files. analysis/manifest.hpp names
// the same functions for the artifact readers.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

namespace emptcp::stats {

/// Incremental form for digesting large traces chunk-by-chunk without
/// holding the bytes. Feeding a string in any chunking yields the same
/// value as fnv1a64 over the whole string.
class Fnv1a64Stream {
 public:
  void update(std::string_view chunk);
  [[nodiscard]] std::uint64_t value() const { return h_; }
  [[nodiscard]] std::string hex() const;  ///< "fnv1a64:<16 hex digits>"

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

std::uint64_t fnv1a64(std::string_view text);
std::string fnv1a64_hex(std::string_view text);

/// Digests the file at `path` in 1 MB chunks, never holding it whole,
/// and hands each chunk to `each` (when given) after digesting it.
/// Returns false, leaving `digest_hex` alone, when the file cannot be
/// opened or read or `each` returns false.
bool digest_file(const std::string& path, std::string& digest_hex,
                 const std::function<bool(std::string_view)>& each = {});

}  // namespace emptcp::stats
