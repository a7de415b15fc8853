#include "stats/digest.hpp"

#include <cstdio>
#include <fstream>

namespace emptcp::stats {

void Fnv1a64Stream::update(std::string_view chunk) {
  std::uint64_t h = h_;
  for (const char c : chunk) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ULL;
  }
  h_ = h;
}

std::string Fnv1a64Stream::hex() const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "fnv1a64:%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

std::uint64_t fnv1a64(std::string_view text) {
  Fnv1a64Stream s;
  s.update(text);
  return s.value();
}

std::string fnv1a64_hex(std::string_view text) {
  Fnv1a64Stream s;
  s.update(text);
  return s.hex();
}

bool digest_file(const std::string& path, std::string& digest_hex,
                 const std::function<bool(std::string_view)>& each) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  Fnv1a64Stream digest;
  std::string chunk(1 << 20, '\0');
  while (in) {
    in.read(chunk.data(), static_cast<std::streamsize>(chunk.size()));
    const std::string_view data(chunk.data(),
                                static_cast<std::size_t>(in.gcount()));
    digest.update(data);
    if (each && !data.empty() && !each(data)) return false;
  }
  if (in.bad()) return false;
  digest_hex = digest.hex();
  return true;
}

}  // namespace emptcp::stats
