#include "util/crc32.h"

#include <array>

namespace simq {
namespace {

// Slicing-by-8 tables for the reflected IEEE polynomial 0xEDB88320.
// tables[0] is the classic one-byte table; tables[k][b] is the CRC of byte
// b followed by k zero bytes, so eight table lookups fold eight input bytes
// into the register at once.
using Tables = std::array<std::array<uint32_t, 256>, 8>;

Tables MakeTables() {
  Tables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
    }
    tables[0][i] = crc;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (size_t k = 1; k < tables.size(); ++k) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

}  // namespace

uint32_t Crc32(const void* data, size_t size, uint32_t seed) {
  static const Tables tables = MakeTables();
  const auto* bytes = static_cast<const unsigned char*>(data);
  uint32_t crc = ~seed;
  // Eight bytes per step: the low word is folded into the register and the
  // two words are split into bytes, each looked up in the table for its
  // distance from the end of the step. Byte order is fixed by assembling
  // the words from bytes, so the result does not depend on the host's
  // endianness.
  for (; size >= 8; size -= 8, bytes += 8) {
    const uint32_t lo = crc ^ (static_cast<uint32_t>(bytes[0]) |
                               static_cast<uint32_t>(bytes[1]) << 8 |
                               static_cast<uint32_t>(bytes[2]) << 16 |
                               static_cast<uint32_t>(bytes[3]) << 24);
    crc = tables[7][lo & 0xFFu] ^ tables[6][(lo >> 8) & 0xFFu] ^
          tables[5][(lo >> 16) & 0xFFu] ^ tables[4][lo >> 24] ^
          tables[3][bytes[4]] ^ tables[2][bytes[5]] ^ tables[1][bytes[6]] ^
          tables[0][bytes[7]];
  }
  for (; size > 0; --size, ++bytes) {
    crc = (crc >> 8) ^ tables[0][(crc ^ *bytes) & 0xFFu];
  }
  return ~crc;
}

}  // namespace simq
